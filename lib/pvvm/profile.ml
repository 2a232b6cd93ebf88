(** Execution profiler.

    Implements the "idle time between different runs" step of the program
    lifetime (§2.2): profiles collected by the VM feed back into the
    offline compiler, which turns them into hotness annotations
    ({!Pvir.Annot.key_hotness}) for the next deployment.

    The profile is one observer on the interpreter's block-entry
    safepoint: a block counts as visited when it is entered, so a block
    whose body traps still counts, and a block a checkpoint captures at
    counts once, when the resumed run enters it. *)

type t = { block_visits : (string * int, int ref) Hashtbl.t }

let create () = { block_visits = Hashtbl.create 64 }

let block p fname label =
  match Hashtbl.find_opt p.block_visits (fname, label) with
  | Some r -> incr r
  | None -> Hashtbl.replace p.block_visits (fname, label) (ref 1)

let block_count p fname label =
  match Hashtbl.find_opt p.block_visits (fname, label) with
  | Some r -> !r
  | None -> 0

(** Total block visits per function — a proxy for time spent. *)
let weight p fname =
  Hashtbl.fold
    (fun (f, _) r acc -> if String.equal f fname then acc + !r else acc)
    p.block_visits 0

(** Derive the dynamic instruction mix and memory traffic from the
    profile: per-block visit counts multiplied by each block's static
    composition.  Costs nothing during execution — the VM only bumps the
    per-block counters it already keeps; the breakdown is computed here,
    after the run.  Populates [vm.mix.*] counters (alu/load/store/call/
    branch/ret), [vm.mem.load_bytes]/[vm.mem.store_bytes], and a
    [vm.block_visits] histogram of per-block hotness. *)
let observe_mix p (prog : Pvir.Prog.t) (m : Pvtrace.Metrics.t) : unit =
  let mix = [| 0; 0; 0; 0; 0; 0 |] in
  (* alu, load, store, call, branch, ret *)
  let load_bytes = ref 0 in
  let store_bytes = ref 0 in
  List.iter
    (fun (fn : Pvir.Func.t) ->
      List.iter
        (fun (blk : Pvir.Func.block) ->
          let visits = block_count p fn.name blk.label in
          if visits > 0 then begin
            Pvtrace.Metrics.observe m "vm.block_visits"
              (Int64.of_int visits);
            List.iter
              (fun (i : Pvir.Instr.t) ->
                match i with
                | Pvir.Instr.Load (ty, _, _, _) ->
                  mix.(1) <- mix.(1) + visits;
                  load_bytes := !load_bytes + (visits * Pvir.Types.size ty)
                | Pvir.Instr.Store (ty, _, _, _) ->
                  mix.(2) <- mix.(2) + visits;
                  store_bytes := !store_bytes + (visits * Pvir.Types.size ty)
                | Pvir.Instr.Call _ -> mix.(3) <- mix.(3) + visits
                | _ -> mix.(0) <- mix.(0) + visits)
              blk.instrs;
            match blk.term with
            | Pvir.Instr.Br _ | Pvir.Instr.Cbr _ ->
              mix.(4) <- mix.(4) + visits
            | Pvir.Instr.Ret _ -> mix.(5) <- mix.(5) + visits
          end)
        fn.blocks)
    prog.funcs;
  Pvtrace.Metrics.inci m "vm.mix.alu" mix.(0);
  Pvtrace.Metrics.inci m "vm.mix.load" mix.(1);
  Pvtrace.Metrics.inci m "vm.mix.store" mix.(2);
  Pvtrace.Metrics.inci m "vm.mix.call" mix.(3);
  Pvtrace.Metrics.inci m "vm.mix.branch" mix.(4);
  Pvtrace.Metrics.inci m "vm.mix.ret" mix.(5);
  Pvtrace.Metrics.inci m "vm.mem.load_bytes" !load_bytes;
  Pvtrace.Metrics.inci m "vm.mem.store_bytes" !store_bytes

(** Annotate every function of [prog] with its measured hotness in [0;1]
    (fraction of total profile weight).  This is the feedback edge of the
    split-compilation flow. *)
let annotate_hotness p (prog : Pvir.Prog.t) =
  let total =
    List.fold_left
      (fun acc (fn : Pvir.Func.t) -> acc + weight p fn.name)
      0 prog.funcs
  in
  if total > 0 then
    List.iter
      (fun (fn : Pvir.Func.t) ->
        let h = float_of_int (weight p fn.name) /. float_of_int total in
        Pvir.Func.add_annot fn Pvir.Annot.key_hotness (Pvir.Annot.Flt h))
      prog.funcs
