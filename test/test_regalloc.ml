(* Register allocation: a golden digest of the JIT's output, and an
   allocation-validity property checked by a validator that shares no
   code with the allocator. *)

open Pvmach

let check = Alcotest.check

(* ---------------- golden JIT output ---------------- *)

(* The 14 kernels plus the generator programs of seeds 1-40 that the
   offline pipeline accepts, as distribution bytecode per mode. *)
let corpus mode =
  let off p = Core.Splitc.distribute (Core.Splitc.offline ~mode p) in
  List.map
    (fun (k : Pvkernels.Kernels.t) ->
      ( k.Pvkernels.Kernels.name,
        off
          (Core.Splitc.frontend ~name:k.Pvkernels.Kernels.name
             k.Pvkernels.Kernels.source) ))
    Pvkernels.Kernels.all
  @ List.filter_map
      (fun seed ->
        match off (Pvcheck.Gen.program ~seed) with
        | bc -> Some (Printf.sprintf "gen-%d" seed, bc)
        | exception _ -> None)
      (List.init 40 (fun i -> i + 1))

(* Every function's final MIR text, spill counts and size, plus the online
   work per pass, for the corpus x 5 machines x {split, deferred}. *)
let golden_digest () =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun mode ->
      List.iter
        (fun (name, bc) ->
          List.iter
            (fun (m : Machine.t) ->
              let on = Core.Splitc.online ~mode ~machine:m bc in
              Printf.bprintf buf "== %s %s %s\n" (Core.Splitc.mode_name mode)
                name m.Machine.name;
              List.iter
                (fun (fr : Pvjit.Jit.func_report) ->
                  let ra = fr.Pvjit.Jit.ra in
                  Printf.bprintf buf "%s spills=%d/%d mir=%d\n"
                    fr.Pvjit.Jit.fname ra.Pvjit.Regalloc.spilled_regs
                    ra.Pvjit.Regalloc.spill_instrs fr.Pvjit.Jit.mir_size;
                  let ce =
                    Hashtbl.find on.Core.Splitc.sim.Pvvm.Sim.code
                      fr.Pvjit.Jit.fname
                  in
                  Buffer.add_string buf (Mir.func_to_string ce.Pvvm.Sim.cfn))
                on.Core.Splitc.jit.Pvjit.Jit.funcs;
              List.iter
                (fun (pass, n) -> Printf.bprintf buf "work %s=%d\n" pass n)
                (Pvir.Account.by_pass on.Core.Splitc.online_work))
            Machine.all)
        (corpus mode))
    [ Core.Splitc.Split; Core.Splitc.Traditional_deferred ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Pinned JIT output.  Intervals with equal (start, end) are scanned in
   vreg order.  Any change to lowering, allocation, peephole or the work
   accounting that moves this digest must be explained in CHANGES.md
   before the digest is re-pinned. *)
let golden = "6929a7ac08702bb7d112073492892ba2"

let test_golden () =
  check Alcotest.string "JIT output digest" golden (golden_digest ())

(* ---------------- allocation validity ---------------- *)

(* What a register or spill slot of the allocated code holds: the current
   value of one vreg of the code before allocation. *)
type loc = Reg of Mir.reg_class * int | Slot of int

module L = Map.Make (struct
  type t = loc

  let compare = compare
end)

let nregs (m : Machine.t) = function
  | Mir.Gpr -> m.Machine.int_regs
  | Mir.Fpr -> m.Machine.fp_regs
  | Mir.Vec -> m.Machine.vec_regs

(* Check the allocated [mf] against the code it was allocated from
   ([blocks], [params], [frame]: blocks, parameters and frame size before
   [Regalloc.run]).  A forward dataflow pass over the allocated code,
   sharing nothing with the allocator, tracks which locations hold the
   current value of which original vreg (a definition invalidates every
   other copy; at a join only facts true on every path survive).  Every
   operand must then hold the value its original instruction names: if
   two values live at the same point shared a register, the later
   definition would clobber the earlier value before its use.  Spill code
   is the frame loads and stores at or beyond the original frame size; the
   remaining instructions match the original ones in order.  Returns a
   list of violations. *)
let validate (mf : Mir.func) ~blocks ~params ~frame =
  let m = mf.Mir.target in
  (* violations are recorded by the last pass only, once the facts are
     final *)
  let checking = ref false and errors = ref [] in
  let err fmt =
    Printf.ksprintf
      (fun s -> if !checking then errors := (mf.Mir.mname ^ ": " ^ s) :: !errors)
      fmt
  in
  let phys r =
    match r with
    | Mir.P (c, i) ->
      if i < 0 || i >= nregs m c then
        err "%s outside the machine's registers" (Mir.reg_to_string r);
      Some (Reg (c, i))
    | Mir.V v ->
      err "virtual register v%d left" v;
      None
  in
  let define st loc v =
    match loc with
    | Some l -> L.add l v (L.filter (fun _ x -> x <> v) st)
    | None -> st
  in
  let use st ~what alloc orig =
    match orig with
    | Mir.V v ->
      let held = Option.bind (phys alloc) (fun l -> L.find_opt l st) in
      if held <> Some v then
        err "%s reads %s, which does not hold v%d" what
          (Mir.reg_to_string alloc) v
    | Mir.P _ -> if alloc <> orig then err "%s: physical operand moved" what
  in
  let is_spill (i : Mir.inst) =
    match i.Mir.op with
    | Mir.Mframe_ld s | Mir.Mframe_st s -> s >= frame
    | _ -> false
  in
  (* the effect of allocated block [b] on [st] *)
  let transfer b st (ab : Mir.block) =
    let orig_insts, orig_term = List.nth blocks b in
    let rest = ref orig_insts and st = ref st in
    List.iter
      (fun (a : Mir.inst) ->
        if is_spill a then
          match (a.Mir.op, a.Mir.srcs, a.Mir.dst) with
          | Mir.Mframe_st s, [ r ], None -> (
            match Option.bind (phys r) (fun l -> L.find_opt l !st) with
            | Some v -> st := L.add (Slot s) v !st
            | None -> st := L.remove (Slot s) !st)
          | Mir.Mframe_ld s, [], Some d -> (
            match (phys d, L.find_opt (Slot s) !st) with
            | Some l, Some v -> st := L.add (Slot s) v (define !st (Some l) v)
            | Some l, None -> st := L.remove l !st
            | None, _ -> ())
          | _ -> err "malformed spill instruction %s" (Mir.inst_to_string a)
        else
          match !rest with
          | [] -> err "extra instruction %s" (Mir.inst_to_string a)
          | o :: tl -> (
            rest := tl;
            let what = Mir.inst_to_string o in
            if
              compare a.Mir.op o.Mir.op <> 0
              || List.compare_lengths a.Mir.srcs o.Mir.srcs <> 0
            then err "%s became %s" what (Mir.inst_to_string a)
            else begin
              List.iter2 (use !st ~what) a.Mir.srcs o.Mir.srcs;
              match (a.Mir.dst, o.Mir.dst) with
              | Some ad, Some (Mir.V v) -> st := define !st (phys ad) v
              | None, None -> ()
              | ad, od -> if ad <> od then err "%s: destination changed" what
            end))
      ab.Mir.insts;
    if !rest <> [] then err "block L%d lost instructions" ab.Mir.mlabel;
    (match (ab.Mir.mterm, orig_term) with
    | Mir.Tcbr (a, _, _), Mir.Tcbr (o, _, _)
    | Mir.Tret (Some a), Mir.Tret (Some o) ->
      use !st ~what:"terminator" a o
    | _ -> ());
    !st
  in
  let ablocks = Array.of_list mf.Mir.mblocks in
  let index l =
    let rec go i =
      if i = Array.length ablocks then None
      else if ablocks.(i).Mir.mlabel = l then Some i
      else go (i + 1)
    in
    go 0
  in
  let entry =
    List.fold_left2
      (fun st a o ->
        match o with Mir.V v -> define st (phys a) v | Mir.P _ -> st)
      L.empty mf.Mir.mparams params
  in
  let inn = Array.make (Array.length ablocks) None in
  inn.(0) <- Some entry;
  let pass () =
    let changed = ref false in
    Array.iteri
      (fun b ab ->
        Option.iter
          (fun st ->
            let out = transfer b st ab in
            List.iter
              (fun l ->
                match index l with
                | None -> err "branch to missing block L%d" l
                | Some s ->
                  let joined =
                    match inn.(s) with
                    | None -> out
                    | Some x -> L.filter (fun k v -> L.find_opt k out = Some v) x
                  in
                  match inn.(s) with
                  | Some x when L.equal Int.equal x joined -> ()
                  | _ ->
                    inn.(s) <- Some joined;
                    changed := true)
              (Mir.term_successors ab.Mir.mterm))
          inn.(b))
      ablocks;
    !changed
  in
  while pass () do
    ()
  done;
  checking := true;
  ignore (pass ());
  List.rev !errors

(* Lower, legalize and fold every function of [prog] for [m], allocate it
   with [quality], and validate the result; returns (violations, spills). *)
let allocate_and_validate prog (m : Machine.t) ~weights =
  let img = Pvvm.Image.load prog in
  List.fold_left
    (fun (errs, spills) (fn : Pvir.Func.t) ->
      let mf =
        Pvjit.Lower.run ~machine:m
          ~resolve_global:(Pvvm.Image.global_address img)
          fn
      in
      let exp = Pvjit.Legalize.run mf in
      ignore (Pvjit.Immfold.run mf);
      let quality =
        if weights then
          Pvjit.Regalloc.Weights
            (Pvjit.Jit.extend_weights exp (Pvjit.Jit.weight_fun_recomputed fn))
        else Pvjit.Regalloc.Heuristic
      in
      let blocks =
        List.map (fun (b : Mir.block) -> (b.Mir.insts, b.Mir.mterm)) mf.Mir.mblocks
      and params = mf.Mir.mparams
      and frame = mf.Mir.frame_size in
      let st = Pvjit.Regalloc.run ~quality mf in
      ( errs @ validate mf ~blocks ~params ~frame,
        spills + st.Pvjit.Regalloc.spilled_regs ))
    ([], 0) prog.Pvir.Prog.funcs

let test_validity () =
  let spills = ref 0 in
  List.iter
    (fun mode ->
      List.iter
        (fun (name, bc) ->
          let prog = Pvir.Serial.decode bc in
          List.iter
            (fun (m : Machine.t) ->
              List.iter
                (fun weights ->
                  let errs, n = allocate_and_validate prog m ~weights in
                  spills := !spills + n;
                  check (Alcotest.list Alcotest.string)
                    (Printf.sprintf "%s on %s (%s)" name m.Machine.name
                       (if weights then "weights" else "heuristic"))
                    [] errs)
                [ false; true ])
            Machine.all)
        (corpus mode))
    [ Core.Splitc.Split; Core.Splitc.Traditional_deferred ];
  (* the corpus must exercise spill code, or the check says little *)
  check Alcotest.bool "spills were validated" true (!spills > 100)

let () =
  Alcotest.run "regalloc"
    [
      ("golden", [ Alcotest.test_case "JIT output digest" `Quick test_golden ]);
      ("validity", [ Alcotest.test_case "allocation is valid" `Quick test_validity ]);
    ]
