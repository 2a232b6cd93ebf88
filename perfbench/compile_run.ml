(** The pipeline phase of every workload: the device pipeline with no
    service, in the workload's compilation mode ([Split] or
    [Traditional_deferred]).

    Every program (the 14 {!Pvkernels.Kernels} plus {!Pvcheck.Gen}
    programs) goes frontend -> [offline ~mode] -> [distribute] ->
    [online ~mode] on each of the five machine descriptors, and
    each compiled result is executed and checked against the reference
    interpreter.  Engine rounds then run the 14 kernels at n = 1024 on the
    threaded interpreter (unoptimized bytecode), the AOT engine (same
    bytecode, native plugins) and the threaded simulator (the mode's JIT
    output on x86ish), checking that every run agrees with the reference
    on result, output, globals, cycles and instructions.  Pipeline and
    engine rounds alternate until the measuring time is used up. *)

open Util

let n = 1024
let gen_programs = 10
let engine_reps = 2
let machines = Pvmach.Machine.all

(** Offline passes and online JIT phases whose work units the traced run
    reports (names as charged to {!Pvir.Account}); a pass outside the
    list is reported on stdout so the list can follow the code. *)
let offline_passes =
  [
    "inline"; "simplify_cfg"; "constfold"; "copyprop"; "cse"; "dce";
    "strength"; "licm"; "unroll"; "idiom"; "ifconv"; "vectorize.analysis";
    "vectorize.dependence"; "vectorize.transform"; "regalloc.offline_analysis";
  ]

let jit_phases =
  [
    "jit.lower"; "jit.legalize"; "jit.immfold"; "jit.read_annotations";
    "jit.online_weights"; "jit.annot_fallback"; "jit.regalloc"; "jit.spill";
    "jit.peephole";
  ]

type source = Kernel of Pvkernels.Kernels.t | Gen of Pvir.Prog.t

type program = { id : string; source : source }

(* What the reference interpreter observed for one program. *)
type reference =
  | Kernel_ref of Pvkernels.Harness.observation * int64 * int64
      (** observation, cycles, instrs (tree-walk interpreter) *)
  | Gen_ref of Pvcheck.Oracle.obs

type engine = Threaded | Aot | Sim

let engine_name = function Threaded -> "threaded" | Aot -> "aot" | Sim -> "sim"

(** One kernel ready on every engine: two interpreters over the
    unoptimized bytecode and one simulator over split-mode x86ish code,
    each with its own image. *)
type slot = {
  k : Pvkernels.Kernels.t;
  args : Pvir.Value.t list;
  it_th : Pvvm.Interp.t;
  it_aot : Pvvm.Interp.t;
  sim : Pvvm.Sim.t;
  sim_img : Pvvm.Image.t;
  mutable sim_instrs : int64;  (** from the setup warm-up run *)
}

type env = {
  mode : Core.Splitc.mode;
  programs : program array;  (** each pipeline round reorders it *)
  order : int64 ref;  (** the seeded stream that orders the rounds *)
  slots : slot list;
  build_s : float;  (** AOT plugin builds *)
  fallbacks : int;
}

(* ---------------- setup ---------------- *)

let frontend (k : Pvkernels.Kernels.t) =
  Core.Splitc.frontend ~name:k.Pvkernels.Kernels.name k.Pvkernels.Kernels.source

(** The JIT hints [Core.Splitc.online] uses in [mode]; the traced replay
    passes the same.  [Pure_online] would also run the online optimizer,
    which the replay does not model. *)
let hints = function
  | Core.Splitc.Split -> Pvjit.Jit.Hints_annotation
  | Core.Splitc.Traditional_deferred -> Pvjit.Jit.Hints_none
  | Core.Splitc.Pure_online -> invalid_arg "perfbench: pure-online mode"

(* The generated programs are the same on every run, generator seeds
   1..[gen_programs] as in the service's corpus.  When the run's seed drew
   them, their compile costs moved online_us_p50 by 0.15-0.22 (quartile
   distance over median) from seed to seed, against 0.06 for the kernels
   alone; the seed orders each pipeline round instead.  Programs the
   offline pipeline rejects are skipped, as {!Pvserve.Load.corpus} skips
   them. *)
let programs ~mode =
  let gen_seeds = List.init gen_programs (fun i -> i + 1) in
  List.map (fun k -> { id = k.Pvkernels.Kernels.name; source = Kernel k })
    Pvkernels.Kernels.all
  @ List.filter_map
      (fun s ->
        let p = Pvcheck.Gen.program ~seed:s in
        match
          Core.Splitc.distribute (Core.Splitc.offline ~mode p)
        with
        | _ -> Some { id = Printf.sprintf "gen-%d" s; source = Gen p }
        | exception _ -> None)
      gen_seeds

let reset_interp (it : Pvvm.Interp.t) =
  Pvkernels.Harness.fill_inputs it.Pvvm.Interp.img;
  Buffer.clear it.Pvvm.Interp.out;
  let st = it.Pvvm.Interp.stats in
  st.Pvvm.Interp.cycles <- 0L;
  st.Pvvm.Interp.instrs <- 0L;
  st.Pvvm.Interp.calls <- 0

let reset_sim (sim : Pvvm.Sim.t) img =
  Pvkernels.Harness.fill_inputs img;
  Buffer.clear sim.Pvvm.Sim.out;
  let st = sim.Pvvm.Sim.stats in
  st.Pvvm.Sim.cycles <- 0L;
  st.Pvvm.Sim.instrs <- 0L;
  st.Pvvm.Sim.spill_ops <- 0L

(** Corpus, engine instances, AOT plugin builds into a fresh cache
    directory, and one warm-up run per engine. *)
let setup ~mode ~seed ~aot_dir : env =
  if Sys.file_exists aot_dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat aot_dir f))
      (Sys.readdir aot_dir);
  Pvaot.set_cache_dir (Some aot_dir);
  Pvaot.reset_memos ();
  let programs = Array.of_list (programs ~mode) in
  let build_ns = ref 0.0 and fallbacks = ref 0 in
  let slots =
    List.map
      (fun (k : Pvkernels.Kernels.t) ->
        let interp engine =
          let img = Pvvm.Image.load (frontend k) in
          Pvkernels.Harness.fill_inputs img;
          Pvvm.Interp.create ~fuel:Int64.max_int ~engine img
        in
        let it_th = interp Pvvm.Interp.Threaded in
        let it_aot = interp Pvvm.Interp.Aot in
        let status, ns = timed (fun () -> Pvaot.interp_status it_aot) in
        build_ns := !build_ns +. ns;
        (match status with Ok _ -> () | Error _ -> incr fallbacks);
        let on =
          Core.Splitc.online ~mode ~machine:Pvmach.Machine.x86ish
            (Core.Splitc.distribute (Core.Splitc.offline ~mode (frontend k)))
        in
        let slot =
          {
            k;
            args = Pvkernels.Harness.args k n;
            it_th;
            it_aot;
            sim = on.Core.Splitc.sim;
            sim_img = on.Core.Splitc.img;
            sim_instrs = 0L;
          }
        in
        let entry = k.Pvkernels.Kernels.entry in
        List.iter
          (fun it ->
            reset_interp it;
            ignore (Pvvm.Interp.run it entry slot.args))
          [ it_th; it_aot ];
        reset_sim slot.sim slot.sim_img;
        ignore (Pvvm.Sim.run slot.sim entry slot.args);
        slot.sim_instrs <- slot.sim.Pvvm.Sim.stats.Pvvm.Sim.instrs;
        slot)
      Pvkernels.Kernels.all
  in
  {
    mode;
    programs;
    order = ref (Int64.of_int seed);
    slots;
    build_s = !build_ns /. 1e9;
    fallbacks = !fallbacks;
  }

let references (env : env) : (string, reference) Hashtbl.t =
  let refs = Hashtbl.create 32 in
  Array.iter
    (fun p ->
      match p.source with
      | Kernel k ->
        let img = Pvvm.Image.load (frontend k) in
        Pvkernels.Harness.fill_inputs img;
        let it =
          Pvvm.Interp.create ~fuel:Int64.max_int
            ~engine:Pvvm.Interp.Tree_walk img
        in
        let result =
          Pvvm.Interp.run it k.Pvkernels.Kernels.entry
            (Pvkernels.Harness.args k n)
        in
        let obs =
          {
            Pvkernels.Harness.result;
            globals = Pvkernels.Harness.observe_globals img;
            printed = Pvvm.Interp.output it;
          }
        in
        Hashtbl.replace refs p.id
          (Kernel_ref
             ( obs,
               it.Pvvm.Interp.stats.Pvvm.Interp.cycles,
               it.Pvvm.Interp.stats.Pvvm.Interp.instrs ))
      | Gen prog ->
        Hashtbl.replace refs p.id
          (Gen_ref
             (Pvcheck.Oracle.run_interp prog Pvvm.Interp.Tree_walk)
               .Pvcheck.Oracle.iobs))
    env.programs;
  refs

(* ---------------- one round ---------------- *)

type acc = {
  tally : Tally.t;
  refs : (string, reference) Hashtbl.t;
  offline_ms : string Keyed.t;  (** per program *)
  online_us : (string * string) Keyed.t;  (** per program x machine *)
  cycles : (string * string, int64) Hashtbl.t;  (** kernel x machine *)
  run_ns : (engine * string) Keyed.t;  (** plain engine runs, per kernel *)
  run_instrs : (engine * string, float) Hashtbl.t;
  mutable plain_ns : float;  (** timed work of plain rounds *)
  (* traced-run tallies *)
  verify_ns : Samples.t;
  load_alloc : Samples.t;
  offline_work : (string, int) Hashtbl.t;  (** kernels, one round *)
  jit_work : (string, int) Hashtbl.t;  (** kernel x machine, one round *)
  mutable offline_units : int;  (** all traced offline compiles *)
  mutable bytecode_bytes : int;
  mutable mir_instrs : int;
  mutable spill_instrs : int;
  mutable annot_rejected : int;
  mutable counted : bool;  (** deterministic per-round counts taken *)
  engine_ns : (engine * string, float) Hashtbl.t;  (** traced, per kernel *)
  engine_instrs : (engine * string, float) Hashtbl.t;
}

let bump_int tbl k n =
  Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let bump_float tbl k x =
  Hashtbl.replace tbl k (x +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

(* Execute one compiled (program, machine) result and compare with the
   reference interpreter; kernel cycle counts must also repeat exactly
   from round to round. *)
let check_compiled acc (p : program) (m : Pvmach.Machine.t) sim img =
  let what fmt =
    Printf.ksprintf
      (fun s () -> Printf.sprintf "%s on %s: %s" p.id m.Pvmach.Machine.name s)
      fmt
  in
  match (p.source, Hashtbl.find acc.refs p.id) with
  | Kernel k, Kernel_ref (robs, _, _) ->
    Pvkernels.Harness.fill_inputs img;
    let result =
      try
        Some
          (Pvvm.Sim.run sim k.Pvkernels.Kernels.entry
             (Pvkernels.Harness.args k n))
      with _ -> None
    in
    let ok =
      match result with
      | None -> false
      | Some result ->
        Pvkernels.Harness.observation_equal robs
          {
            Pvkernels.Harness.result;
            globals = Pvkernels.Harness.observe_globals img;
            printed = Pvvm.Sim.output sim;
          }
    in
    Tally.check acc.tally ok (what "observation differs from the reference");
    let c = Pvvm.Sim.cycles sim in
    let key = (p.id, m.Pvmach.Machine.name) in
    (match Hashtbl.find_opt acc.cycles key with
    | None -> Hashtbl.replace acc.cycles key c
    | Some c0 ->
      Tally.check acc.tally (Int64.equal c0 c)
        (what "cycles %Ld, earlier round %Ld" c c0))
  | Gen _, Gen_ref robs ->
    sim.Pvvm.Sim.fuel <- Pvcheck.Oracle.fuel;
    let outcome =
      match Pvvm.Sim.run sim "main" [] with
      | v -> Pvcheck.Oracle.Finished v
      | exception Pvvm.Sim.Trap msg -> Pvcheck.Oracle.Trapped msg
    in
    let obs =
      {
        Pvcheck.Oracle.outcome;
        output = Pvvm.Sim.output sim;
        globals = Pvcheck.Oracle.read_globals img;
      }
    in
    let ms = Pvcheck.Oracle.compare_obs ~path:"jit" robs obs in
    Tally.check acc.tally (ms = []) (what "oracle mismatch")
  | _ -> assert false

let count_jit acc (report : Pvjit.Jit.report) =
  List.iter
    (fun (fr : Pvjit.Jit.func_report) ->
      acc.mir_instrs <- acc.mir_instrs + fr.Pvjit.Jit.mir_size;
      acc.spill_instrs <-
        acc.spill_instrs + fr.Pvjit.Jit.ra.Pvjit.Regalloc.spill_instrs;
      match fr.Pvjit.Jit.annot_status with
      | Pvjit.Annot_check.Invalid _ ->
        acc.annot_rejected <- acc.annot_rejected + 1
      | _ -> ())
    report.Pvjit.Jit.funcs

let tid_program = 1
let tid_online = 2
let tid_engine = 3

(** Frontend -> offline -> distribute, then online on every machine,
    over the programs in a seeded order.  [spans = None] times the
    public [Core.Splitc] entry points; with spans, the same work is
    replayed one layer call at a time. *)
let pipeline_round acc (env : env) (spans : Spans.t option) =
  Pvserve.Load.shuffle env.order env.programs;
  Array.iter
    (fun p ->
      let offline () =
        match p.source with
        | Kernel k -> Core.Splitc.offline ~mode:env.mode (frontend k)
        | Gen prog -> Core.Splitc.offline ~mode:env.mode prog
      in
      let bc =
        match spans with
        | None ->
          let bc, ns = timed (fun () -> Core.Splitc.distribute (offline ())) in
          Keyed.add acc.offline_ms p.id (ns /. 1e6);
          acc.plain_ns <- acc.plain_ns +. ns;
          bc
        | Some sp ->
          Spans.root sp ~tid:tid_program ~id:p.id "program" (fun tr ->
              let layer name f = Spans.layer tr ~tid:tid_program name f in
              let prog =
                match p.source with
                | Kernel k -> layer "minic.frontend" (fun () -> frontend k)
                | Gen prog -> prog
              in
              let off =
                layer "pvopt.offline" (fun () ->
                    Core.Splitc.offline ~mode:env.mode prog)
              in
              acc.offline_units <-
                acc.offline_units
                + Pvir.Account.total off.Core.Splitc.offline_work;
              let bc =
                layer "pvir.encode" (fun () ->
                    Pvir.Serial.encode off.Core.Splitc.prog)
              in
              (match p.source with
              | Kernel _ when not acc.counted ->
                List.iter
                  (fun (pass, n) -> bump_int acc.offline_work pass n)
                  (Pvir.Account.by_pass off.Core.Splitc.offline_work);
                acc.bytecode_bytes <- acc.bytecode_bytes + String.length bc
              | _ -> ());
              bc)
      in
      List.iter
        (fun (m : Pvmach.Machine.t) ->
          match spans with
          | None ->
            let on, ns =
              timed (fun () ->
                  Core.Splitc.online ~mode:env.mode ~machine:m bc)
            in
            Keyed.add acc.online_us (p.id, m.Pvmach.Machine.name) (ns /. 1e3);
            acc.plain_ns <- acc.plain_ns +. ns;
            check_compiled acc p m on.Core.Splitc.sim on.Core.Splitc.img
          | Some sp ->
            let account = Pvir.Account.create () in
            let prog, img, sim, report =
              Spans.root sp ~tid:tid_online
                ~id:(p.id ^ "@" ^ m.Pvmach.Machine.name) "online" (fun tr ->
                  let layer name f = Spans.layer tr ~tid:tid_online name f in
                  let prog =
                    layer "pvir.decode" (fun () -> Pvir.Serial.decode bc)
                  in
                  let img =
                    layer "pvvm.image_load" (fun () ->
                        let a0 = alloc_words () in
                        let img = Pvvm.Image.load prog in
                        Samples.add acc.load_alloc (alloc_words () -. a0);
                        img)
                  in
                  let sim, report =
                    layer "pvjit.compile" (fun () ->
                        Pvjit.Jit.compile_program ~account ~machine:m
                          ~hints:(hints env.mode) img)
                  in
                  (prog, img, sim, report))
            in
            (* the verification Image.load contains, measured on its own
               so the load's self time can exclude it *)
            let (), vns = timed (fun () -> Pvir.Verify.program prog) in
            Samples.add acc.verify_ns vns;
            (match p.source with
            | Kernel _ when not acc.counted ->
              List.iter
                (fun (pass, n) -> bump_int acc.jit_work pass n)
                (Pvir.Account.by_pass account);
              count_jit acc report
            | _ -> ());
            check_compiled acc p m sim img)
        machines)
    env.programs;
  if spans <> None then acc.counted <- true

(** Each kernel [engine_reps] times on each engine, inputs refilled and
    counters zeroed before every run (untimed), every run checked. *)
let engine_round acc (env : env) (spans : Spans.t option) =
  List.iter
    (fun s ->
      let name = s.k.Pvkernels.Kernels.name in
      let entry = s.k.Pvkernels.Kernels.entry in
      let robs, rcycles, rinstrs =
        match Hashtbl.find acc.refs name with
        | Kernel_ref (o, c, i) -> (o, c, i)
        | Gen_ref _ -> assert false
      in
      let sim_cycles =
        Hashtbl.find acc.cycles (name, Pvmach.Machine.x86ish.Pvmach.Machine.name)
      in
      (* an AOT engine that would fall back to threaded is a failure,
         not AOT time; the status call also re-primes the per-image memo *)
      let aot_ready =
        match Pvaot.interp_status s.it_aot with Ok _ -> true | Error _ -> false
      in
      for _ = 1 to engine_reps do
        List.iter
          (fun e ->
            let run () =
              match e with
              | Threaded -> Pvvm.Interp.run s.it_th entry s.args
              | Aot -> Pvvm.Interp.run s.it_aot entry s.args
              | Sim -> Pvvm.Sim.run s.sim entry s.args
            in
            (match e with
            | Threaded -> reset_interp s.it_th
            | Aot -> reset_interp s.it_aot
            | Sim -> reset_sim s.sim s.sim_img);
            let result, t =
              match spans with
              | None -> timed run
              | Some sp ->
                Spans.root sp ~tid:tid_engine
                  ~id:(name ^ "/" ^ engine_name e) "engine-run" (fun tr ->
                    Spans.layer tr ~tid:tid_engine
                      (match e with
                      | Threaded -> "pvvm.interp"
                      | Aot -> "pvaot.run"
                      | Sim -> "pvvm.sim")
                      (fun () -> timed run))
            in
            let img, printed, cycles, ins =
              match e with
              | Threaded | Aot ->
                let it = if e = Threaded then s.it_th else s.it_aot in
                ( it.Pvvm.Interp.img,
                  Pvvm.Interp.output it,
                  it.Pvvm.Interp.stats.Pvvm.Interp.cycles,
                  it.Pvvm.Interp.stats.Pvvm.Interp.instrs )
              | Sim ->
                ( s.sim_img,
                  Pvvm.Sim.output s.sim,
                  s.sim.Pvvm.Sim.stats.Pvvm.Sim.cycles,
                  s.sim.Pvvm.Sim.stats.Pvvm.Sim.instrs )
            in
            let want_cycles, want_instrs =
              match e with
              | Threaded | Aot -> (rcycles, rinstrs)
              | Sim -> (sim_cycles, s.sim_instrs)
            in
            let ok =
              (e <> Aot || aot_ready)
              && Pvkernels.Harness.observation_equal robs
                   {
                     Pvkernels.Harness.result;
                     globals = Pvkernels.Harness.observe_globals img;
                     printed;
                   }
              && Int64.equal cycles want_cycles
              && Int64.equal ins want_instrs
            in
            Tally.check acc.tally ok (fun () ->
                Printf.sprintf
                  "%s on %s: result/output/cycles/instrs disagree (cycles %Ld \
                   want %Ld, instrs %Ld want %Ld%s)"
                  name (engine_name e) cycles want_cycles ins want_instrs
                  (if e = Aot && not aot_ready then ", fell back to threaded"
                   else ""));
            let ins = Int64.to_float ins in
            Hashtbl.replace acc.run_instrs (e, name) ins;
            match spans with
            | None ->
              Keyed.add acc.run_ns (e, name) t;
              acc.plain_ns <- acc.plain_ns +. t
            | Some _ ->
              bump_float acc.engine_ns (e, name) t;
              bump_float acc.engine_instrs (e, name) ins)
          [ Threaded; Aot; Sim ]
      done)
    env.slots

let new_acc refs =
  {
    tally = Tally.create ();
    refs;
    offline_ms = Keyed.create ();
    online_us = Keyed.create ();
    cycles = Hashtbl.create 128;
    run_ns = Keyed.create ();
    run_instrs = Hashtbl.create 64;
    plain_ns = 0.0;
    verify_ns = Samples.create ();
    load_alloc = Samples.create ();
    offline_work = Hashtbl.create 16;
    jit_work = Hashtbl.create 16;
    offline_units = 0;
    bytecode_bytes = 0;
    mir_instrs = 0;
    spill_instrs = 0;
    annot_rejected = 0;
    counted = false;
    engine_ns = Hashtbl.create 64;
    engine_instrs = Hashtbl.create 64;
  }

(* ---------------- runs ---------------- *)

let kernel_cycles acc =
  List.filter_map
    (fun ((id, _), c) ->
      if Pvkernels.Kernels.find id <> None then Some (Int64.to_float c)
      else None)
    (List.of_seq (Hashtbl.to_seq acc.cycles))

let until_deadline seconds body =
  let stop = deadline_stop seconds and rounds = ref 0 in
  while not (stop ()) do
    body ();
    incr rounds
  done;
  !rounds

(** Untimed references, then pipeline and engine rounds for [seconds];
    the pipeline's end-to-end metrics. *)
let run_plain (env : env) ~seconds : result =
  let acc = new_acc (references env) in
  Tally.check acc.tally (env.fallbacks = 0) (fun () ->
      Printf.sprintf "%d AOT plugin builds fell back" env.fallbacks);
  let rounds =
    until_deadline seconds (fun () ->
        pipeline_round acc env None;
        engine_round acc env None)
  in
  let online = key_mins acc.online_us in
  (* guest instructions over the summed per-kernel best run times *)
  let mips e =
    let ins, ns =
      List.fold_left
        (fun (ins, ns) (k : Pvkernels.Kernels.t) ->
          let key = (e, k.Pvkernels.Kernels.name) in
          ( ins +. Hashtbl.find acc.run_instrs key,
            ns +. Samples.min (Hashtbl.find acc.run_ns key) ))
        (0.0, 0.0) Pvkernels.Kernels.all
    in
    ins /. ns *. 1e3
  in
  Printf.printf
    "pipeline (%s): %d rounds over %d programs x %d machines; offline \
     samples %d, online samples %d; AOT builds %.3f s\n"
    (Core.Splitc.mode_name env.mode) rounds (Array.length env.programs) (List.length machines)
    (Keyed.count acc.offline_ms) (Keyed.count acc.online_us) env.build_s;
  {
    attempted = acc.tally.attempted;
    failed = acc.tally.failed;
    metrics =
      [
        metric "offline_ms_p50" "ms" (median (key_mins acc.offline_ms));
        metric "online_us_p50" "us" (quantile online 0.50);
        metric "online_us_p90" "us" (quantile online 0.90);
        metric "code_cycles_geomean" "cycles" (geomean (kernel_cycles acc));
        metric "interp_mips" "Minstr/s" (mips Threaded);
        metric "aot_mips" "Minstr/s" (mips Aot);
        metric "sim_mips" "Minstr/s" (mips Sim);
      ];
  }

(** The traced pipeline: plain and traced rounds alternate; per-layer
    metrics, and the spans for the run's [layer_coverage]. *)
let run_traced (env : env) ~seconds ~trace_path : result * Spans.t =
  let acc = new_acc (references env) in
  Tally.check acc.tally (env.fallbacks = 0) (fun () ->
      Printf.sprintf "%d AOT plugin builds fell back" env.fallbacks);
  let spans = Spans.create () in
  (* plain and traced rounds alternate which goes first, so neither
     systematically inherits the other's garbage *)
  let flip = ref false in
  let rounds =
    until_deadline seconds (fun () ->
        let both round =
          if !flip then (round (Some spans); round None)
          else (round None; round (Some spans))
        in
        both (pipeline_round acc env);
        both (engine_round acc env);
        flip := not !flip)
  in
  (match Spans.export_and_validate spans trace_path with
  | Ok nev ->
    Printf.printf "pipeline: chrome trace %s validated (%d events)\n"
      trace_path nev;
    Tally.pass acc.tally
  | Error e ->
    Printf.printf "pipeline: chrome trace INVALID: %s\n" e;
    Tally.check acc.tally false (fun () -> "chrome trace validation: " ^ e));
  let unknown tbl known =
    Hashtbl.iter
      (fun pass _ ->
        if not (List.mem pass known) then
          Printf.printf "pipeline: unlisted pass %s\n" pass)
      tbl
  in
  unknown acc.offline_work offline_passes;
  unknown acc.jit_work jit_phases;
  let s = Spans.self_us spans in
  (* the load's self time without the verification it contains *)
  let image_load_us =
    s "pvvm.image_load"
    -. (Samples.sum acc.verify_ns
       /. float_of_int (Spans.calls spans "pvvm.image_load")
       /. 1e3)
  in
  let work prefix tbl names =
    List.map
      (fun pass ->
        let short =
          if String.length pass > 4 && String.sub pass 0 4 = "jit." then
            String.sub pass 4 (String.length pass - 4)
          else pass
        in
        metric (prefix ^ short) "units"
          (float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl pass))))
      names
  in
  let per_kernel e prefix =
    List.map
      (fun (k : Pvkernels.Kernels.t) ->
        let name = k.Pvkernels.Kernels.name in
        metric (prefix ^ name) "ns"
          (Hashtbl.find acc.engine_ns (e, name)
          /. Hashtbl.find acc.engine_instrs (e, name)))
      Pvkernels.Kernels.all
  in
  Printf.printf
    "pipeline traced: %d round pairs; %d traced roots; plain %.3f s vs \
     traced %.3f s of timed work\n"
    rounds spans.Spans.roots (acc.plain_ns /. 1e9)
    (spans.Spans.root_ns /. 1e9);
  ( {
    attempted = acc.tally.attempted;
    failed = acc.tally.failed;
    metrics =
      [
        metric "minic.frontend_us" "us" (s "minic.frontend");
        metric "pvopt.offline_us" "us" (s "pvopt.offline");
        metric "pvopt.ns_per_work_unit" "ns"
          (Hashtbl.find spans.Spans.self_ns "pvopt.offline"
          /. float_of_int acc.offline_units);
      ]
      @ work "pvopt.work." acc.offline_work offline_passes
      @ [
          metric "pvir.encode_us" "us" (s "pvir.encode");
          metric "pvir.decode_us" "us" (s "pvir.decode");
          metric "pvir.verify_us" "us" (Samples.mean acc.verify_ns /. 1e3);
          metric "pvir.bytecode_bytes" "bytes" (float_of_int acc.bytecode_bytes);
          metric "pvvm.image_load_us" "us" image_load_us;
          metric "pvvm.image_load_alloc_words" "words"
            (Samples.mean acc.load_alloc);
          metric "pvjit.compile_us" "us" (s "pvjit.compile");
        ]
      @ work "pvjit.work." acc.jit_work jit_phases
      @ [
          metric "pvjit.mir_instrs" "count" (float_of_int acc.mir_instrs);
          metric "pvjit.spill_instrs" "count" (float_of_int acc.spill_instrs);
          metric "pvjit.annot_rejected" "count"
            (float_of_int acc.annot_rejected);
        ]
      @ per_kernel Threaded "pvvm.interp_ns_per_instr."
      @ per_kernel Sim "pvvm.sim_ns_per_instr."
      @ per_kernel Aot "pvaot.aot_ns_per_instr."
      @ [
          metric "pvaot.build_s" "s" env.build_s;
          metric "pvaot.fallbacks" "count" (float_of_int env.fallbacks);
          metric "trace_overhead" "ratio" (spans.Spans.root_ns /. acc.plain_ns);
        ];
  },
    spans )
