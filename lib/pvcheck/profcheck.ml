(** Differential oracle for the run observers: the sampling profiler
    and the exhaustive block-visit profile.

    Two laws, checked per generated program:

    - {e zero observer effect}: attaching a sampler, alone or together
      with an exhaustive {!Pvvm.Profile}, must not change anything
      portable — result, intrinsic output, final globals — nor any
      accounting counter (cycles, instructions, calls).  The safepoint
      reads the cycle clock, it never charges it.  Checked on all three
      interpreter engines against an unprofiled run of the same engine.
    - {e cross-engine agreement}: the three engines take the {e same}
      samples and count the {e same} block visits.  Both observers sit
      on the block-entry safepoint, which is part of the portable
      semantics, so the distilled {!Pvir.Profdata} encodings of all six
      observed runs must be byte-identical (attaching the profile must
      not move a sample either), and so must the visit listings of the
      three runs with a profile.  One stray cycle or one skipped poll
      anywhere shows up as a byte diff.

    Shapes mirror {!Oracle}: fresh image per run, same fuel ceiling,
    findings as path/what/detail mismatches. *)

open Pvir

(** Deliberately far from the engines' default (32768) and small relative
    to generated-program cycle counts, so corpus programs take many
    samples and the cross-engine byte comparison has real content. *)
let default_period = 64L

type profiled_run = {
  probs : Oracle.obs;
  pcycles : int64;
  pinstrs : int64;
  pcalls : int;
  pdata : string;  (** canonical [Profdata] encoding of the sample set *)
  psamples : int;
  pvisits : string;
      (** the exhaustive profile's visit counts, one [fn:bN=count] line
          per visited block in program order; empty without a profile *)
}

let visit_listing (p : Pvvm.Profile.t) (prog : Prog.t) : string =
  let b = Buffer.create 256 in
  List.iter
    (fun (fn : Func.t) ->
      List.iter
        (fun (blk : Func.block) ->
          let n = Pvvm.Profile.block_count p fn.Func.name blk.Func.label in
          if n > 0 then
            Printf.bprintf b "%s:b%d=%d\n" fn.Func.name blk.Func.label n)
        fn.Func.blocks)
    prog.Prog.funcs;
  Buffer.contents b

let run_profiled ?(period = default_period) ?(exhaustive = false)
    (prog : Prog.t) (engine : Pvvm.Interp.engine) : profiled_run =
  let img = Pvvm.Image.load (Prog.copy prog) in
  let sampler = Pvprof.create ~period () in
  let profile = if exhaustive then Some (Pvvm.Profile.create ()) else None in
  let it =
    Pvvm.Interp.create ~fuel:Oracle.fuel ~engine ~sampler ?profile img
  in
  let outcome =
    match Pvvm.Interp.run it "main" [] with
    | v -> Oracle.Finished v
    | exception Pvvm.Interp.Trap m -> Oracle.Trapped m
  in
  let st = it.Pvvm.Interp.stats in
  {
    probs =
      {
        Oracle.outcome;
        output = Pvvm.Interp.output it;
        globals = Oracle.read_globals img;
      };
    pcycles = st.Pvvm.Interp.cycles;
    pinstrs = st.Pvvm.Interp.instrs;
    pcalls = st.Pvvm.Interp.calls;
    pdata = Profdata.encode (Pvprof.to_data sampler);
    psamples = Pvprof.samples_taken sampler;
    pvisits =
      (match profile with
      | Some p -> visit_listing p img.Pvvm.Image.prog
      | None -> "");
  }

let engines : (string * Pvvm.Interp.engine) list =
  [
    ("profiled-tw", Pvvm.Interp.Tree_walk);
    ("profiled-th", Pvvm.Interp.Threaded);
    ("profiled-aot", Pvvm.Interp.Aot);
  ]

(* the first run of [runs] is the reference; every other run whose
   [field] differs is a [what] mismatch *)
let disagreements ~what ~describe field runs : Oracle.mismatch list =
  match runs with
  | [] -> []
  | (ref_path, ref_run) :: rest ->
    List.filter_map
      (fun (path, run) ->
        if String.equal (field ref_run) (field run) then None
        else
          Some
            {
              Oracle.path;
              what;
              detail =
                Printf.sprintf "%s %s, %s %s and they differ" ref_path
                  (describe ref_run) path (describe run);
            })
      rest

(** Run the observed-vs-unobserved matrix on [prog].  Returns the
    mismatches (empty = all laws hold). *)
let check ?(period = default_period) (prog : Prog.t) : Oracle.mismatch list =
  Pvaot.install ();
  let ms = ref [] in
  let add l = ms := !ms @ l in
  let observed =
    List.concat_map
      (fun (path, engine) ->
        let plain = Oracle.run_interp prog engine in
        List.map
          (fun exhaustive ->
            let path = if exhaustive then path ^ "+visits" else path in
            let prof = run_profiled ~period ~exhaustive prog engine in
            add (Oracle.compare_obs ~path plain.Oracle.iobs prof.probs);
            if
              plain.Oracle.icycles <> prof.pcycles
              || plain.Oracle.iinstrs <> prof.pinstrs
              || plain.Oracle.icalls <> prof.pcalls
            then
              add
                [
                  {
                    Oracle.path;
                    what = "observer-effect";
                    detail =
                      Printf.sprintf
                        "plain %Ld cycles/%Ld instrs/%d calls vs profiled \
                         %Ld/%Ld/%d"
                        plain.Oracle.icycles plain.Oracle.iinstrs
                        plain.Oracle.icalls prof.pcycles prof.pinstrs
                        prof.pcalls;
                  };
                ];
            (path, exhaustive, prof))
          [ false; true ])
      engines
  in
  let runs = List.map (fun (path, _, r) -> (path, r)) observed in
  add
    (disagreements ~what:"sample-stream"
       ~describe:(fun r ->
         Printf.sprintf "took %d samples (%d profile bytes)" r.psamples
           (String.length r.pdata))
       (fun r -> r.pdata)
       runs);
  add
    (disagreements ~what:"block-visits"
       ~describe:(fun r ->
         Printf.sprintf "counted %d visited blocks"
           (List.length (String.split_on_char '\n' r.pvisits) - 1))
       (fun r -> r.pvisits)
       (List.filter_map
          (fun (path, exhaustive, r) ->
            if exhaustive then Some (path, r) else None)
          observed));
  !ms

(** Property-test entry point: [run ~seed ~count] checks [count]
    generated programs starting at [seed]; returns the seeds that
    produced mismatches with their findings. *)
let run ~seed ~count : (int * Oracle.mismatch list) list =
  let bad = ref [] in
  for i = 0 to count - 1 do
    let s = seed + i in
    let prog = Gen.program ~seed:s in
    match check prog with
    | [] -> ()
    | ms -> bad := (s, ms) :: !bad
  done;
  List.rev !bad
