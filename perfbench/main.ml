(** Benchmark entry point: one workload per invocation, end-to-end metrics
    untraced ([--trace 0]) or per-layer metrics from a traced run
    ([--trace 1]).  The last line of standard output is the JSON
    result; everything before it is a human-readable log.  Usually
    launched through [perfbench/run.py], which builds this executable
    first; see [perfbench/README.md].

    Every workload runs the same two phases, so that each reports every
    metric: the pipeline phase ({!Compile_run}, two thirds of the
    measuring time) in the workload's compilation mode, then the service
    phase ({!Serve}, the rest). *)

let usage =
  "main.exe --workload split|deferred --seed N --seconds S --trace 0|1 \
   [--run-dir DIR] [--trace-prefix P]"

(* set-ups per untraced run; [setup_s] is their median *)
let setup_reps = 5

(* share of the measuring time that goes to the service phase *)
let serve_share = 1.0 /. 3.0

let mode_of_workload = function
  | "split" -> Some Core.Splitc.Split
  | "deferred" -> Some Core.Splitc.Traditional_deferred
  | _ -> None

let aot_dir run_dir k =
  Filename.concat run_dir (Printf.sprintf "aot-%d" k)

(** Run the set-up [f k] for k = 1..[reps], each from scratch, [discard]
    every result but the last and keep that; the set-up time is the
    median. *)
let setup_repeated ~reps ~discard f =
  let rec go k times =
    let v, ns = Util.timed (fun () -> f k) in
    let times = (ns /. 1e9) :: times in
    if k >= reps then (v, Util.median (Array.of_list times))
    else begin
      discard v;
      go (k + 1) times
    end
  in
  go 1 []

let combine (a : Util.result) (b : Util.result) metrics : Util.result =
  { attempted = a.attempted + b.attempted; failed = a.failed + b.failed; metrics }

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and run_dir = ref "." in
  let trace_prefix = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 1 for the traced per-layer run");
      ("--run-dir", Arg.Set_string run_dir, " scratch directory of this run");
      ( "--trace-prefix",
        Arg.Set_string trace_prefix,
        " Chrome traces of a traced run go to P-serve.json and \
         P-pipeline.json" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let mode =
    match mode_of_workload !workload with
    | Some m -> m
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  in
  (* nproc - 1 service workers next to the generating Domain, at least 1 *)
  let workers = max 1 (Util.cpus_allowed () - 1) in
  let traced = !trace = 1 in
  let trace_prefix =
    if !trace_prefix <> "" then !trace_prefix
    else Filename.concat !run_dir ("trace-" ^ !workload)
  in
  let serve_s = !seconds *. serve_share in
  let pipe_s = !seconds -. serve_s in
  Printf.printf
    "perfbench workload=%s (%s mode) seed=%d seconds=%g (service %g, \
     pipeline %g) trace=%d workers=%d setup-reps=%d\n%!"
    !workload (Core.Splitc.mode_name mode) !seed !seconds serve_s pipe_s
    !trace workers setup_reps;
  Pvaot.install ();
  let steal0 = Util.steal_s () in
  let result =
    if traced then begin
      let pipe =
        Compile_run.setup ~mode ~seed:!seed ~aot_dir:(aot_dir !run_dir 0)
      in
      let rp, spans_p =
        Compile_run.run_traced pipe ~seconds:pipe_s
          ~trace_path:(trace_prefix ^ "-pipeline.json")
      in
      let rs, spans_s =
        Serve.run_traced (Serve.setup ~seed:!seed ~workers) ~seconds:serve_s
          ~trace_path:(trace_prefix ^ "-serve.json")
      in
      combine rs rp
        (rs.metrics @ rp.metrics
        @ [
            Util.metric "layer_coverage" "ratio"
              (Util.Spans.coverage [ spans_s; spans_p ]);
          ])
    end
    else begin
      (* Each phase sets up just before it runs, and setup_s is the sum
         of the two medians.  The service's set-ups run on two Domains
         and leave the heap in a state that moved the pipeline's peak
         resident set by a sixth from run to run, so they come after the
         pipeline phase, whose peak is peak_rss_mb.  The service phase's
         own peak follows the collector's pacing of its garbage across
         both Domains (0.15 quartile distance over median from seed to
         seed) and is logged only. *)
      let pipe, pipe_setup_s =
        setup_repeated ~reps:setup_reps ~discard:ignore (fun k ->
            Compile_run.setup ~mode ~seed:!seed ~aot_dir:(aot_dir !run_dir k))
      in
      Util.reset_peak_rss ();
      let rp = Compile_run.run_plain pipe ~seconds:pipe_s in
      let rss = Util.peak_rss_mb () in
      let serve, serve_setup_s =
        setup_repeated ~reps:setup_reps
          ~discard:(fun (e : Serve.env) -> Pvserve.Service.shutdown e.svc)
          (fun _ -> Serve.setup ~seed:!seed ~workers)
      in
      Util.reset_peak_rss ();
      let rs = Serve.run_plain serve ~seconds:serve_s in
      Printf.printf
        "set-up: pipeline %.3f s, service %.3f s (medians); service phase \
         peak resident set (logged, not gated): %.1f MiB\n"
        pipe_setup_s serve_setup_s (Util.peak_rss_mb ());
      combine rs rp
        (Util.metric "setup_s" "s" (pipe_setup_s +. serve_setup_s)
        :: Util.metric "peak_rss_mb" "MiB" rss
        :: rp.metrics)
    end
  in
  Printf.printf "host steal time during the run: %.2f s\n"
    (Util.steal_s () -. steal0);
  List.iter
    (fun (m : Util.metric) ->
      Printf.printf "  %-40s %16.6g %s\n" m.m_name m.m_value m.m_unit)
    result.metrics;
  let finite = List.for_all (fun (m : Util.metric) -> Float.is_finite m.m_value)
      result.metrics in
  if not finite then prerr_endline "perfbench: a metric is not a finite number";
  let correct = result.failed = 0 && finite in
  let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null" in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct result.attempted result.failed
    (String.concat ", "
       (List.map
          (fun (m : Util.metric) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.m_name
              (num m.m_value) m.m_unit)
          result.metrics));
  exit (if correct then 0 else 1)
