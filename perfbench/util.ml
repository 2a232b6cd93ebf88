(** Shared measurement plumbing for the benchmark: the monotonic clock,
    sample statistics, process counters, the result record every workload
    returns, and the span recorder of the traced run. *)

(* ---------------- clock ---------------- *)

(** Nanoseconds from CLOCK_MONOTONIC (bechamel's stub).  Every timestamp
    in the benchmark comes from here: wall-clock time can jump, and
    [Sys.time] is CPU time summed over every Domain. *)
let now_ns () : int64 = Monotonic_clock.now ()

let ns_since (t0 : int64) : float = Int64.to_float (Int64.sub (now_ns ()) t0)

(** [timed f] is [(f (), elapsed nanoseconds)]. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, ns_since t0)

(** A predicate that turns true [seconds] from now. *)
let deadline_stop seconds =
  let deadline = Int64.add (now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  fun () -> Int64.compare (now_ns ()) deadline >= 0

(* ---------------- samples ---------------- *)

(** Growable float sample buffer. *)
module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.data then begin
      let d = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 d 0 t.n;
      t.data <- d
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let to_array t = Array.sub t.data 0 t.n
  let sum t = Array.fold_left ( +. ) 0.0 (to_array t)
  let mean t = if t.n = 0 then nan else sum t /. float_of_int t.n
  let min t = Array.fold_left Float.min infinity (to_array t)
end

(** Samples grouped by key: one operation repeated across rounds. *)
module Keyed = struct
  type 'k t = ('k, Samples.t) Hashtbl.t

  let create () : 'k t = Hashtbl.create 64

  let add (t : 'k t) k x =
    let sm =
      match Hashtbl.find_opt t k with
      | Some sm -> sm
      | None ->
        let sm = Samples.create () in
        Hashtbl.replace t k sm;
        sm
    in
    Samples.add sm x

  let count (t : 'k t) = Hashtbl.fold (fun _ sm n -> n + Samples.length sm) t 0
end

(** Quantile [q] of [xs] by linear interpolation between closest ranks
    (the same rule as Python's [statistics.quantiles(method='inclusive')]). *)
let quantile (xs : float array) (q : float) : float =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile xs 0.5

(** Each key's best (smallest) sample over its repetitions in the run.
    Host noise on a shared machine only ever adds time, in bursts that
    can cover most of a second, so the fastest repetition of one
    operation is the steadiest estimate of its cost; quantiles are then
    taken across keys. *)
let key_mins (t : 'k Keyed.t) : float array =
  Array.of_seq
    (Seq.map (fun (_, sm) -> Samples.min sm) (Hashtbl.to_seq t))

let geomean (xs : float list) : float =
  match xs with
  | [] -> nan
  | _ ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

(* ---------------- process counters ---------------- *)

(** The value of field [key] in [/proc/self/status], trimmed. *)
let status_field key : string option =
  let ic = open_in "/proc/self/status" in
  let prefix = key ^ ":" in
  let n = String.length prefix in
  let rec scan () =
    match input_line ic with
    | line when String.length line > n && String.sub line 0 n = prefix ->
      Some (String.trim (String.sub line n (String.length line - n)))
    | _ -> scan ()
    | exception End_of_file -> None
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(** Peak resident set size of this process in MiB ([VmHWM]). *)
let peak_rss_mb () : float =
  match status_field "VmHWM" with
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> nan

(** Run a full collection, then reset [VmHWM] to the current resident set, so
    that a later {!peak_rss_mb} leaves out what earlier phases of the run
    (the repeated set-ups) touched and freed.  Logs it when the kernel
    refuses the reset. *)
let reset_peak_rss () =
  Gc.compact ();
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc "5";
        flush oc)
  with Sys_error _ ->
    print_endline "peak_rss_mb: could not reset VmHWM; it includes set-up"

(** CPUs this process may run on ([Cpus_allowed_list], e.g. "0-1,4");
    the Domain count the runtime recommends when the field is absent. *)
let cpus_allowed () : int =
  match status_field "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some v ->
    List.fold_left
      (fun n range ->
        match String.split_on_char '-' range with
        | [ lo; hi ] -> n + int_of_string hi - int_of_string lo + 1
        | _ -> n + 1)
      0 (String.split_on_char ',' v)

(** CPU time the hypervisor took from this machine's vCPUs so far, in
    seconds ([steal] in [/proc/stat]); logged so a run slowed by a busy
    host can be told apart from a slow program. *)
let steal_s () : float =
  let ic = open_in "/proc/stat" in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      Scanf.sscanf (input_line ic) "cpu %_d %_d %_d %_d %_d %_d %_d %d"
        (fun ticks -> float_of_int ticks /. 100.0))

(** Words allocated by this Domain so far (minor + direct major,
    promotions not double-counted). *)
let alloc_words () : float =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ---------------- workload result ---------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
}

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(** Correctness tally: every checked operation is one attempt; a wrong
    output is one failure, reported on stderr with its reason (first
    few only). *)
module Tally = struct
  type t = { mutable attempted : int; mutable failed : int }

  let create () = { attempted = 0; failed = 0 }

  let pass t = t.attempted <- t.attempted + 1

  let check t ok what =
    t.attempted <- t.attempted + 1;
    if not ok then begin
      t.failed <- t.failed + 1;
      if t.failed <= 10 then Printf.eprintf "perfbench: FAILED %s\n%!" (what ())
    end
end

(* ---------------- spans of the traced run ---------------- *)

(** Span recorder for the traced run.

    Every traced operation (one served request, one program's offline
    compile, one online compile, one engine run) is a {e root} span keyed
    by its id, around {e layer} spans wrapping the public calls the
    benchmark makes into each library.  Each root is recorded into its
    own small {!Pvtrace.Trace} whose clock is {!now_ns}, so self times
    are computed exactly and at once; the first [export_cap] roots are then
    copied, in microseconds, into one export trace that is rendered as
    Chrome JSON and validated at the end of the run.

    A layer's self time is its span minus its child spans.  The root's
    own self time is the benchmark's glue between layer calls, so
    [layer_coverage] — the sum of layer self times over the sum of root
    durations — says how much of the traced time the layer rows
    explain. *)
module Spans = struct
  let export_cap = 3000

  type t = {
    export : Pvtrace.Trace.t;
    mutable exported : int;
    mutable marked : int;
    self_ns : (string, float) Hashtbl.t;
    dur_ns : (string, float) Hashtbl.t;
    calls : (string, int) Hashtbl.t;
    mutable root_ns : float;
    mutable root_self_ns : float;
    mutable roots : int;
  }

  let create () =
    {
      export = Pvtrace.Trace.create ();
      exported = 0;
      marked = 0;
      self_ns = Hashtbl.create 32;
      dur_ns = Hashtbl.create 32;
      calls = Hashtbl.create 32;
      root_ns = 0.0;
      root_self_ns = 0.0;
      roots = 0;
    }

  let bump tbl k x =
    Hashtbl.replace tbl k (x +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

  let us ns = Int64.div ns 1000L

  (* Replay the root's events: per-span duration and self time. *)
  let absorb t (tr : Pvtrace.Trace.t) =
    let stack = ref [] in
    let events = Pvtrace.Trace.events tr in
    List.iter
      (fun (e : Pvtrace.Trace.event) ->
        match e.Pvtrace.Trace.ph with
        | Pvtrace.Trace.B -> stack := (e, ref 0.0) :: !stack
        | Pvtrace.Trace.E -> (
          match !stack with
          | (b, children) :: rest ->
            stack := rest;
            let dur = Int64.to_float (Int64.sub e.ts b.Pvtrace.Trace.ts) in
            let self = dur -. !children in
            (match rest with
            | (_, parent_children) :: _ ->
              parent_children := !parent_children +. dur;
              bump t.self_ns e.name self;
              bump t.dur_ns e.name dur;
              Hashtbl.replace t.calls e.name
                (1 + Option.value ~default:0 (Hashtbl.find_opt t.calls e.name))
            | [] ->
              t.root_ns <- t.root_ns +. dur;
              t.root_self_ns <- t.root_self_ns +. self;
              t.roots <- t.roots + 1)
          | [] -> ())
        | _ -> ())
      events;
    if t.exported < export_cap then begin
      t.exported <- t.exported + 1;
      List.iter
        (fun (e : Pvtrace.Trace.event) ->
          let ts = us e.Pvtrace.Trace.ts and tid = e.tid and args = e.args in
          match e.ph with
          | Pvtrace.Trace.B ->
            Pvtrace.Trace.begin_at t.export ~ts ~tid ~args ~cat:e.cat e.name
          | Pvtrace.Trace.E ->
            Pvtrace.Trace.end_at t.export ~ts ~tid ~args e.name
          | _ -> ())
        events
    end

  (** [root t ~tid ~id name f] runs [f tr] inside root span [name]; [f]
      wraps its layer calls in {!layer}. *)
  let root t ~tid ~id name (f : Pvtrace.Trace.t option -> 'a) : 'a =
    let tr = Pvtrace.Trace.create ~clock:now_ns () in
    let v =
      Pvtrace.Trace.with_span (Some tr) ~tid ~args:[ ("id", id) ] ~cat:"op"
        name (fun () -> f (Some tr))
    in
    absorb t tr;
    v

  (** A layer call inside a root.  Layer spans sit on the root's track. *)
  let layer (tr : Pvtrace.Trace.t option) ~tid name f =
    Pvtrace.Trace.with_span tr ~tid ~cat:"layer" name f

  (** A span recorded straight into the export trace (no self-time
      accounting), e.g. a request's submit-to-reply interval on its
      client's track. *)
  let mark_begin t ~tid ~id name =
    if t.marked < export_cap then begin
      t.marked <- t.marked + 1;
      Pvtrace.Trace.begin_at t.export ~ts:(us (now_ns ())) ~tid
        ~args:[ ("id", id) ] ~cat:"request" name
    end

  let mark_end t ~tid name =
    if Pvtrace.Trace.open_depth t.export ~tid () > 0 then
      Pvtrace.Trace.end_at t.export ~ts:(us (now_ns ())) ~tid name

  let calls t name = Option.value ~default:0 (Hashtbl.find_opt t.calls name)

  (** Mean self time of layer [name] per call, in microseconds. *)
  let self_us t name =
    match calls t name with
    | 0 -> nan
    | n ->
      Option.value ~default:0.0 (Hashtbl.find_opt t.self_ns name)
      /. float_of_int n /. 1000.0

  (** Mean inclusive duration of span [name] per call, microseconds. *)
  let dur_us t name =
    match calls t name with
    | 0 -> nan
    | n ->
      Option.value ~default:0.0 (Hashtbl.find_opt t.dur_ns name)
      /. float_of_int n /. 1000.0

  (** Layer self time over root time, summed over the recorders of every
      phase of a run. *)
  let coverage ts =
    let sum f = List.fold_left (fun acc t -> acc +. f t) 0.0 ts in
    let root = sum (fun t -> t.root_ns) in
    if root = 0.0 then nan else (root -. sum (fun t -> t.root_self_ns)) /. root

  (** Render the export trace as Chrome JSON, write it to [path] and
      validate it; [Error] names the first structural problem. *)
  let export_and_validate t path : (int, string) Stdlib.result =
    let json = Pvtrace.Export.chrome_json t.export in
    let oc = open_out_bin path in
    output_string oc json;
    close_out oc;
    Pvtrace.Export.validate_chrome json
end
