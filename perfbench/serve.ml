(** The service phase of every workload ("serve-churn" traffic): a fleet
    of devices asking the split-compilation service ({!Pvserve.Service})
    for compiled artifacts, with a cache that holds about half of the
    keys.  The service always compiles in split mode.

    Load model: a closed loop of [clients] devices driven from the
    generating Domain.  Each device has one request in flight and sends
    its next only after its artifact arrives, so a slow service receives
    less load.  Each device draws requests from Zipf popularity over the
    population (program corpus x machine descriptors) through the load
    generator's own {!Pvserve.Load.zipf_cumulative} and
    {!Pvserve.Load.sample_rank}; every device ranks the population by
    its own seeded {!Pvserve.Load.shuffle}, so the per-request cost does
    not hinge on which single program the seed happens to make the most
    popular.  Replies are awaited in submission order; with the
    service's FIFO queue a reply can only be observed late when it was
    coalesced behind an earlier in-flight compile. *)

open Util

let name = "service"
let zipf = 0.6

(** {!Pvcheck.Gen} programs in the corpus, generator seeds 1..n *)
let gen_programs = 40

(** artifact-cache byte budget, about half of the population's artifacts *)
let cache_budget = 192 * 1024

let clients = 16

(** the warm-up runs the request stream for [warm_rounds] x population
    requests *)
let warm_rounds = 2

type item = {
  i_name : string;
  i_bytecode : string;
  i_machine : Pvmach.Machine.t;
}

type env = {
  svc : Pvserve.Service.t;
  population : item array;
  ranking : int array array;  (** per client: popularity rank -> item *)
  cum : float array;
  rng : int64 ref;
  warm_stream : int list;  (** population indices of the warm-up, in order *)
}

let request (it : item) =
  { Pvserve.Service.bytecode = it.i_bytecode; machine = it.i_machine }

(* ---------------- the closed loop ---------------- *)

(** Run the closed loop until [stop ()] (checked before every new
    submission), calling [on_submit] as each request leaves its client
    and [on_reply] with the item, the submit and reply timestamps and
    the reply.  In-flight requests are drained before returning. *)
let closed_loop ?(on_submit = fun ~client:_ ~item:_ -> ()) env ~stop
    ~(on_reply :
       client:int -> item:int -> int64 -> int64 -> Pvserve.Service.reply -> unit)
    =
  let inflight = Queue.create () in
  let submit client =
    let i =
      env.ranking.(client).(Pvserve.Load.sample_rank env.cum env.rng)
    in
    on_submit ~client ~item:i;
    let t0 = now_ns () in
    let tk = Pvserve.Service.submit env.svc (request env.population.(i)) in
    Queue.push (client, i, t0, tk) inflight
  in
  for c = 0 to clients - 1 do
    if not (stop ()) then submit c
  done;
  while not (Queue.is_empty inflight) do
    let client, i, t0, tk = Queue.pop inflight in
    let r = Pvserve.Service.await tk in
    let t1 = now_ns () in
    on_reply ~client ~item:i t0 t1 r;
    if not (stop ()) then submit client
  done

let count_stop n =
  let k = ref 0 in
  fun () ->
    incr k;
    !k > n

(* ---------------- setup ---------------- *)

(** Corpus build, population and rankings, service start and cache
    warm-up: everything before the first measured request. *)
let setup ~seed ~workers : env =
  (* The corpus is the same on every run: with it drawn from the run's
     seed, the mean compile cost of 40 generated programs moved the
     service's throughput by 10% from seed to seed.  The seed drives
     the devices' rankings and request streams. *)
  let gen_seeds = List.init gen_programs (fun i -> i + 1) in
  let corpus = Pvserve.Load.corpus ~gen_seeds () in
  let population =
    Array.of_list
      (List.concat_map
         (fun (name, bc) ->
           List.map
             (fun m -> { i_name = name; i_bytecode = bc; i_machine = m })
             Pvmach.Machine.all)
         corpus)
  in
  let n = Array.length population in
  let rng = ref (Int64.of_int seed) in
  let ranking =
    Array.init clients (fun _ ->
        let r = Array.init n Fun.id in
        Pvserve.Load.shuffle rng r;
        r)
  in
  let cum = Pvserve.Load.zipf_cumulative ~s:zipf n in
  let svc =
    Pvserve.Service.create ~queue_capacity:(4 * clients)
      ~cache_budget ~workers ()
  in
  let env =
    { svc; population; ranking; cum; rng; warm_stream = [] }
  in
  let stream = ref [] in
  closed_loop env
    ~stop:(count_stop (warm_rounds * n))
    ~on_submit:(fun ~client:_ ~item -> stream := item :: !stream)
    ~on_reply:(fun ~client:_ ~item:_ _ _ _ -> ());
  { env with warm_stream = List.rev !stream }

(* ---------------- correctness ---------------- *)

(** Every served artifact must be byte-equal to a single-threaded
    {!Pvserve.Service.compile_artifact} of the same request, computed
    once per item before the measurement.  A reply that is physically
    the string already verified for its item (the cached artifact of a
    hit) is checked by pointer; anything else costs one string
    comparison, after the reply's timestamp.  Errors are failures. *)
type checker = {
  population : item array;
  reference : (string, string) Stdlib.result array;
  verified : string array;
  tally : Tally.t;
}

let checker (env : env) =
  {
    population = env.population;
    reference =
      Array.map
        (fun it ->
          Pvserve.Service.compile_artifact ~machine:it.i_machine
            it.i_bytecode)
        env.population;
    verified = Array.make (Array.length env.population) "";
    tally = Tally.create ();
  }

let check ck i (r : Pvserve.Service.reply) =
  match (r.Pvserve.Service.outcome, ck.reference.(i)) with
  | Ok got, _ when got == ck.verified.(i) -> Tally.pass ck.tally
  | Ok got, Ok want when String.equal got want ->
    ck.verified.(i) <- got;
    Tally.pass ck.tally
  | _ ->
    let it = ck.population.(i) in
    Tally.check ck.tally false (fun () ->
        Printf.sprintf "%s on %s: served reply differs from the reference"
          it.i_name it.i_machine.Pvmach.Machine.name)

(* ---------------- untraced run ---------------- *)

(** The closed loop for [seconds], every reply checked; the service is
    shut down at the end.  Throughput and latency are logged with their
    sample count but not reported as metrics: on a shared 2-vCPU host
    they follow the host's speed, which moved them by more than any bound
    allowed between runs minutes apart (see perfbench/README.md). *)
let run_plain (env : env) ~seconds : result =
  let ck = checker env in
  let compiles0 = Pvserve.Service.compile_count env.svc in
  let hits = ref 0 in
  let lat = Samples.create () in
  let t0 = now_ns () in
  closed_loop env ~stop:(deadline_stop seconds)
    ~on_reply:(fun ~client:_ ~item t_submit t_done r ->
      Samples.add lat (Int64.to_float (Int64.sub t_done t_submit) /. 1e3);
      if r.Pvserve.Service.origin = Pvserve.Service.Hit then incr hits;
      check ck item r);
  let wall_s = ns_since t0 /. 1e9 in
  Pvserve.Service.shutdown env.svc;
  let n = Samples.length lat and lat = Samples.to_array lat in
  Printf.printf
    "%s: %d requests in %.3f s from %d clients; hit rate %.4f; compiles %d; \
     population %d keys\n\
     %s (logged, not gated): %.1f requests/s; submit-to-reply latency p50 \
     %.0f us, p99 %.0f us over %d requests\n"
    name n wall_s clients
    (float_of_int !hits /. float_of_int (max 1 n))
    (Pvserve.Service.compile_count env.svc - compiles0)
    (Array.length env.population) name
    (float_of_int n /. wall_s) (quantile lat 0.50) (quantile lat 0.99) n;
  { attempted = ck.tally.attempted; failed = ck.tally.failed; metrics = [] }

(* ---------------- traced run ---------------- *)

let tid_replay = 11
let tid_client c = 100 + c

(** One request replayed on the generating Domain through the same
    public functions the worker calls, against a replica cache that
    sees the same request stream. *)
let replay_request spans replica ~id (it : item) =
  let machine = it.i_machine in
  let layer tr name f = Spans.layer tr ~tid:tid_replay name f in
  Spans.root spans ~tid:tid_replay ~id "request" (fun tr ->
      match
        layer tr "pvserve.decode" (fun () ->
            Pvir.Serial.decode_result it.i_bytecode)
      with
      | Error _ -> ()
      | Ok prog -> (
        let key =
          layer tr "pvserve.key" (fun () ->
              Pvserve.Key.to_string (Pvserve.Key.of_program ~machine prog))
        in
        match
          layer tr "pvserve.cache_find" (fun () ->
              Pvserve.Cache.find replica key)
        with
        | Some _ -> ()
        | None ->
          let sim, report =
            layer tr "pvserve.compile_artifact" (fun () ->
                let img =
                  layer tr "pvvm.image_load" (fun () -> Pvvm.Image.load prog)
                in
                layer tr "pvjit.compile" (fun () ->
                    Pvjit.Jit.compile_program ~machine
                      ~hints:Pvjit.Jit.Hints_annotation img))
          in
          (* the worker derives the key once more for the artifact header *)
          let artifact =
            layer tr "pvserve.render" (fun () ->
                let k =
                  layer tr "pvserve.key" (fun () ->
                      Pvserve.Key.of_program ~machine prog)
                in
                Pvserve.Service.render_artifact ~machine k sim report)
          in
          layer tr "pvserve.cache_insert" (fun () ->
              Pvserve.Cache.insert replica key artifact)))

(** Traced run: windows of plain and traced closed-loop requests
    alternate (the traced ones carry a submit-to-reply span per client
    track), and every request of a traced window is then replayed
    phase by phase, in submission order.  Per-layer times come from the
    replay; the service's own counters give hit rate, compiles,
    coalescing and evictions.  The service is shut down at the end; the
    spans are returned for the run's [layer_coverage]. *)
let run_traced (env : env) ~seconds ~trace_path : result * Spans.t =
  let ck = checker env in
  let spans = Spans.create () in
  (* the replica cache starts where the service's cache started: the
     warm-up stream is replayed into it (untraced) *)
  let replica = Pvserve.Cache.create ~budget_bytes:cache_budget () in
  List.iter
    (fun i ->
      let it = env.population.(i) in
      let key =
        Pvserve.Key.to_string
          (Pvserve.Key.of_program ~machine:it.i_machine
             (Pvir.Serial.decode it.i_bytecode))
      in
      match (Pvserve.Cache.find replica key, ck.reference.(i)) with
      | None, Ok a -> Pvserve.Cache.insert replica key a
      | _ -> ())
    env.warm_stream;
  let compiles0 = Pvserve.Service.compile_count env.svc in
  let evictions0 =
    (Pvserve.Service.cache_stats env.svc).Pvserve.Cache.s_evictions
  in
  let plain_lat = Samples.create () and traced_lat = Samples.create () in
  let replay_ns = Samples.create () and req_alloc = Samples.create () in
  let hits = ref 0 and coalesced = ref 0 and served = ref 0 in
  let record lat ~item t_submit t_done (r : Pvserve.Service.reply) =
    incr served;
    (match r.Pvserve.Service.origin with
    | Pvserve.Service.Hit -> incr hits
    | Pvserve.Service.Coalesced -> incr coalesced
    | Pvserve.Service.Compiled -> ());
    Samples.add lat (Int64.to_float (Int64.sub t_done t_submit) /. 1e3);
    check ck item r
  in
  let traced_window = 200 in
  let stop = deadline_stop seconds in
  let nreq = ref 0 in
  while not (stop ()) do
    closed_loop env ~stop:(count_stop traced_window)
      ~on_reply:(fun ~client:_ ~item t0 t1 r -> record plain_lat ~item t0 t1 r);
    let stream = ref [] in
    closed_loop env ~stop:(count_stop traced_window)
      ~on_submit:(fun ~client ~item ->
        Spans.mark_begin spans ~tid:(tid_client client)
          ~id:(string_of_int (!nreq + List.length !stream)) "request";
        stream := item :: !stream)
      ~on_reply:(fun ~client ~item t0 t1 r ->
        Spans.mark_end spans ~tid:(tid_client client) "request";
        record traced_lat ~item t0 t1 r);
    List.iter
      (fun i ->
        incr nreq;
        let a0 = alloc_words () in
        let (), ns =
          timed (fun () ->
              replay_request spans replica ~id:(string_of_int !nreq)
                env.population.(i))
        in
        Samples.add req_alloc (alloc_words () -. a0);
        Samples.add replay_ns ns)
      (List.rev !stream)
  done;
  let stats = Pvserve.Service.cache_stats env.svc in
  let compiles = Pvserve.Service.compile_count env.svc - compiles0 in
  Pvserve.Service.shutdown env.svc;
  (match Spans.export_and_validate spans trace_path with
  | Ok nev ->
    Printf.printf "%s: chrome trace %s validated (%d events)\n" name
      trace_path nev;
    Tally.pass ck.tally
  | Error e ->
    Printf.printf "%s: chrome trace INVALID: %s\n" name e;
    Tally.check ck.tally false (fun () -> "chrome trace validation: " ^ e));
  let s = Spans.self_us spans in
  let mean_lat = Samples.mean traced_lat in
  let phases_us = Samples.mean replay_ns /. 1e3 in
  Printf.printf
    "%s traced: %d requests served (%d replayed); mean latency %.1f us \
     traced vs %.1f us plain (ratio %.3f); replayed phases %.1f \
     us/request; pvserve.queue_handoff_us is derived (latency minus \
     replayed phases)\n"
    name !served (Samples.length replay_ns) mean_lat
    (Samples.mean plain_lat)
    (mean_lat /. Samples.mean plain_lat)
    phases_us;
  ( {
    attempted = ck.tally.attempted;
    failed = ck.tally.failed;
    metrics =
      [
        metric "pvserve.decode_us" "us" (s "pvserve.decode");
        metric "pvserve.key_us" "us" (s "pvserve.key");
        metric "pvserve.cache_find_us" "us" (s "pvserve.cache_find");
        metric "pvserve.hit_rate" "ratio"
          (float_of_int !hits /. float_of_int (max 1 !served));
        metric "pvserve.compiles" "count" (float_of_int compiles);
        metric "pvserve.coalesced" "count" (float_of_int !coalesced);
        metric "pvserve.evictions" "count"
          (float_of_int (stats.Pvserve.Cache.s_evictions - evictions0));
        metric "pvserve.alloc_words_per_request" "words"
          (Samples.mean req_alloc);
        metric "pvserve.queue_handoff_us" "us" (mean_lat -. phases_us);
        metric "pvserve.compile_artifact_us" "us"
          (Spans.dur_us spans "pvserve.compile_artifact");
        metric "pvserve.render_us" "us" (s "pvserve.render");
        metric "pvserve.cache_insert_us" "us" (s "pvserve.cache_insert");
      ];
  },
    spans )
