(* racedet route — the cluster router:

   - byte-identity grid: a K-worker cluster (each worker a domain-sharded
     serve daemon in its own process) produces REPORTs byte-identical to the
     in-process unsharded analysis, for every engine and across samplers
     with per-location state;
   - out-of-order and duplicate client batches over TCP transport;
   - worker death mid-ingest (chaos-injected SIGKILL and a real external
     SIGKILL via the pid file), recovered through .ftc checkpoint resume +
     SEQ + log replay — with checkpointing on and off;
   - QCheck property: a single MIGRATE at a random cut point, of a random
     worker, preserves REPORT bytes;
   - Chash units: determinism, coverage, rough balance, K→K+1 stability.

   The router forks worker processes and spawns no domains itself; this
   parent likewise only forks, so the whole suite is fork-safe. *)

module Trace = Ft_trace.Trace
module Trace_gen = Ft_trace.Trace_gen
module Prng = Ft_support.Prng
module Engine = Ft_core.Engine
module Sampler = Ft_core.Sampler
module Serve = Ft_shard.Serve
module Router = Ft_cluster.Router
module Chash = Ft_cluster.Chash
module Fault = Ft_fault.Fault
module Json = Ft_obs.Json

(* The crash tests write into sockets whose router has just been killed —
   without this the default SIGPIPE disposition kills the test runner. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let dir_counter = ref 0

let temp_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftcluster-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  Unix.mkdir d 0o700;
  d

(* cluster run dirs nest checkpoint directories *)
let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let router_config ?(workers = 2) ?(worker_shards = 2) ?(worker_tcp = false)
    ?(checkpoint = true) ?(window = Router.default_window) ?(wal = true)
    ?(resume = false) ?(state_every = Router.default_state_every) ~engine ~sampler
    ~dir listen =
  {
    Router.listen;
    workers;
    worker_shards;
    engine;
    sampler;
    clock_size = None;
    dir = Filename.concat dir "run";
    worker_tcp;
    checkpoint;
    max_parked = Serve.default_max_parked;
    backlog = Serve.default_backlog;
    ready_file = None;
    heartbeat_s = None;
    metrics_json = None;
    max_respawns = Router.default_max_respawns;
    chaos = None;
    window;
    wal;
    resume;
    state_every;
  }

(* [arm] runs in the router child before the router starts — how a test
   installs a single-shot chaos injection ([Fault.arm_exact]) that the
   forked worker processes then inherit but never hit. *)
let start_router ?(arm = fun () -> ()) cfg =
  match Unix.fork () with
  | 0 ->
    (try
       arm ();
       Router.run cfg
     with exn ->
       Printf.eprintf "router died: %s\n%!" (Printexc.to_string exn);
       Unix._exit 1);
    Unix._exit 0
  | pid -> pid

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

let get_ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s failed: %s" what msg

let sample_trace ?(nthreads = 4) ~seed ~length () =
  let prng = Prng.create ~seed in
  Trace_gen.random prng
    {
      Trace_gen.nthreads;
      nlocks = 3;
      nlocs = 16;
      length;
      atomics = true;
      forkjoin = true;
    }

let slices trace ~batch =
  let n = Trace.length trace in
  let rec go base acc =
    if base >= n then List.rev acc
    else begin
      let len = Stdlib.min batch (n - base) in
      let sub =
        Trace.make ~nthreads:trace.Trace.nthreads ~nlocks:trace.Trace.nlocks
          ~nlocs:trace.Trace.nlocs
          (Array.init len (fun i -> Trace.get trace (base + i)))
      in
      go (base + len) ((base, sub) :: acc)
    end
  in
  go 0 []

let expected_report ~engine ~sampler trace =
  Serve.report_text ~events:(Trace.length trace) (Engine.run engine ~sampler trace)

(* Run one cluster session: start a router, stream the batches (already
   (base, sub) pairs, any order), fetch the REPORT, shut down cleanly.
   [mid] runs after [mid_after] sends — kill/migrate hooks. *)
let cluster_report ?arm ?(mid = fun _fd -> ()) ?(mid_after = max_int) ~cfg ~socket batches =
  let pid = start_router ?arm cfg in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  List.iteri
    (fun i (base, sub) ->
      if i = mid_after then mid fd;
      ignore (get_ok "send_batch" (Serve.send_batch ~deadline_s:60.0 fd ~base sub)))
    batches;
  let report = get_ok "fetch_report" (Serve.fetch_report ~deadline_s:60.0 fd) in
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid;
  report

(* --- byte-identity grid ------------------------------------------------------ *)

(* Every engine at K=2; the paper's headline engines across K∈{1,4} and the
   samplers whose correctness depends on whole-location partitioning
   (per-location state: cold_region).  Each worker is itself domain-sharded
   (worker_shards=2), so the grid also covers cluster-over-Sharded. *)
let test_identity_grid () =
  with_temp_dir @@ fun dir ->
  let trace = sample_trace ~seed:7 ~length:900 () in
  let run i ~engine ~sampler ~workers =
    let sub = Filename.concat dir (string_of_int i) in
    Unix.mkdir sub 0o700;
    let socket = Filename.concat sub "route.sock" in
    let cfg =
      router_config ~workers ~worker_shards:2 ~engine ~sampler ~dir:sub
        (Serve.Unix_path socket)
    in
    let report = cluster_report ~cfg ~socket (slices trace ~batch:200) in
    Alcotest.(check string)
      (Printf.sprintf "engine %s, K=%d ≡ analyze" (Engine.name engine) workers)
      (expected_report ~engine ~sampler trace)
      report
  in
  let i = ref 0 in
  let bern = Sampler.bernoulli ~rate:0.3 ~seed:11 in
  List.iter
    (fun engine ->
      incr i;
      run !i ~engine ~sampler:bern ~workers:2)
    Engine.all;
  List.iter
    (fun engine ->
      List.iter
        (fun workers ->
          List.iter
            (fun sampler ->
              incr i;
              run !i ~engine ~sampler ~workers)
            [ Sampler.all; Sampler.cold_region ~threshold:2 ])
        [ 1; 4 ])
    [ Engine.So; Engine.O1; Engine.O1u ]

(* --- TCP transport, out-of-order and duplicate batches ----------------------- *)

let test_tcp_out_of_order_duplicates () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.4 ~seed:3 in
  let trace = sample_trace ~seed:13 ~length:1_200 () in
  let ready = Filename.concat dir "route.addr" in
  let cfg =
    {
      (router_config ~workers:2 ~worker_tcp:true ~engine ~sampler ~dir
         (Serve.Tcp ("127.0.0.1", 0)))
      with
      Router.ready_file = Some ready;
    }
  in
  let pid = start_router cfg in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let rec wait_ready tries =
    if Sys.file_exists ready then ()
    else if tries = 0 then Alcotest.failf "router never published %s" ready
    else begin
      ignore (Unix.select [] [] [] 0.05);
      wait_ready (tries - 1)
    end
  in
  wait_ready 200;
  let addr = get_ok "read_addr_file" (Serve.read_addr_file ready) in
  (match addr with
  | Serve.Tcp (_, port) -> Alcotest.(check bool) "ephemeral port bound" true (port > 0)
  | Serve.Unix_path _ -> Alcotest.fail "expected a TCP address in the ready file");
  let fd = Serve.connect ~deadline_s:60.0 addr in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  let batches = slices trace ~batch:150 in
  (* odd batches first (they park), then evens (they drain), then every
     third again as a duplicate (idempotent skip) *)
  let scrambled =
    List.filteri (fun i _ -> i mod 2 = 1) batches
    @ List.filteri (fun i _ -> i mod 2 = 0) batches
    @ List.filteri (fun i _ -> i mod 3 = 0) batches
  in
  List.iter
    (fun (base, sub) ->
      ignore (get_ok "send_batch" (Serve.send_batch ~deadline_s:60.0 fd ~base sub)))
    scrambled;
  let report = get_ok "fetch_report" (Serve.fetch_report ~deadline_s:60.0 fd) in
  Alcotest.(check string) "TCP cluster, scrambled + duplicates ≡ analyze"
    (expected_report ~engine ~sampler trace)
    report;
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid

(* --- worker death mid-ingest -------------------------------------------------- *)

(* Chaos-injected: the router SIGKILLs worker 1 at its 3rd flush, respawns
   it against its checkpoints, replays the unacknowledged suffix. *)
let test_chaos_worker_crash ~checkpoint () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.3 ~seed:17 in
  let trace = sample_trace ~seed:19 ~length:1_000 () in
  let socket = Filename.concat dir "route.sock" in
  let cfg =
    router_config ~workers:2 ~checkpoint ~engine ~sampler ~dir (Serve.Unix_path socket)
  in
  let arm () = Fault.arm_exact ~lane:1 ~point:"cluster.worker_crash" ~hit:3 Fault.Exn in
  let report = cluster_report ~arm ~cfg ~socket (slices trace ~batch:120) in
  Alcotest.(check string)
    (Printf.sprintf "chaos worker kill (checkpoint=%b) ≡ analyze" checkpoint)
    (expected_report ~engine ~sampler trace)
    report

(* A worker-side fault: the router's chaos schedule restricted to
   [shard.step], which only worker processes hit.  A faulting worker fails
   fast (ERR + exit), the router respawns it from its checkpoints and
   replays from SEQ.  Each respawn draws a schedule of its own.  The seed
   is picked so that the router's own schedule fires early, well inside
   the first CBATCH a respawned worker replays: an inherited schedule would
   then fire at the same hit in every generation, before any checkpoint,
   until the respawn budget is spent. *)
let first_shard_fault (cfg : Fault.config) =
  Fault.arm { cfg with Fault.log = false };
  let rec hits h =
    match Fault.point ~supports:[ Fault.Exn; Fault.Delay ] "shard.step" with
    | () -> hits (h + 1)
    | exception Fault.Injected _ -> h
  in
  let h = hits 1 in
  Fault.disarm ();
  h

let test_worker_shard_fault () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.3 ~seed:61 in
  let trace = sample_trace ~seed:67 ~length:1_500 () in
  let socket = Filename.concat dir "route.sock" in
  let metrics = Filename.concat dir "route-metrics.json" in
  let chaos seed =
    {
      (Fault.default ~seed) with
      Fault.prob = 0.002;
      points = Some [ "shard.step" ];
      kinds = Some [ Fault.Exn ];
    }
  in
  let rec early seed = if first_shard_fault (chaos seed) <= 64 then seed else early (seed + 1) in
  let cfg =
    {
      (router_config ~workers:2 ~worker_shards:1 ~engine ~sampler ~dir
         (Serve.Unix_path socket))
      with
      Router.metrics_json = Some metrics;
      chaos = Some (chaos (early 1));
    }
  in
  let report = cluster_report ~cfg ~socket (slices trace ~batch:100) in
  Alcotest.(check string) "worker shard.step fault ≡ analyze"
    (expected_report ~engine ~sampler trace)
    report;
  let doc =
    get_ok "metrics JSON" (Json.parse (In_channel.with_open_bin metrics In_channel.input_all))
  in
  let respawns =
    Option.bind (Json.member "telemetry" doc) (Json.member "router_worker_respawns_total")
    |> Fun.flip Option.bind Json.to_int
    |> Option.value ~default:(-1)
  in
  Alcotest.(check bool) (Printf.sprintf "respawns (%d) >= 1" respawns) true (respawns >= 1)

(* A steady worker-side fault rate: every shard fault ends a worker
   process, so the router heals between processes.  A crashed worker
   checkpoints every CBATCH and replays in small CBATCHes, and the respawn
   budget counts only respawns without durable progress: the run survives
   more respawns than the budget, each generation healing past its fault. *)
let test_steady_worker_faults () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.3 ~seed:71 in
  let trace = sample_trace ~seed:73 ~length:3_000 () in
  let socket = Filename.concat dir "route.sock" in
  let metrics = Filename.concat dir "route-metrics.json" in
  let cfg =
    {
      (router_config ~workers:2 ~worker_shards:1 ~engine ~sampler ~dir
         (Serve.Unix_path socket))
      with
      Router.metrics_json = Some metrics;
      chaos =
        Some
          {
            (Fault.default ~seed:9) with
            Fault.prob = 0.003;
            points = Some [ "shard.step" ];
            kinds = Some [ Fault.Exn ];
            log = false;
          };
    }
  in
  let report = cluster_report ~cfg ~socket (slices trace ~batch:100) in
  Alcotest.(check string) "steady worker faults ≡ analyze"
    (expected_report ~engine ~sampler trace)
    report;
  let doc =
    get_ok "metrics JSON" (Json.parse (In_channel.with_open_bin metrics In_channel.input_all))
  in
  let respawns =
    Option.bind (Json.member "telemetry" doc) (Json.member "router_worker_respawns_total")
    |> Fun.flip Option.bind Json.to_int
    |> Option.value ~default:(-1)
  in
  Alcotest.(check bool)
    (Printf.sprintf "respawns (%d) > budget (%d)" respawns Router.default_max_respawns)
    true
    (respawns > Router.default_max_respawns)

(* External SIGKILL via the advertised pid file — the path a CI smoke or an
   operator takes; the router discovers the death at the next send and
   recovers through SEQ + replay. *)
let test_external_sigkill () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.O1 and sampler = Sampler.bernoulli ~rate:0.5 ~seed:23 in
  let trace = sample_trace ~seed:29 ~length:1_000 () in
  let socket = Filename.concat dir "route.sock" in
  let cfg = router_config ~workers:2 ~engine ~sampler ~dir (Serve.Unix_path socket) in
  let kill_worker _fd =
    let pidfile = Filename.concat (Filename.concat dir "run") "worker-0.pid" in
    let text = In_channel.with_open_bin pidfile In_channel.input_all in
    let wpid = int_of_string (String.trim text) in
    Unix.kill wpid Sys.sigkill;
    (* let it die before the next batch races the kill *)
    ignore (Unix.select [] [] [] 0.05)
  in
  let report =
    cluster_report ~mid:kill_worker ~mid_after:4 ~cfg ~socket (slices trace ~batch:120)
  in
  Alcotest.(check string) "external worker SIGKILL ≡ analyze"
    (expected_report ~engine ~sampler trace)
    report

(* --- MIGRATE property --------------------------------------------------------- *)

(* Any single migration — any worker, at any cut point in the stream —
   preserves REPORT bytes: flush → graceful worker shutdown (final .ftc) →
   fresh process resumes from the checkpoint → SEQ → empty replay. *)
let migrate_property =
  let trace = sample_trace ~seed:37 ~length:700 () in
  let batches = slices trace ~batch:100 in
  let nbatches = List.length batches in
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.35 ~seed:41 in
  let expected = expected_report ~engine ~sampler trace in
  let gen = QCheck.Gen.(pair (int_range 0 nbatches) (int_range 0 2)) in
  let arb =
    QCheck.make ~print:(fun (cut, w) -> Printf.sprintf "cut=%d worker=%d" cut w) gen
  in
  QCheck.Test.make ~name:"single MIGRATE at a random cut preserves REPORT bytes"
    ~count:4 arb
    (fun (cut, w) ->
      let dir = temp_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let socket = Filename.concat dir "route.sock" in
      let cfg =
        router_config ~workers:3 ~worker_shards:1 ~engine ~sampler ~dir
          (Serve.Unix_path socket)
      in
      let mid fd = get_ok "migrate" (Serve.migrate ~deadline_s:60.0 fd w) in
      let report = cluster_report ~mid ~mid_after:cut ~cfg ~socket batches in
      if report <> expected then
        QCheck.Test.fail_reportf "REPORT diverged after migrating worker %d at cut %d" w
          cut;
      true)

(* --- router crash + resume ---------------------------------------------------- *)

(* Kill the router itself on the WAL durability edge (the [router.crash]
   fault point: the batch is appended + fsynced but never acknowledged,
   then [_exit 137] — the worst cut a SIGKILL can land on), restart it in
   the same directory with [resume], blindly resend the whole stream and
   return the final REPORT.  Phase-1 sends tolerate errors: the crash
   closes the connection mid-protocol by design.  Phase 2 arms a chaos
   worker kill, so recovery-under-recovery is exercised too. *)
let killed_router_report ?(crash_hit = 3) ?(arm2 = fun () -> ()) ~cfg ~socket batches =
  let arm () = Fault.arm_exact ~point:"router.crash" ~hit:crash_hit Fault.Exn in
  let pid = start_router ~arm cfg in
  (try
     let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path socket) in
     Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
     List.iter
       (fun (base, sub) -> ignore (Serve.send_batch ~deadline_s:10.0 fd ~base sub))
       batches
   with _ -> ());
  reap pid;
  let cfg = { cfg with Router.resume = true } in
  let pid = start_router ~arm:arm2 cfg in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path socket) in
  Fun.protect ~finally:(fun () -> Serve.close fd) @@ fun () ->
  List.iter
    (fun (base, sub) ->
      ignore (get_ok "blind resend" (Serve.send_batch ~deadline_s:60.0 fd ~base sub)))
    batches;
  let report = get_ok "fetch_report" (Serve.fetch_report ~deadline_s:60.0 fd) in
  get_ok "shutdown" (Serve.shutdown fd);
  reap pid;
  report

(* Every engine survives a router SIGKILL + resume at K=2; the headline
   engines (So and the O(1)-samples family) across K∈{1,2,4}.  The resumed
   router's workers are chaos-armed (worker 0 dies at its 2nd flush), so
   the resume path's own worker recovery runs under fire. *)
let test_router_kill_resume_grid () =
  with_temp_dir @@ fun dir ->
  let trace = sample_trace ~seed:43 ~length:400 () in
  let batches = slices trace ~batch:100 in
  let i = ref 0 in
  let run ~engine ~sampler ~workers =
    incr i;
    let sub = Filename.concat dir (string_of_int !i) in
    Unix.mkdir sub 0o700;
    let socket = Filename.concat sub "route.sock" in
    let cfg =
      router_config ~workers ~worker_shards:1 ~engine ~sampler ~dir:sub
        (Serve.Unix_path socket)
    in
    let arm2 () = Fault.arm_exact ~lane:0 ~point:"cluster.worker_crash" ~hit:2 Fault.Exn in
    let report = killed_router_report ~arm2 ~cfg ~socket batches in
    Alcotest.(check string)
      (Printf.sprintf "engine %s, K=%d: SIGKILL+resume ≡ analyze" (Engine.name engine)
         workers)
      (expected_report ~engine ~sampler trace)
      report
  in
  let bern = Sampler.bernoulli ~rate:0.3 ~seed:47 in
  List.iter (fun engine -> run ~engine ~sampler:bern ~workers:2) Engine.all;
  List.iter
    (fun engine ->
      List.iter (fun workers -> run ~engine ~sampler:bern ~workers) [ 1; 4 ])
    [ Engine.So; Engine.O1; Engine.O1u ]

(* Property: the router crash can land on ANY batch, with router-state
   checkpoints on or off (off ⇒ resume degrades to a full WAL replay), and
   the resumed report still matches the uninterrupted analysis. *)
let router_kill_property =
  let trace = sample_trace ~seed:53 ~length:600 () in
  let batches = slices trace ~batch:75 in
  let nbatches = List.length batches in
  let engine = Engine.O1u and sampler = Sampler.bernoulli ~rate:0.35 ~seed:59 in
  let expected = expected_report ~engine ~sampler trace in
  let gen = QCheck.Gen.(pair (int_range 1 nbatches) bool) in
  let arb =
    QCheck.make
      ~print:(fun (cut, ckpt) -> Printf.sprintf "crash at batch %d, state-ckpt=%b" cut ckpt)
      gen
  in
  QCheck.Test.make ~name:"router SIGKILL at a random batch + resume preserves REPORT"
    ~count:4 arb
    (fun (cut, ckpt) ->
      let dir = temp_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let socket = Filename.concat dir "route.sock" in
      let cfg =
        router_config ~workers:2 ~worker_shards:1 ~checkpoint:ckpt
          ~state_every:(if ckpt then 3 else 0)
          ~engine ~sampler ~dir (Serve.Unix_path socket)
      in
      let report = killed_router_report ~crash_hit:cut ~cfg ~socket batches in
      if report <> expected then
        QCheck.Test.fail_reportf "REPORT diverged after crash at batch %d (state-ckpt=%b)"
          cut ckpt;
      true)

(* --- RESIZE property ---------------------------------------------------------- *)

(* A live ring resize — grow or shrink, at any cut point in the stream —
   preserves REPORT bytes: quiesce → WAL Resize → rebuild the per-worker
   logs under the new ring → stream to a fresh worker epoch. *)
let resize_property =
  let trace = sample_trace ~seed:61 ~length:600 () in
  let batches = slices trace ~batch:75 in
  let nbatches = List.length batches in
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.35 ~seed:67 in
  let expected = expected_report ~engine ~sampler trace in
  let gen = QCheck.Gen.(pair (int_range 0 nbatches) (oneofl [ 1; -1 ])) in
  let arb =
    QCheck.make ~print:(fun (cut, d) -> Printf.sprintf "cut=%d delta=%+d" cut d) gen
  in
  QCheck.Test.make ~name:"single RESIZE at a random cut preserves REPORT bytes" ~count:4
    arb
    (fun (cut, delta) ->
      let dir = temp_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let socket = Filename.concat dir "route.sock" in
      let cfg =
        router_config ~workers:2 ~worker_shards:1 ~engine ~sampler ~dir
          (Serve.Unix_path socket)
      in
      let mid fd =
        let k = get_ok "resize" (Serve.resize ~deadline_s:60.0 fd delta) in
        if k <> 2 + delta then QCheck.Test.fail_reportf "RESIZE echoed %d" k
      in
      let report = cluster_report ~mid ~mid_after:cut ~cfg ~socket batches in
      if report <> expected then
        QCheck.Test.fail_reportf "REPORT diverged after RESIZE %+d at cut %d" delta cut;
      true)

(* --- pipelining window -------------------------------------------------------- *)

(* The in-flight window is a pure throughput knob: window=1 (PR 9's
   lockstep) and a deep window produce byte-identical reports. *)
let test_window_identity () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.3 ~seed:71 in
  let trace = sample_trace ~seed:73 ~length:800 () in
  let expected = expected_report ~engine ~sampler trace in
  List.iter
    (fun window ->
      let sub = Filename.concat dir (Printf.sprintf "w%d" window) in
      Unix.mkdir sub 0o700;
      let socket = Filename.concat sub "route.sock" in
      let cfg =
        router_config ~workers:3 ~worker_shards:1 ~window ~engine ~sampler ~dir:sub
          (Serve.Unix_path socket)
      in
      let report = cluster_report ~cfg ~socket (slices trace ~batch:64) in
      Alcotest.(check string)
        (Printf.sprintf "window=%d ≡ analyze" window)
        expected report)
    [ 1; 3; 16 ]

(* --- WAL robustness ----------------------------------------------------------- *)

module Wal = Ft_cluster.Wal
module Event = Ft_trace.Event

(* Build a small real WAL (Session + Events + Resize records), then attack
   it: truncation at EVERY byte length and a flip of EVERY byte must leave
   {!Wal.decode_all} total (no exception) with a valid prefix that is
   exactly the records whose frames survived intact — the .ftc fuzzing
   discipline applied to the log. *)
let test_wal_fuzz () =
  with_temp_dir @@ fun dir ->
  let path = Wal.path ~dir in
  let trace = sample_trace ~seed:79 ~length:40 () in
  let records =
    Wal.Session
      {
        nthreads = trace.Trace.nthreads;
        nlocks = trace.Trace.nlocks;
        nlocs = trace.Trace.nlocs;
        engine = "so";
        sampler = "bernoulli(p=0.30,seed=7)";
        workers = 2;
      }
    :: Wal.Resize 3
    :: List.map
         (fun (base, sub) ->
           Wal.Events (base, Array.init (Trace.length sub) (Trace.get sub)))
         (slices trace ~batch:10)
  in
  let w = Wal.open_append path in
  List.iter (fun r -> ignore (Wal.append w r)) records;
  Wal.sync w;
  Wal.close w;
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  let whole, good = Wal.decode_all bytes in
  Alcotest.(check int) "all records decode" (List.length records) (List.length whole);
  Alcotest.(check int) "full file is the valid prefix" (String.length bytes) good;
  let ends = List.map snd whole in
  (* truncation at every byte: the valid prefix is exactly the records
     whose END offset fits *)
  for len = 0 to String.length bytes do
    let recs, good = Wal.decode_all (String.sub bytes 0 len) in
    let expect = List.length (List.filter (fun e -> e <= len) ends) in
    if List.length recs <> expect then
      Alcotest.failf "truncate at %d: %d records, expected %d" len (List.length recs)
        expect;
    if good > len then Alcotest.failf "truncate at %d: prefix %d overruns" len good
  done;
  (* single-byte corruption at every offset: total decode, never more
     records than written, and records BEFORE the corrupted frame survive *)
  let b = Bytes.of_string bytes in
  for i = 0 to Bytes.length b - 1 do
    let orig = Bytes.get b i in
    Bytes.set b i (Char.chr (Char.code orig lxor 0xff));
    let recs, _ = Wal.decode_all (Bytes.unsafe_to_string b) in
    let intact = List.length (List.filter (fun e -> e <= i) ends) in
    if List.length recs < intact then
      Alcotest.failf "flip at %d: lost an intact leading record (%d < %d)" i
        (List.length recs) intact;
    if List.length recs > List.length records then
      Alcotest.failf "flip at %d: phantom records" i;
    Bytes.set b i orig
  done;
  (* a torn tail is repaired on reopen: append resumes at the cut *)
  let cut = good - 5 in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o600 in
  Unix.ftruncate fd cut;
  Unix.close fd;
  let w = Wal.open_append path in
  let last_good = List.fold_left (fun acc e -> if e <= cut then max acc e else acc) 0 ends in
  Alcotest.(check int) "reopen truncates the torn tail" last_good (Wal.offset w);
  ignore (Wal.append w (Wal.Resize 2));
  Wal.sync w;
  Wal.close w;
  let recs, _ = Wal.replay path |> get_ok "replay" in
  match List.rev recs with
  | (Wal.Resize 2, _) :: _ -> ()
  | _ -> Alcotest.fail "append after torn-tail repair not decodable"

(* --- ready-file staleness ----------------------------------------------------- *)

(* A second router pointed at a LIVE predecessor's ready file must refuse
   to start (leaving the file alone); after the predecessor exits the file
   is gone; a stale file (dead address) is silently replaced. *)
let test_ready_file_staleness () =
  with_temp_dir @@ fun dir ->
  let engine = Engine.So and sampler = Sampler.bernoulli ~rate:0.3 ~seed:83 in
  let ready = Filename.concat dir "route.ready" in
  let dir_a = Filename.concat dir "a" and dir_b = Filename.concat dir "b" in
  Unix.mkdir dir_a 0o700;
  Unix.mkdir dir_b 0o700;
  let sock_a = Filename.concat dir_a "route.sock" in
  let cfg_a =
    {
      (router_config ~workers:1 ~worker_shards:1 ~engine ~sampler ~dir:dir_a
         (Serve.Unix_path sock_a))
      with
      Router.ready_file = Some ready;
    }
  in
  let pid_a = start_router cfg_a in
  Fun.protect ~finally:(fun () -> kill_and_reap pid_a) @@ fun () ->
  let rec wait_ready tries =
    if Sys.file_exists ready then ()
    else if tries = 0 then Alcotest.failf "router never published %s" ready
    else begin
      ignore (Unix.select [] [] [] 0.05);
      wait_ready (tries - 1)
    end
  in
  wait_ready 200;
  (* B refuses: the ready file names a live listener *)
  let cfg_b =
    {
      (router_config ~workers:1 ~worker_shards:1 ~engine ~sampler ~dir:dir_b
         (Serve.Unix_path (Filename.concat dir_b "route.sock")))
      with
      Router.ready_file = Some ready;
    }
  in
  (match Unix.fork () with
  | 0 ->
    (try Router.run cfg_b with _ -> Unix._exit 1);
    Unix._exit 0
  | pid_b -> (
    match Unix.waitpid [] pid_b with
    | _, Unix.WEXITED 1 -> ()
    | _, _ -> Alcotest.fail "second router did not refuse the live ready file"));
  Alcotest.(check bool) "live ready file left alone" true (Sys.file_exists ready);
  (* clean shutdown unlinks it *)
  let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path sock_a) in
  get_ok "shutdown" (Serve.shutdown fd);
  Serve.close fd;
  reap pid_a;
  Alcotest.(check bool) "ready file unlinked on exit" false (Sys.file_exists ready);
  (* a stale file (dead address) is replaced silently *)
  Out_channel.with_open_bin ready (fun oc ->
      Out_channel.output_string oc ("unix:" ^ Filename.concat dir "dead.sock\n"));
  let pid_c = start_router cfg_a in
  Fun.protect ~finally:(fun () -> kill_and_reap pid_c) @@ fun () ->
  wait_ready 200;
  let rec wait_replaced tries =
    match Serve.read_addr_file ready with
    | Ok (Serve.Unix_path p) when p = sock_a -> ()
    | _ when tries = 0 -> Alcotest.fail "stale ready file never replaced"
    | _ ->
      ignore (Unix.select [] [] [] 0.05);
      wait_replaced (tries - 1)
  in
  wait_replaced 200;
  let fd = Serve.connect ~deadline_s:60.0 (Serve.Unix_path sock_a) in
  get_ok "shutdown" (Serve.shutdown fd);
  Serve.close fd;
  reap pid_c

(* --- Chash units -------------------------------------------------------------- *)

let test_chash () =
  let nlocs = 2_000 in
  (* deterministic: two independent rings agree everywhere *)
  let a = Chash.create ~workers:4 and b = Chash.create ~workers:4 in
  for x = 0 to nlocs - 1 do
    Alcotest.(check int) "owner deterministic" (Chash.owner a x) (Chash.owner b x)
  done;
  (* coverage and rough balance *)
  let counts = Array.make 4 0 in
  for x = 0 to nlocs - 1 do
    let o = Chash.owner a x in
    Alcotest.(check bool) "owner in range" true (o >= 0 && o < 4);
    counts.(o) <- counts.(o) + 1
  done;
  Array.iteri
    (fun w c ->
      Alcotest.(check bool) (Printf.sprintf "worker %d owns a sane share" w) true
        (c > 0 && c < nlocs))
    counts;
  let mean = nlocs / 4 in
  Array.iter
    (fun c -> Alcotest.(check bool) "no worker above 3x the mean share" true (c < 3 * mean))
    counts;
  (* consistency: growing K=3 → K=4 moves well under half the keyspace *)
  let three = Chash.create ~workers:3 and four = Chash.create ~workers:4 in
  let moved = ref 0 in
  for x = 0 to nlocs - 1 do
    if Chash.owner three x <> Chash.owner four x then incr moved
  done;
  Alcotest.(check bool)
    (Printf.sprintf "only %d/%d locations moved" !moved nlocs)
    true
    (!moved < nlocs / 2);
  Alcotest.(check int) "K=1 is total" 0 (Chash.owner (Chash.create ~workers:1) 12345)

let () =
  Alcotest.run "cluster"
    [
      ( "identity",
        [
          Alcotest.test_case "engines × samplers × K grid ≡ analyze" `Quick
            test_identity_grid;
          Alcotest.test_case "TCP transport, out-of-order + duplicates" `Quick
            test_tcp_out_of_order_duplicates;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "chaos worker kill, checkpointed resume" `Quick
            (test_chaos_worker_crash ~checkpoint:true);
          Alcotest.test_case "chaos worker kill, full-log replay" `Quick
            (test_chaos_worker_crash ~checkpoint:false);
          Alcotest.test_case "external SIGKILL via pid file" `Quick test_external_sigkill;
          Alcotest.test_case "worker shard.step fault, respawn re-arms chaos" `Quick
            test_worker_shard_fault;
          Alcotest.test_case "steady worker faults heal past the respawn budget" `Quick
            test_steady_worker_faults;
        ] );
      ( "durability",
        [
          Alcotest.test_case "router SIGKILL + resume, engines × K grid" `Quick
            test_router_kill_resume_grid;
          QCheck_alcotest.to_alcotest router_kill_property;
          Alcotest.test_case "WAL truncation + bit-flip fuzz at every byte" `Quick
            test_wal_fuzz;
        ] );
      ( "availability",
        [
          QCheck_alcotest.to_alcotest resize_property;
          Alcotest.test_case "window=1/3/16 pipelining identity" `Quick
            test_window_identity;
          Alcotest.test_case "ready-file staleness protocol" `Quick
            test_ready_file_staleness;
        ] );
      ("migration", [ QCheck_alcotest.to_alcotest migrate_property ]);
      ("chash", [ Alcotest.test_case "determinism, coverage, stability" `Quick test_chash ]);
    ]
