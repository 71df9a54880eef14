(* The FreshTrack benchmark: time from the first .ftb byte to the REPORT on
   four workloads, and a per-layer ledger from a separate traced run.

     ftbench --racedet EXE --workload NAME --seed N --seconds S --trace 0|1

   One run generates its trace from the seed in a set-up child process,
   then measures in this process, which never holds set-up state: offline
   workloads analyse in process, daemon workloads drive a racedet daemon
   spawned from EXE.  Every REPORT is checked against a reference computed
   in set-up.  The last line of stdout is the result JSON; everything else
   goes to stderr.  README.md gives the workloads, the metrics and which
   layer metric should move which end-to-end metric. *)

module Trace = Ft_trace.Trace
module Tb = Ft_trace.Trace_binary
module Engine = Ft_core.Engine
module Detector = Ft_core.Detector
module Metrics = Ft_core.Metrics
module Race = Ft_core.Race
module Sampler = Ft_core.Sampler
module Serve = Ft_shard.Serve
module Json = Ft_obs.Json
module Clock = Ft_support.Clock

exception Bench_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bench_error s)) fmt

let ok what = function
  | Ok v -> v
  | Error msg -> fail "%s: %s" what msg

(* --- workloads ----------------------------------------------------------- *)

type path = Offline | Serve_daemon | Route_daemon
type source = Db of string | Classic of string

type workload = {
  name : string;
  path : path;
  source : source;
  size : int;  (** target events for [Db], scale for [Classic] *)
  clock_size : int option;
}

let workloads =
  [
    (* 256-entry clocks: the paper's TSan-v3 cost model *)
    { name = "tpcc-offline"; path = Offline; source = Db "tpcc"; size = 2_000_000;
      clock_size = Some 256 };
    (* scale 1024 gives 1.05 M events *)
    { name = "rsa-offline"; path = Offline; source = Classic "cryptorsa"; size = 1024;
      clock_size = Some 256 };
    (* the daemons run with racedet's defaults, clock size included.
       tpcc-serve is for runs by hand: BENCHMARK.json leaves it out as too
       unsteady on a shared 2-vCPU host (README.md, "Workloads") *)
    { name = "tpcc-serve"; path = Serve_daemon; source = Db "tpcc"; size = 200_000;
      clock_size = None };
    { name = "tpcc-route"; path = Route_daemon; source = Db "tpcc"; size = 200_000;
      clock_size = None };
  ]

(* racedet's CLI defaults.  The daemons get them spelled out, so that a
   change of default does not silently change what is measured. *)
let engine = Engine.So
let sampler = Sampler.bernoulli ~rate:0.03 ~seed:1
let daemon_flags = [ "--engine"; "so"; "--rate"; "0.03"; "--seed"; "1" ]

(* closed loop from one process, as emit and loadgen drive a daemon *)
let batch_events = 1000
let connections = 2
let setup_repeats = 5

let generate w ~seed =
  match w.source with
  | Db name -> (
    match Ft_workloads.Db_sim.profile name with
    | Some p -> Ft_workloads.Db_sim.generate p ~seed ~target_events:w.size
    | None -> fail "unknown db profile %s" name)
  | Classic name -> (
    match Ft_workloads.Classic.find name with
    | Some b -> b.Ft_workloads.Classic.generate ~seed ~scale:w.size
    | None -> fail "unknown classic benchmark %s" name)

(* --- metrics ------------------------------------------------------------- *)

(* name, unit — printed with --trace 0; must match BENCHMARK.json *)
let end_to_end =
  [
    ("events_per_s", "events/s");
    ("ack_ms_p95", "ms");
    ("cpu_us_per_event", "us");
    ("peak_rss_mb", "MB");
    ("setup_s", "s");
  ]

(* printed with --trace 1; a layer that is not on a workload's path reads 0 *)
let per_layer =
  [
    ("trace.of_file_s", "s");
    ("trace.well_formed_s", "s");
    ("trace.bytes_per_event", "B/event");
    ("core.engine_s", "s");
    ("core.nt_s", "s");
    ("core.ao_s", "s");
    ("core.report_s", "s");
    ("core.entries_traversed", "count");
    ("core.entries_saved", "count");
    ("core.vc_full_ops", "count");
    ("core.acquires_skipped", "count");
    ("core.deep_copies", "count");
    ("core.mean_entries_per_acquire", "entries");
    ("core.saved_traversal_ratio", "ratio");
    ("core.same_epoch_hits", "count");
    ("core.race_checks", "count");
    ("core.sampled_accesses", "count");
    ("client.encode_s", "s");
    ("client.send_s", "s");
    ("client.report_s", "s");
    ("client.ack_samples", "count");
    (* not end to end: on tpcc-serve about half the batches wait for a
       supervisor snapshot, and the median falls between the two modes *)
    ("ack_ms_p50", "ms");
    ("shard.ingest_s", "s");
    ("shard.wire_s", "s");
    ("cluster.ingest_s", "s");
    ("cluster.wal_fsync_s", "s");
    ("cluster.wal_fsyncs", "count");
    ("cluster.wal_bytes", "B");
    ("cluster.fanout_ratio", "ratio");
    ("cluster.marks", "count");
    ("cluster.window_mean", "batches");
    ("cluster.respawns", "count");
    ("snapshot.ftc_bytes", "B");
    ("cluster.run_dir_bytes", "B");
    ("span_coverage", "ratio");
    ("trace_overhead", "ratio");
    ("failed_ratio", "ratio");
  ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let core_counters (m : Metrics.t) =
  let c name v = (name, float_of_int v) in
  [
    c "core.entries_traversed" m.entries_traversed;
    c "core.entries_saved" m.entries_saved;
    c "core.vc_full_ops" m.vc_full_ops;
    c "core.acquires_skipped" m.acquires_skipped;
    c "core.deep_copies" m.deep_copies;
    (* entries_saved is summed over the acquires that were not skipped;
       both ratios share that base *)
    ("core.mean_entries_per_acquire",
     ratio m.entries_traversed (m.acquires - m.acquires_skipped));
    ("core.saved_traversal_ratio",
     ratio m.entries_saved (m.entries_traversed + m.entries_saved));
    c "core.same_epoch_hits" m.same_epoch_hits;
    c "core.race_checks" m.race_checks;
    c "core.sampled_accesses" m.sampled_accesses;
  ]

let sorted xs = List.sort compare xs

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list (sorted xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* exact nearest-rank order statistic: always one of the raw samples *)
let order_stat xs q =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list (sorted xs) in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* --- spans --------------------------------------------------------------- *)

(* Spans recorded from outside, around the calls into each layer, kept in
   memory and written out when the run ends. *)
module Spans = struct
  type t = { id : int; parent : int; name : string; batch : int; t0 : int64; t1 : int64 }

  let enabled = ref false
  let next_id = ref 0
  let stack = ref []
  let pending = ref []  (* finished, not yet taken by {!take} *)
  let all = ref []

  let record ?(batch = -1) name f =
    if not !enabled then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      stack := id :: !stack;
      let t0 = Clock.now_ns () in
      let close () =
        let t1 = Clock.now_ns () in
        stack := List.tl !stack;
        pending := { id; parent; name; batch; t0; t1 } :: !pending
      in
      match f () with
      | v ->
        close ();
        v
      | exception e ->
        close ();
        raise e
    end

  (** The spans finished since the last call. *)
  let take () =
    let s = !pending in
    pending := [];
    all := s @ !all;
    s

  let dur s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e9

  (* self time = duration minus what the span's children cover *)
  let child_time spans =
    let h = Hashtbl.create 256 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace h s.parent
            (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt h s.parent)))
      spans;
    fun id -> Option.value ~default:0.0 (Hashtbl.find_opt h id)

  (** Self time per span name, and the share of the [root] span that its
      children cover. *)
  let ledger ~root spans =
    let children = child_time spans in
    let self = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt self s.name) in
        Hashtbl.replace self s.name (prev +. dur s -. children s.id))
      spans;
    let coverage =
      match List.find_opt (fun s -> s.name = root) spans with
      | Some r when dur r > 0.0 -> children r.id /. dur r
      | _ -> 0.0
    in
    ((fun name -> Option.value ~default:0.0 (Hashtbl.find_opt self name)), coverage)

  let write path =
    let spans = List.sort (fun a b -> compare a.id b.id) !all in
    let origin = match spans with s :: _ -> s.t0 | [] -> 0L in
    let children = child_time spans in
    let oc = open_out path in
    output_string oc "id\tparent\tname\tbatch\tstart_ns\tend_ns\tself_ns\n";
    List.iter
      (fun s ->
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%Ld\t%Ld\t%.0f\n" s.id s.parent s.name s.batch
          (Int64.sub s.t0 origin) (Int64.sub s.t1 origin)
          ((dur s -. children s.id) *. 1e9))
      spans;
    close_out oc
end

(* --- files and processes ------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let n = input ic chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes b chunk 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents b

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path = try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* bytes of the regular files under [path] that satisfy [keep] *)
let rec du ?(keep = fun _ -> true) path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left (fun acc f -> acc + du ~keep (Filename.concat path f)) 0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> if keep path then st_size else 0
  | _ -> 0
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

(* peak resident set of a live process, in KiB *)
let vm_hwm_kb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0
  | status ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> Option.value ~default:acc (int_of_string_opt kb)
          | [] -> acc)
        | _ -> acc)
      0
      (String.split_on_char '\n' status)

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* reaped descendants only: a daemon's time, workers included, lands here
   once it has been waited for *)
let cpu_children () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* Daemons still running, with the run directory that names their workers'
   pid files; killed with their workers if the run fails. *)
let live : (int * string option) list ref = ref []

let worker_pids rundir =
  match Sys.readdir rundir with
  | exception Sys_error _ -> []
  | files ->
    Array.to_list files
    |> List.filter (fun f ->
           String.length f > 7 && String.sub f 0 7 = "worker-" && Filename.check_suffix f ".pid")
    |> List.filter_map (fun f ->
           match read_file (Filename.concat rundir f) with
           | s -> int_of_string_opt (String.trim s)
           | exception Sys_error _ -> None)

let kill_live () =
  List.iter
    (fun (pid, rundir) ->
      let kill p = try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> () in
      Option.iter (fun d -> List.iter kill (worker_pids d)) rundir;
      kill pid;
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let reap pid =
  let _, status = Unix.waitpid [] pid in
  live := List.filter (fun (p, _) -> p <> pid) !live;
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "process %d exited with %d" pid n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail "process %d killed by signal %d" pid n

(* --- set-up (child process) ---------------------------------------------- *)

(* What an offline REPORT is checked on: the race declarations and the
   sample, which Lemmas 4/7/8 make identical for ST and SO. *)
let race_digest (r : Detector.result) =
  let ints l = String.concat " " (List.map string_of_int l) in
  Printf.sprintf "sampled %d\nrace indices %s\nracy locations %s\n"
    r.metrics.Metrics.sampled_accesses (ints (Race.indices r.races))
    (ints (Race.locations r.races))

(* Generate and encode the trace [setup_repeats] times (timed), check that
   the seed gives the same bytes each time, then compute the reference
   (untimed): ST's races for offline workloads, the in-process REPORT for
   daemon workloads. *)
let setup_child w ~seed ~dir =
  let ftb = Filename.concat dir "trace.ftb" in
  let first = ref None in
  let times =
    List.init setup_repeats (fun _ ->
        let t0 = Clock.now_ns () in
        Tb.to_file ftb (generate w ~seed);
        let dt = Clock.elapsed_s ~since:t0 in
        let bytes = read_file ftb in
        (match !first with
        | None -> first := Some bytes
        | Some b -> if b <> bytes then fail "seed %d does not give the same .ftb twice" seed);
        dt)
  in
  let trace = ok "reading the trace back" (Tb.of_file ftb) in
  let reference =
    match w.path with
    | Offline -> race_digest (Engine.run Engine.St ~sampler ?clock_size:w.clock_size trace)
    | Serve_daemon | Route_daemon ->
      Serve.report_text ~events:(Trace.length trace)
        (Engine.run engine ~sampler ?clock_size:w.clock_size trace)
  in
  write_file (Filename.concat dir "reference") reference;
  write_file (Filename.concat dir "setup-times")
    (String.concat "" (List.map (Printf.sprintf "%.9f\n") times))

(* --- measurement --------------------------------------------------------- *)

type ctx = {
  w : workload;
  dir : string;
  ftb : string;
  events : int;
  reference : string;
  racedet : string;
}

type sample = {
  traced : bool;
  wall_s : float;  (** first .ftb byte to REPORT *)
  cpu_s : float;  (** analysing processes *)
  rss_kb : int;  (** summed VmHWM of the analysing processes *)
  spawn_s : float;  (** daemon spawn until it accepts; 0 offline *)
  acks_ms : float list;  (** per operation: batch → OK, or a whole offline run *)
  attempted : int;
  failed : int;
  correct : bool;
  layers : (string * float) list;  (** traced samples only *)
}

(* The engine and its report on a decoded trace, as [racedet analyze] runs
   them, then the NT baseline of AO(S) = engine − NT: a replay calling no
   handlers. *)
let analyse ctx trace =
  let result =
    Spans.record "core.engine" (fun () ->
        Engine.run engine ~sampler ?clock_size:ctx.w.clock_size trace)
  in
  ignore
    (Spans.record "core.report" (fun () -> Serve.report_text ~events:(Trace.length trace) result));
  result

let nt_baseline trace = ignore (Spans.record "core.nt" (fun () -> Detector.replay_only trace))

let core_layers self (result : Detector.result) =
  let engine_s = self "core.engine" and nt_s = self "core.nt" in
  [
    ("core.engine_s", engine_s);
    ("core.nt_s", nt_s);
    ("core.ao_s", engine_s -. nt_s);
    ("core.report_s", self "core.report");
  ]
  @ core_counters result.metrics

let decode ctx =
  let trace = Spans.record "trace.of_file" (fun () -> Tb.of_file ctx.ftb) in
  let trace = ok "decoding the trace" trace in
  ok "ill-formed trace" (Spans.record "trace.well_formed" (fun () -> Trace.well_formed trace));
  trace

(* One run of what [racedet analyze] does by default, in process. *)
let offline_run ctx ~traced =
  Gc.compact ();
  Spans.enabled := traced;
  let c0 = cpu_self () in
  let t0 = Clock.now_ns () in
  let trace, result =
    Spans.record "run" (fun () ->
        let trace = decode ctx in
        (trace, analyse ctx trace))
  in
  let wall_s = Clock.elapsed_s ~since:t0 in
  let cpu_s = cpu_self () -. c0 in
  if traced then nt_baseline trace;
  Spans.enabled := false;
  let correct = race_digest result = ctx.reference in
  let layers =
    if not traced then []
    else begin
      let self, coverage = Spans.ledger ~root:"run" (Spans.take ()) in
      [
        ("trace.of_file_s", self "trace.of_file");
        ("trace.well_formed_s", self "trace.well_formed");
        ("span_coverage", coverage);
      ]
      @ core_layers self result
    end
  in
  {
    traced;
    wall_s;
    cpu_s;
    rss_kb = 0;
    spawn_s = 0.0;
    acks_ms = [ wall_s *. 1e3 ];
    attempted = 1;
    failed = (if correct then 0 else 1);
    correct;
    layers;
  }

(* Spawn a racedet daemon; the time runs until a connect succeeds. *)
let spawn_daemon ctx args ~sock ~rundir =
  let log =
    Unix.openfile (Filename.concat ctx.dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let t0 = Clock.now_ns () in
  let pid =
    Unix.create_process ctx.racedet (Array.of_list (ctx.racedet :: args)) Unix.stdin log log
  in
  Unix.close log;
  live := (pid, rundir) :: !live;
  let rec wait () =
    let s = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect s (Unix.ADDR_UNIX sock) with
    | () -> Unix.close s
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close s;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (fun (p, _) -> p <> pid) !live;
        fail "daemon exited before accepting (see %s/daemon.log)" ctx.dir);
      if Clock.elapsed_s ~since:t0 > 30.0 then fail "daemon not accepting after 30 s";
      Unix.sleepf 0.0005;
      wait ()
  in
  wait ();
  (pid, Clock.elapsed_s ~since:t0)

let stats_json fd = ok "STATS JSON" (Json.parse (ok "STATS" (Serve.fetch_stats ~format:`Json fd)))

let jint j path =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
  |> Fun.flip Option.bind Json.to_int
  |> Option.value ~default:0

(* sum of the telemetry counters whose name starts with [prefix] *)
let jsum_prefix j prefix =
  match Json.member "telemetry" j with
  | Some (Json.Obj fields) ->
    List.fold_left
      (fun acc (k, v) ->
        if String.length k >= String.length prefix
           && String.sub k 0 (String.length prefix) = prefix
        then acc + Option.value ~default:0 (Json.to_int v)
        else acc)
      0 fields
  | _ -> 0

(* a router's workers: newest generation's address and pid of each *)
let route_workers rundir ~workers =
  List.init workers (fun k ->
      let rec newest g =
        let f = Filename.concat rundir (Printf.sprintf "worker-%d-g%d.addr" k (g + 1)) in
        if Sys.file_exists f then newest (g + 1) else g
      in
      let addr_file =
        Filename.concat rundir (Printf.sprintf "worker-%d-g%d.addr" k (newest 0))
      in
      let addr = ok "worker address" (Serve.read_addr_file addr_file) in
      let pid =
        String.trim (read_file (Filename.concat rundir (Printf.sprintf "worker-%d.pid" k)))
      in
      (addr, pid))

(* One daemon session: spawn, send the trace closed loop over [connections]
   connections with one batch outstanding, fetch the REPORT, then (untimed)
   check it, read telemetry, shut down and reap. *)
let daemon_session ctx ~traced ~index =
  let sock = Filename.concat ctx.dir (Printf.sprintf "d%d.sock" index) in
  let rundir = Filename.concat ctx.dir (Printf.sprintf "run%d" index) in
  let args, rundir_opt =
    match ctx.w.path with
    | Route_daemon ->
      ("route" :: "--socket" :: sock :: "--dir" :: rundir :: daemon_flags, Some rundir)
    | Serve_daemon | Offline -> ("serve" :: "--socket" :: sock :: daemon_flags, None)
  in
  Gc.compact ();
  let pid, spawn_s = spawn_daemon ctx args ~sock ~rundir:rundir_opt in
  let addr = Serve.Unix_path sock in
  let conns = Array.init connections (fun c -> Serve.connect ~seed:(c + 1) addr) in
  let acks = ref [] and attempted = ref 0 and failed = ref 0 in
  (* an ERR reply or a lost connection fails the batch; it is resent on a
     fresh connection, which the explicit base makes idempotent *)
  let send c ~base sub =
    let rec go tries =
      match Serve.send_batch conns.(c) ~base sub with
      | Ok _ -> ()
      | Error msg ->
        if tries = 0 then incr failed;
        if tries >= 3 then fail "batch at %d: %s" base msg;
        Serve.close conns.(c);
        conns.(c) <- Serve.connect ~seed:(c + 1 + tries) addr;
        go (tries + 1)
    in
    go 0
  in
  Spans.enabled := traced;
  let t0 = Clock.now_ns () in
  let trace, report =
    Spans.record "session" (fun () ->
        let trace = decode ctx in
        let n = Trace.length trace in
        for b = 0 to ((n + batch_events - 1) / batch_events) - 1 do
          let base = b * batch_events in
          let sub =
            Spans.record ~batch:b "client.encode" (fun () ->
                Trace.make ~nthreads:trace.Trace.nthreads ~nlocks:trace.Trace.nlocks
                  ~nlocs:trace.Trace.nlocs
                  (Array.sub trace.Trace.events base (min batch_events (n - base))))
          in
          let s0 = Clock.now_ns () in
          Spans.record ~batch:b "client.send" (fun () -> send (b mod connections) ~base sub);
          acks := (Clock.elapsed_s ~since:s0 *. 1e3) :: !acks;
          incr attempted
        done;
        (trace, Spans.record "client.report" (fun () -> ok "REPORT" (Serve.fetch_report conns.(0)))))
  in
  let wall_s = Clock.elapsed_s ~since:t0 in
  (* The engine in process on the same trace, outside the timed region: the
     yardstick for what the daemon adds over the engine it wraps. *)
  let engine_result =
    if traced then begin
      let result = analyse ctx trace in
      nt_baseline trace;
      Some result
    end
    else None
  in
  Spans.enabled := false;
  let correct = report = ctx.reference in
  if not correct then failed := !attempted;
  let stats = stats_json conns.(0) in
  let workers =
    match rundir_opt with
    | Some d -> route_workers d ~workers:(jint stats [ "workers" ])
    | None -> []
  in
  let worker_stats =
    if workers = [] then [ stats ]
    else
      List.map
        (fun (a, _) ->
          let fd = Serve.connect a in
          Fun.protect ~finally:(fun () -> Serve.close fd) (fun () -> stats_json fd))
        workers
  in
  let rss_kb =
    List.fold_left (fun acc (_, p) -> acc + vm_hwm_kb p) (vm_hwm_kb (string_of_int pid)) workers
  in
  let respawns = jint stats [ "telemetry"; "router_worker_respawns_total" ] in
  let restarts =
    List.fold_left (fun acc s -> acc + jint s [ "telemetry"; "racedet_shard_restarts" ]) 0
      worker_stats
  in
  failed := !failed + respawns + restarts;
  ok "SHUTDOWN" (Serve.shutdown conns.(0));
  Array.iter Serve.close conns;
  let c0 = cpu_children () in
  reap pid;
  let cpu_s = cpu_children () -. c0 in
  let layers =
    if not traced then []
    else begin
      let self, coverage = Spans.ledger ~root:"session" (Spans.take ()) in
      let hist_s j name = float_of_int (jint j [ "telemetry"; name; "sum" ]) /. 1e9 in
      let shard_ingest =
        List.fold_left (fun acc s -> acc +. hist_s s "serve_batch_ingest_ns") 0.0 worker_stats
      in
      let cluster_ingest = hist_s stats "router_batch_ingest_ns" in
      (* wire = client send time minus the ingest time of the process that
         acks the client *)
      let acker_ingest = if workers = [] then shard_ingest else cluster_ingest in
      let route =
        match rundir_opt with
        | None -> []
        | Some d ->
          let tel path = float_of_int (jint stats ("telemetry" :: path)) in
          [
            ("cluster.ingest_s", cluster_ingest);
            ("cluster.wal_fsync_s", hist_s stats "router_wal_fsync_ns");
            ("cluster.wal_fsyncs", tel [ "router_wal_fsync_ns"; "count" ]);
            ("cluster.wal_bytes", tel [ "router_wal_bytes_total" ]);
            ("cluster.fanout_ratio",
             ratio (jsum_prefix stats "router_worker_messages_total") ctx.events);
            ("cluster.marks", tel [ "router_marks_total" ]);
            ("cluster.window_mean",
             ratio (jint stats [ "telemetry"; "router_window_occupancy"; "sum" ])
               (jint stats [ "telemetry"; "router_window_occupancy"; "count" ]));
            ("cluster.respawns", float_of_int respawns);
            (* read after the daemon exited: final checkpoints included *)
            ( "snapshot.ftc_bytes",
              float_of_int (du ~keep:(fun f -> Filename.check_suffix f ".ftc") d) );
            ("cluster.run_dir_bytes", float_of_int (du d));
          ]
      in
      [
        ("trace.of_file_s", self "trace.of_file");
        ("trace.well_formed_s", self "trace.well_formed");
        ("client.encode_s", self "client.encode");
        ("client.send_s", self "client.send");
        ("client.report_s", self "client.report");
        ("shard.ingest_s", shard_ingest);
        ("shard.wire_s", self "client.send" -. acker_ingest);
        ("span_coverage", coverage);
      ]
      @ route
      @ match engine_result with Some r -> core_layers self r | None -> []
    end
  in
  Option.iter rm_rf rundir_opt;
  {
    traced;
    wall_s;
    cpu_s;
    rss_kb;
    spawn_s;
    acks_ms = !acks;
    attempted = !attempted;
    failed = !failed;
    correct;
    layers;
  }

(* --- one benchmark run --------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

let run ~racedet ~w ~seed ~seconds ~traced =
  let root = ".perfbench" in
  mkdir_p root;
  let dir = Filename.concat root (Printf.sprintf "%s-seed%d-pid%d" w.name seed (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> kill_live (); rm_rf dir) @@ fun () ->
  (* set-up in a child, so that this process holds none of its state *)
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "setup"; w.name; string_of_int seed; dir |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  live := (pid, None) :: !live;
  reap pid;
  let gen_s =
    read_file (Filename.concat dir "setup-times")
    |> String.split_on_char '\n'
    |> List.filter_map float_of_string_opt
  in
  let ftb = Filename.concat dir "trace.ftb" in
  let header =
    let ic = open_in_bin ftb in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        Tb.header (ok "trace header" (Tb.open_channel ic)))
  in
  let ctx =
    {
      w;
      dir;
      ftb;
      events = header.Tb.nevents;
      reference = read_file (Filename.concat dir "reference");
      racedet;
    }
  in
  let one i ~traced =
    match w.path with
    | Offline -> offline_run ctx ~traced
    | Serve_daemon | Route_daemon -> daemon_session ctx ~traced ~index:i
  in
  (* One untimed warm-up operation first: the process keeps its grown heap
     between operations, so only the first one pays for page faults.  A
     traced run then alternates traced and untraced operations, so that it
     can report its own tracing overhead. *)
  let warm_up = one 0 ~traced:false in
  let min_ops = if traced then 4 else 2 in
  let t0 = Clock.now_ns () in
  let rec loop i acc =
    if i >= min_ops && Clock.elapsed_s ~since:t0 >= float_of_int seconds then List.rev acc
    else begin
      let s = one (i + 1) ~traced:(traced && i mod 2 = 0) in
      Printf.eprintf
        "  op %d%s: wall %.4f s, cpu %.4f s, spawn %.4f s, peak %d KiB, ack p50 %.3f p95 %.3f ms\n%!"
        (i + 1)
        (if s.traced then " (traced)" else "")
        s.wall_s s.cpu_s s.spawn_s s.rss_kb (order_stat s.acks_ms 0.50) (order_stat s.acks_ms 0.95);
      loop (i + 1) (s :: acc)
    end
  in
  let samples = loop 0 [] in
  let plain = List.filter (fun s -> not s.traced) samples in
  let checked = warm_up :: samples in
  let attempted = List.fold_left (fun acc s -> acc + s.attempted) 0 checked in
  let failed = List.fold_left (fun acc s -> acc + s.failed) 0 checked in
  let correct = List.for_all (fun s -> s.correct) checked in
  let acks = List.concat_map (fun s -> s.acks_ms) plain in
  let rss_kb =
    match w.path with
    | Offline -> vm_hwm_kb "self"
    | Serve_daemon | Route_daemon ->
      int_of_float (median (List.map (fun s -> float_of_int s.rss_kb) plain))
  in
  let setup_s =
    median gen_s
    +. match w.path with
       | Offline -> 0.0
       | Serve_daemon | Route_daemon -> median (List.map (fun s -> s.spawn_s) checked)
  in
  let wall = median (List.map (fun s -> s.wall_s) plain) in
  Printf.eprintf
    "perfbench %s seed %d: %d operations, %d failed; %d ack samples; median wall %.4f s over %d runs\n%!"
    w.name seed attempted failed (List.length acks) wall (List.length plain);
  let traced_samples = List.filter (fun s -> s.traced) samples in
  let value = function
    | "events_per_s" -> median (List.map (fun s -> float_of_int ctx.events /. s.wall_s) plain)
    (* per operation, then the median over operations: a burst of host
       noise that slows a few sessions moves the pooled tail, not this *)
    | "ack_ms_p50" -> median (List.map (fun s -> order_stat s.acks_ms 0.50) plain)
    | "ack_ms_p95" -> median (List.map (fun s -> order_stat s.acks_ms 0.95) plain)
    | "cpu_us_per_event" ->
      median (List.map (fun s -> s.cpu_s /. float_of_int ctx.events *. 1e6) plain)
    | "peak_rss_mb" -> float_of_int rss_kb /. 1024.0
    | "setup_s" -> setup_s
    | "trace.bytes_per_event" ->
      float_of_int (Unix.stat ftb).Unix.st_size /. float_of_int ctx.events
    | "client.ack_samples" -> if w.path = Offline then 0.0 else float_of_int (List.length acks)
    | "trace_overhead" -> median (List.map (fun s -> s.wall_s) traced_samples) /. wall
    | "failed_ratio" -> ratio failed attempted
    | name -> median (List.filter_map (fun s -> List.assoc_opt name s.layers) traced_samples)
  in
  let names =
    if traced then begin
      Spans.write (Filename.concat root (Printf.sprintf "spans-%s-seed%d.tsv" w.name seed));
      per_layer
    end
    else end_to_end
  in
  let metrics = List.map (fun (name, u) -> (name, u, value name)) names in
  (correct, result_line ~correct ~attempted ~failed metrics)

(* --- command line -------------------------------------------------------- *)

let usage =
  "usage: ftbench --racedet EXE --workload NAME --seed N --seconds S --trace 0|1\n\
  \       ftbench setup NAME SEED DIR\n\
   workloads: "
  ^ String.concat ", " (List.map (fun w -> w.name) workloads)

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None -> fail "unknown workload %S\n%s" name usage

let int_arg name v =
  match int_of_string_opt v with Some n -> n | None -> fail "%s: not an integer: %S" name v

let main argv =
  match argv with
  | [ "setup"; name; seed; dir ] ->
    setup_child (find_workload name) ~seed:(int_arg "seed" seed) ~dir;
    0
  | _ ->
    let rec opts acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> fail "%s" usage
    in
    let o = opts [] argv in
    let get k = match List.assoc_opt k o with Some v -> v | None -> fail "missing --%s\n%s" k usage in
    let seconds = int_arg "seconds" (get "seconds") in
    if seconds < 1 then fail "--seconds must be positive";
    let traced =
      match get "trace" with "0" -> false | "1" -> true | v -> fail "--trace: %S" v
    in
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let correct, line =
      run ~racedet:(get "racedet") ~w:(find_workload (get "workload"))
        ~seed:(int_arg "seed" (get "seed")) ~seconds ~traced
    in
    print_endline line;
    if correct then 0 else 1

let () =
  let code =
    match main (List.tl (Array.to_list Sys.argv)) with
    | code -> code
    | exception Bench_error msg ->
      prerr_endline ("perfbench: " ^ msg);
      1
    | exception (Unix.Unix_error (e, fn, arg)) ->
      Printf.eprintf "perfbench: %s(%s): %s\n" fn arg (Unix.error_message e);
      1
  in
  exit code
