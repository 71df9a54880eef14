(* Checkpoint/restore correctness:

   - prefix equivalence: snapshotting any engine at a random cut, restoring,
     and feeding the suffix yields exactly the races, race order and metrics
     of an uninterrupted run — including stateful samplers and padded clocks;
   - the .ftc container rejects corruption (bit flips, truncation at every
     byte, wrong version, random bytes) with [Error], never an exception —
     and a rejected checkpoint never changes an analysis result (the runner
     falls back to full replay);
   - keyed sections reject hostile counts and keys with exact errors, and
     every engine's snapshot size is independent of the declared universe;
   - Ordered_list deep copies and snapshot roundtrips preserve the recency
     order that Alg 4's d-prefix traversals depend on;
   - SO's and SL's lazy-copy slab keeps exact holder counts after every
     event, and a snapshot taken while it holds free slots resumes to the
     uninterrupted run's report, metrics and final snapshot bytes;
   - the Metrics record's serialization arity is guarded against field drift;
   - Online monitors roundtrip through snapshot/restore, validator included. *)

module Event = Ft_trace.Event
module Trace = Ft_trace.Trace
module Trace_gen = Ft_trace.Trace_gen
module Trace_binary = Ft_trace.Trace_binary
module Prng = Ft_support.Prng
module Engine = Ft_core.Engine
module Detector = Ft_core.Detector
module Sampler = Ft_core.Sampler
module Race = Ft_core.Race
module Metrics = Ft_core.Metrics
module Snap = Ft_core.Snap
module Ol = Ft_core.Ordered_list
module Online = Ft_core.Online
module Checkpoint = Ft_snapshot.Checkpoint
module Runner = Ft_shard.Runner
module Serve = Ft_shard.Serve

let engines = Engine.all @ [ Engine.Eraser ]

let sampler_specs =
  [
    ("all", fun () -> Sampler.all);
    ("bernoulli", fun () -> Sampler.bernoulli ~rate:0.3 ~seed:13);
    ("windowed", fun () -> Sampler.windowed ~period:20 ~duty:0.4);
    ("cold_region", fun () -> Sampler.cold_region ~threshold:2);
    ("adaptive", fun () -> Sampler.adaptive ~base_rate:3);
  ]

(* --- prefix equivalence (property) --------------------------------------- *)

type scenario = {
  seed : int;
  params : Trace_gen.params;
  cut_frac : float;
  pad : int;  (* clock_size = nthreads + pad: exercises clock_size > T *)
  sampler_ix : int;
}

let scenario_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nthreads = int_range 2 6 in
    let* nlocks = int_range 0 4 in
    let* nlocs = int_range 1 8 in
    let* length = int_range 20 180 in
    let* atomics = bool in
    let* forkjoin = bool in
    let* cut_frac = oneofl [ 0.0; 0.1; 0.37; 0.5; 0.9; 1.0 ] in
    let* pad = int_bound 4 in
    let* sampler_ix = int_bound (List.length sampler_specs - 1) in
    return
      {
        seed;
        params = { Trace_gen.nthreads; nlocks; nlocs; length; atomics; forkjoin };
        cut_frac;
        pad;
        sampler_ix;
      })

let print_scenario s =
  Printf.sprintf "seed=%d threads=%d locks=%d locs=%d len=%d atomics=%b fj=%b cut=%g pad=%d sampler=%s"
    s.seed s.params.Trace_gen.nthreads s.params.Trace_gen.nlocks s.params.Trace_gen.nlocs
    s.params.Trace_gen.length s.params.Trace_gen.atomics s.params.Trace_gen.forkjoin
    s.cut_frac s.pad
    (fst (List.nth sampler_specs s.sampler_ix))

let scenario_arb = QCheck.make ~print:print_scenario scenario_gen

let run_full id config trace =
  let (module D : Detector.S) = Engine.detector id in
  let d = D.create config in
  Trace.iteri (fun i e -> D.handle d i e) trace;
  D.result d

(* Run the prefix, snapshot, push the snapshot through the .ftc container,
   restore, run the suffix.  Also checks snapshot determinism: the restored
   detector re-snapshots to the same bytes. *)
let run_cut id config trace ~cut =
  let (module D : Detector.S) = Engine.detector id in
  let d = D.create config in
  for i = 0 to cut - 1 do
    D.handle d i (Trace.get trace i)
  done;
  let snap = D.snapshot d in
  let cp =
    {
      Checkpoint.meta =
        {
          Checkpoint.engine = id;
          sampler = Sampler.name config.Detector.sampler;
          nthreads = config.Detector.nthreads;
          nlocks = config.Detector.nlocks;
          nlocs = config.Detector.nlocs;
          clock_size = config.Detector.clock_size;
          shards = 0;
          next_index = cut;
          byte_offset = -1;
        };
      detector = snap;
    }
  in
  let snap =
    match Checkpoint.of_string (Checkpoint.to_string cp) with
    | Ok cp' -> cp'.Checkpoint.detector
    | Error msg -> Alcotest.failf "container roundtrip failed: %s" msg
  in
  let d' = D.restore config snap in
  if not (String.equal (D.snapshot d') snap) then
    Alcotest.failf "%s: restore is not snapshot-stable at cut %d" (Engine.name id) cut;
  for i = cut to Trace.length trace - 1 do
    D.handle d' i (Trace.get trace i)
  done;
  D.result d'

let prop_prefix_equivalence s =
  let prng = Prng.create ~seed:s.seed in
  let trace = Trace_gen.random prng s.params in
  let n = Trace.length trace in
  let cut = Stdlib.min n (int_of_float (s.cut_frac *. float_of_int n)) in
  let _, mk_sampler = List.nth sampler_specs s.sampler_ix in
  List.for_all
    (fun id ->
      let sampler = mk_sampler () in
      let config =
        {
          Detector.nthreads = trace.Trace.nthreads;
          nlocks = trace.Trace.nlocks;
          nlocs = trace.Trace.nlocs;
          clock_size = trace.Trace.nthreads + s.pad;
          sampler;
        }
      in
      let full = run_full id config trace in
      let interrupted = run_cut id config trace ~cut in
      let same_races = full.Detector.races = interrupted.Detector.races in
      let same_metrics =
        Metrics.to_array full.Detector.metrics = Metrics.to_array interrupted.Detector.metrics
      in
      if not (same_races && same_metrics) then
        QCheck.Test.fail_reportf "%s diverges after restore at cut %d (races %b, metrics %b)"
          (Engine.name id) cut same_races same_metrics
      else true)
    engines

let prefix_equivalence_test =
  QCheck.Test.make ~name:"snapshot+suffix ≡ uninterrupted (all engines)" ~count:40
    scenario_arb prop_prefix_equivalence

(* --- lazy-copy slab recycling (property) ----------------------------------- *)

module type RECYCLING = sig
  include Detector.S

  val free_slots : t -> int
  val check_invariants : t -> bool
end

let recycling_engines : (string * (module RECYCLING)) list =
  [ ("so", (module Ft_core.Sampling_ordered_list)); ("sl", (module Ft_core.Sampling_lazy)) ]

(* lock-heavy traces, so that lists are released, re-released and copied
   away from often enough to leave free slots *)
let recycling_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nthreads = int_range 2 6 in
    let* nlocks = int_range 1 3 in
    let* length = int_range 40 240 in
    let* pad = int_bound 3 in
    let* pick = int_bound 1_000 in
    let params =
      { Trace_gen.nthreads; nlocks; nlocs = 4; length; atomics = true; forkjoin = true }
    in
    return (seed, params, pad, pick))

let print_recycling (seed, p, pad, pick) =
  Printf.sprintf "seed=%d threads=%d locks=%d len=%d pad=%d pick=%d" seed p.Trace_gen.nthreads
    p.Trace_gen.nlocks p.Trace_gen.length pad pick

let prop_recycling (seed, params, pad, pick) =
  let trace = Trace_gen.random (Prng.create ~seed) params in
  let n = Trace.length trace in
  let config () =
    {
      Detector.nthreads = trace.Trace.nthreads;
      nlocks = trace.Trace.nlocks;
      nlocs = trace.Trace.nlocs;
      clock_size = trace.Trace.nthreads + pad;
      sampler = Sampler.bernoulli ~rate:0.5 ~seed;
    }
  in
  List.for_all
    (fun (name, (module D : RECYCLING)) ->
      let step d i =
        D.handle d i (Trace.get trace i);
        if not (D.check_invariants d) then
          QCheck.Test.fail_reportf "%s: slab invariants broken after event %d" name i
      in
      let outcome d =
        let r = D.result d in
        (Serve.report_text ~events:n r, Metrics.to_json r.Detector.metrics, D.snapshot d)
      in
      let d = D.create (config ()) in
      let cuts = ref [] in
      for i = 0 to n - 1 do
        step d i;
        if D.free_slots d > 0 then cuts := (i + 1) :: !cuts
      done;
      QCheck.assume (!cuts <> []);
      let straight = outcome d in
      let cut = List.nth !cuts (pick mod List.length !cuts) in
      let d = D.create (config ()) in
      for i = 0 to cut - 1 do
        step d i
      done;
      let snap = D.snapshot d in
      let d' = D.restore (config ()) snap in
      if not (D.check_invariants d' && String.equal (D.snapshot d') snap) then
        QCheck.Test.fail_reportf "%s: restore at cut %d is not exact" name cut;
      for i = cut to n - 1 do
        step d' i
      done;
      if outcome d' <> straight then
        QCheck.Test.fail_reportf "%s: resumed run diverges after cut %d (%d free slots)" name
          cut (D.free_slots d);
      true)
    recycling_engines

let recycling_test =
  QCheck.Test.make ~name:"slab counts exact; resume with free slots ≡ straight (so, sl)"
    ~count:60
    (QCheck.make ~print:print_recycling recycling_gen)
    prop_recycling

(* --- .ftc loader fuzzing -------------------------------------------------- *)

(* A small but real checkpoint: SO with a stateful sampler over a random
   trace, snapshotted midway. *)
let sample_checkpoint_string =
  lazy
    (let prng = Prng.create ~seed:99 in
     let trace =
       Trace_gen.random prng { Trace_gen.default with Trace_gen.length = 200 }
     in
     let config =
       {
         Detector.nthreads = trace.Trace.nthreads;
         nlocks = trace.Trace.nlocks;
         nlocs = trace.Trace.nlocs;
         clock_size = trace.Trace.nthreads;
         sampler = Sampler.cold_region ~threshold:2;
       }
     in
     let (module D : Detector.S) = Engine.detector Engine.So in
     let d = D.create config in
     for i = 0 to (Trace.length trace / 2) - 1 do
       D.handle d i (Trace.get trace i)
     done;
     Checkpoint.to_string
       {
         Checkpoint.meta =
           {
             Checkpoint.engine = Engine.So;
             sampler = Sampler.name config.Detector.sampler;
             nthreads = config.Detector.nthreads;
             nlocks = config.Detector.nlocks;
             nlocs = config.Detector.nlocs;
             clock_size = config.Detector.clock_size;
             shards = 0;
             next_index = Trace.length trace / 2;
             byte_offset = -1;
           };
         detector = D.snapshot d;
       })

let expect_error what = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s was accepted" what

let test_fuzz_bit_flips () =
  let s = Lazy.force sample_checkpoint_string in
  (* roundtrip sanity first: the pristine string must load *)
  (match Checkpoint.of_string s with
  | Ok cp -> Alcotest.(check int) "engine survives roundtrip" 0
               (compare cp.Checkpoint.meta.Checkpoint.engine Engine.So)
  | Error msg -> Alcotest.failf "pristine checkpoint rejected: %s" msg);
  String.iteri
    (fun pos c ->
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Char.code c lxor 1));
      expect_error
        (Printf.sprintf "bit flip at byte %d" pos)
        (Checkpoint.of_string (Bytes.to_string b)))
    s

let test_fuzz_truncation () =
  let s = Lazy.force sample_checkpoint_string in
  for len = 0 to String.length s - 1 do
    expect_error
      (Printf.sprintf "truncation to %d bytes" len)
      (Checkpoint.of_string (String.sub s 0 len))
  done

(* Every version byte but the current one is rejected, naming the version;
   version 1 (dense per-location arrays) included — its callers fall back. *)
let test_fuzz_version () =
  let s = Lazy.force sample_checkpoint_string in
  Alcotest.(check char) "byte 4 is the version" (Char.chr Checkpoint.version) s.[4];
  List.iter
    (fun v ->
      let b = Bytes.of_string s in
      Bytes.set b 4 (Char.chr v);
      match Checkpoint.of_string (Bytes.to_string b) with
      | Error msg ->
        Alcotest.(check string)
          (Printf.sprintf "version %d names the version" v)
          (Printf.sprintf "unsupported checkpoint version %d" v)
          msg
      | Ok _ -> Alcotest.failf "version byte %d accepted" v)
    [ 0; 1; Checkpoint.version + 1; 127; 255 ]

let test_fuzz_random_bytes () =
  let prng = Prng.create ~seed:4242 in
  for _ = 1 to 500 do
    let len = Prng.int prng 64 in
    let b = Bytes.init len (fun _ -> Char.chr (Prng.int prng 256)) in
    expect_error "random bytes" (Checkpoint.of_string (Bytes.to_string b))
  done;
  (* random payloads behind a valid magic, version and checksum reach the
     decoders *)
  for _ = 1 to 500 do
    let len = Prng.int prng 96 in
    let payload = String.init len (fun _ -> Char.chr (Prng.int prng 256)) in
    let b = Bytes.create 13 in
    Bytes.blit_string "FTCK" 0 b 0 4;
    Bytes.set b 4 (Char.chr Checkpoint.version);
    Bytes.set_int64_le b 5 (Checkpoint.fnv64 payload);
    expect_error "random payload" (Checkpoint.of_string (Bytes.to_string b ^ payload))
  done

(* --- keyed sections --------------------------------------------------------- *)

(* A keyed section over a universe of 10 whose entries are one int each. *)
let keyed_section ~n ~count keys =
  let enc = Snap.Enc.create () in
  Snap.Enc.int enc n;
  Snap.Enc.int enc count;
  List.iter
    (fun x ->
      Snap.Enc.int enc x;
      Snap.Enc.int enc 7)
    keys;
  Snap.Enc.to_snap enc

let decode_keyed s =
  let dec = Snap.Dec.of_snap s in
  let seen = ref [] in
  Snap.Dec.keyed dec ~n:10 (fun x ->
      Snap.expect (Snap.Dec.int dec = 7) "entry payload";
      seen := x :: !seen);
  Snap.Dec.finish dec;
  List.rev !seen

let test_keyed_roundtrip () =
  let enc = Snap.Enc.create () in
  Snap.Enc.keyed enc ~n:10 ~is_default:(fun x -> x mod 3 <> 0) (fun _ -> Snap.Enc.int enc 7);
  Alcotest.(check (list int)) "only non-default keys, ascending" [ 0; 3; 6; 9 ]
    (decode_keyed (Snap.Enc.to_snap enc));
  Alcotest.(check (list int)) "empty section" [] (decode_keyed (keyed_section ~n:10 ~count:0 []))

let test_keyed_hostile () =
  let rejects what msg s =
    Alcotest.check_raises what (Snap.Corrupt msg) (fun () -> ignore (decode_keyed s))
  in
  rejects "keys out of order" "keyed section key 3 after 5"
    (keyed_section ~n:10 ~count:2 [ 5; 3 ]);
  rejects "repeated key" "keyed section repeats key 4"
    (keyed_section ~n:10 ~count:3 [ 1; 4; 4 ]);
  rejects "key at the universe size" "keyed section key 10 outside 0..9"
    (keyed_section ~n:10 ~count:1 [ 10 ]);
  rejects "negative key" "keyed section key -1 outside 0..9"
    (keyed_section ~n:10 ~count:1 [ -1 ]);
  rejects "count beyond the bytes left" "keyed section of 1000 entries (4 bytes left)"
    (keyed_section ~n:10 ~count:1000 [ 2; 8 ]);
  rejects "negative count" "keyed section of -1 entries (0 bytes left)"
    (keyed_section ~n:10 ~count:(-1) []);
  rejects "different universe" "keyed section over 11 keys, expected 10"
    (keyed_section ~n:11 ~count:0 [])

(* A snapshot's size follows the state the engine holds, not its universe:
   the same db:tpcc prefix at 3 % sampling, declared with 8x the locations,
   snapshots to the same length for every engine, apart from the wider
   location count at the head of its one keyed section. *)
let test_universe_independence () =
  let trace =
    Ft_workloads.Db_sim.generate
      (Option.get (Ft_workloads.Db_sim.profile "tpcc"))
      ~seed:3 ~target_events:30_000
  in
  let nlocs = trace.Trace.nlocs in
  let wide =
    Trace.make ~nthreads:trace.Trace.nthreads ~nlocks:trace.Trace.nlocks ~nlocs:(8 * nlocs)
      (Array.init (Trace.length trace) (Trace.get trace))
  in
  let varint_width n =
    let enc = Snap.Enc.create () in
    Snap.Enc.int enc n;
    String.length (Snap.Enc.to_snap enc)
  in
  let widening = varint_width (8 * nlocs) - varint_width nlocs in
  List.iter
    (fun id ->
      let snap tr =
        let (module D : Detector.S) = Engine.detector id in
        let d =
          D.create (Detector.config_of_trace ~sampler:(Sampler.bernoulli ~rate:0.03 ~seed:1) tr)
        in
        Trace.iteri (fun i e -> D.handle d i e) tr;
        D.snapshot d
      in
      let narrow = snap trace and wide = snap wide in
      Alcotest.(check int)
        (Engine.name id ^ ": snapshot length independent of the universe")
        (String.length narrow + widening)
        (String.length wide))
    engines

(* --- ordered-list regressions -------------------------------------------- *)

let test_ol_deep_copy_preserves_order () =
  let o = Ol.create 6 in
  Ol.set o 3 5;
  Ol.increment o 1 2;
  Ol.set o 4 1;
  Ol.set o 1 7;
  let c = Ol.deep_copy o in
  Alcotest.(check (list int)) "recency order preserved" (Ol.order o) (Ol.order c);
  for t = 0 to 5 do
    Alcotest.(check int) (Printf.sprintf "value %d preserved" t) (Ol.get o t) (Ol.get c t)
  done;
  Alcotest.(check bool) "copy invariants" true (Ol.check_invariants c)

let test_ol_deep_copy_does_not_alias () =
  let o = Ol.create 4 in
  Ol.set o 2 9;
  let order_before = Ol.order o in
  let c = Ol.deep_copy o in
  (* mutating the hand-off copy must not leak into the original *)
  Ol.set c 0 99;
  Ol.increment c 3 5;
  Alcotest.(check int) "original value intact" 0 (Ol.get o 0);
  Alcotest.(check int) "original value intact (3)" 0 (Ol.get o 3);
  Alcotest.(check (list int)) "original order intact" order_before (Ol.order o);
  (* and the other direction *)
  Ol.set o 1 4;
  Alcotest.(check int) "copy unaffected by original" 0 (Ol.get c 1)

let test_ol_snapshot_roundtrip_order () =
  let prng = Prng.create ~seed:31 in
  for n = 1 to 12 do
    let o = Ol.create n in
    for _ = 1 to 40 do
      let t = Prng.int prng n in
      if Prng.bernoulli prng ~p:0.5 then Ol.set o t (Prng.int prng 100)
      else Ol.increment o t (1 + Prng.int prng 5)
    done;
    let enc = Snap.Enc.create () in
    Ol.encode enc o;
    let dec = Snap.Dec.of_snap (Snap.Enc.to_snap enc) in
    let o' = Ol.decode dec ~size:n in
    Snap.Dec.finish dec;
    Alcotest.(check (list int))
      (Printf.sprintf "move-to-front order restored (n=%d)" n)
      (Ol.order o) (Ol.order o');
    for t = 0 to n - 1 do
      Alcotest.(check int) (Printf.sprintf "value %d/%d" t n) (Ol.get o t) (Ol.get o' t)
    done;
    Alcotest.(check bool) "invariants" true (Ol.check_invariants o')
  done

(* --- metrics field-drift guard -------------------------------------------- *)

(* The record is all-int, so its heap block has one field per counter; any
   field added without updating to_array/copy/add breaks one of these. *)
let test_metrics_arity_guard () =
  let m = Metrics.create () in
  Alcotest.(check int) "field_count matches the record's arity"
    (Obj.size (Obj.repr m)) Metrics.field_count;
  Alcotest.(check int) "to_array covers every field" Metrics.field_count
    (Array.length (Metrics.to_array m))

let test_metrics_copy_add_cover_all_fields () =
  let m = Metrics.create () in
  let r = Obj.repr m in
  for i = 0 to Metrics.field_count - 1 do
    Obj.set_field r i (Obj.repr (i + 1))
  done;
  let expected = Array.init Metrics.field_count (fun i -> i + 1) in
  Alcotest.(check (array int)) "to_array sees distinct values" expected (Metrics.to_array m);
  Alcotest.(check (array int)) "copy preserves every field" expected
    (Metrics.to_array (Metrics.copy m));
  let acc = Metrics.create () in
  Metrics.add ~into:acc m;
  Metrics.add ~into:acc m;
  Alcotest.(check (array int)) "add accumulates every field"
    (Array.map (fun v -> 2 * v) expected)
    (Metrics.to_array acc)

let test_metrics_of_array () =
  let arr = Array.init Metrics.field_count (fun i -> 7 * i) in
  (match Metrics.of_array arr with
  | Some m -> Alcotest.(check (array int)) "of_array inverts to_array" arr (Metrics.to_array m)
  | None -> Alcotest.fail "of_array rejected a correct arity");
  Alcotest.(check bool) "wrong arity rejected" true (Metrics.of_array [| 1; 2 |] = None)

(* --- online monitor roundtrip --------------------------------------------- *)

let online_trace =
  lazy
    (let prng = Prng.create ~seed:17 in
     Trace_gen.random prng
       { Trace_gen.default with Trace_gen.length = 600; nthreads = 4; forkjoin = true })

let feed_range monitor trace lo hi =
  for i = lo to hi - 1 do
    match Online.feed monitor (Trace.get trace i) with
    | Ok () -> ()
    | Error { Online.reason; _ } -> Alcotest.failf "event %d rejected: %s" i reason
  done

let test_online_snapshot_roundtrip () =
  let trace = Lazy.force online_trace in
  let n = Trace.length trace in
  let sampler = Sampler.cold_region ~threshold:2 in
  let dims t = (t.Trace.nthreads, t.Trace.nlocks, t.Trace.nlocs) in
  let nthreads, nlocks, nlocs = dims trace in
  let straight = Online.create ~engine:Engine.So ~sampler ~nthreads ~nlocks ~nlocs () in
  feed_range straight trace 0 n;
  let first = Online.create ~engine:Engine.So ~sampler ~nthreads ~nlocks ~nlocs () in
  feed_range first trace 0 (n / 3);
  let resumed =
    Online.restore ~engine:Engine.So ~sampler ~nthreads ~nlocks ~nlocs
      (Online.snapshot first)
  in
  Alcotest.(check int) "events_seen restored" (n / 3) (Online.events_seen resumed);
  feed_range resumed trace (n / 3) n;
  Alcotest.(check bool) "same races" true (Online.races straight = Online.races resumed);
  Alcotest.(check (array int)) "same metrics"
    (Metrics.to_array (Online.metrics straight))
    (Metrics.to_array (Online.metrics resumed))

let test_online_checkpoint_callback () =
  let trace = Lazy.force online_trace in
  let count = ref 0 in
  let monitor =
    Online.create ~engine:Engine.Su ~checkpoint_every:50
      ~on_checkpoint:(fun t -> incr count; ignore (Online.snapshot t))
      ~nthreads:trace.Trace.nthreads ~nlocks:trace.Trace.nlocks ~nlocs:trace.Trace.nlocs ()
  in
  let n = Trace.length trace in
  feed_range monitor trace 0 n;
  Alcotest.(check int) "one callback per interval" (n / 50) !count

let test_online_rejects_corrupt_snapshot () =
  let trace = Lazy.force online_trace in
  let monitor =
    Online.create ~engine:Engine.So ~nthreads:trace.Trace.nthreads
      ~nlocks:trace.Trace.nlocks ~nlocs:trace.Trace.nlocs ()
  in
  feed_range monitor trace 0 100;
  let s = Online.snapshot monitor in
  let truncated = String.sub s 0 (String.length s / 2) in
  match
    Online.restore ~engine:Engine.So ~nthreads:trace.Trace.nthreads
      ~nlocks:trace.Trace.nlocks ~nlocs:trace.Trace.nlocs truncated
  with
  | exception Snap.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated online snapshot accepted"

(* --- resumable .ftb analyses ---------------------------------------------- *)

let with_temp_ftb f =
  let prng = Prng.create ~seed:5 in
  let trace =
    Trace_gen.random prng
      { Trace_gen.default with
        Trace_gen.length = 3_000; nthreads = 4; nlocks = 3; nlocs = 8; forkjoin = true }
  in
  let path = Filename.temp_file "ftc_test" ".ftb" in
  Trace_binary.to_file path trace;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path trace)

let get_ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "runner failed: %s" msg

let check_same_outcome name (a : Runner.outcome) (b : Runner.outcome) =
  Alcotest.(check bool) (name ^ ": same races") true
    (a.Runner.result.Detector.races = b.Runner.result.Detector.races);
  Alcotest.(check (array int)) (name ^ ": same metrics")
    (Metrics.to_array a.Runner.result.Detector.metrics)
    (Metrics.to_array b.Runner.result.Detector.metrics)

let test_runner_resume_equals_straight () =
  with_temp_ftb @@ fun path _trace ->
  let cp = Filename.temp_file "ftc_test" ".ftc" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists cp then Sys.remove cp) @@ fun () ->
  List.iter
    (fun engine ->
      let sampler = Sampler.bernoulli ~rate:0.4 ~seed:9 in
      let straight = get_ok (Runner.analyze_file ~engine ~sampler path) in
      let checkpointed =
        get_ok (Runner.analyze_file ~engine ~sampler ~checkpoint:cp ~checkpoint_every:1_000 path)
      in
      Alcotest.(check bool)
        (Engine.name engine ^ ": checkpoints written")
        true
        (checkpointed.Runner.checkpoints_written > 0);
      let resumed = get_ok (Runner.analyze_file ~engine ~sampler ~resume:cp path) in
      (match resumed.Runner.resumed_at with
      | Some k -> Alcotest.(check bool) (Engine.name engine ^ ": resumed midway") true (k > 0)
      | None ->
        Alcotest.failf "%s: did not resume (%s)" (Engine.name engine)
          (Option.value resumed.Runner.resume_error ~default:"?"));
      check_same_outcome (Engine.name engine) straight resumed)
    [ Engine.Djit; Engine.Fasttrack; Engine.Fasttrack_tc; Engine.St; Engine.Su; Engine.So ]

let test_runner_fallback_on_bad_checkpoint () =
  with_temp_ftb @@ fun path _trace ->
  let sampler = Sampler.bernoulli ~rate:0.4 ~seed:9 in
  let straight = get_ok (Runner.analyze_file ~engine:Engine.So ~sampler path) in
  let cp = Filename.temp_file "ftc_test" ".ftc" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists cp then Sys.remove cp) @@ fun () ->
  let good =
    get_ok
      (Runner.analyze_file ~engine:Engine.So ~sampler ~checkpoint:cp ~checkpoint_every:1_000
         path)
  in
  Alcotest.(check bool) "wrote checkpoints" true (good.Runner.checkpoints_written > 0);
  let valid = In_channel.with_open_bin cp In_channel.input_all in
  let try_resume ?sampler:(s = sampler) ?engine:(e = Engine.So) () =
    let o = get_ok (Runner.analyze_file ~engine:e ~sampler:s ~resume:cp path) in
    (match e with
    | Engine.So ->
      Alcotest.(check bool) "fell back" true (o.Runner.resume_error <> None);
      check_same_outcome "fallback" straight o
    | _ -> Alcotest.(check bool) "fell back" true (o.Runner.resume_error <> None));
    o
  in
  (* truncations at a few boundaries: never a wrong-answer resume *)
  List.iter
    (fun len ->
      Out_channel.with_open_bin cp (fun oc ->
          Out_channel.output_string oc (String.sub valid 0 len));
      ignore (try_resume ()))
    [ 0; 4; 5; 12; String.length valid / 2; String.length valid - 1 ];
  (* bit flip in the payload *)
  let flipped = Bytes.of_string valid in
  Bytes.set flipped (String.length valid / 2)
    (Char.chr (Char.code valid.[String.length valid / 2] lxor 0x10));
  Out_channel.with_open_bin cp (fun oc -> Out_channel.output_bytes oc flipped);
  ignore (try_resume ());
  (* restore the valid checkpoint: engine / sampler mismatches must fall back *)
  Out_channel.with_open_bin cp (fun oc -> Out_channel.output_string oc valid);
  ignore (try_resume ~engine:Engine.Su ());
  let o = get_ok (Runner.analyze_file ~engine:Engine.So ~sampler:Sampler.all ~resume:cp path) in
  Alcotest.(check bool) "sampler mismatch falls back" true (o.Runner.resume_error <> None)

let test_runner_trace_resume () =
  (* the in-memory path (textual traces): index-based skip, no byte offset *)
  let prng = Prng.create ~seed:23 in
  let trace =
    Trace_gen.random prng { Trace_gen.default with Trace_gen.length = 2_000; nthreads = 3 }
  in
  let sampler = Sampler.adaptive ~base_rate:3 in
  let cp = Filename.temp_file "ftc_test" ".ftc" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists cp then Sys.remove cp) @@ fun () ->
  let straight = get_ok (Runner.analyze_trace ~engine:Engine.So ~sampler trace) in
  let checkpointed =
    get_ok (Runner.analyze_trace ~engine:Engine.So ~sampler ~checkpoint:cp ~checkpoint_every:700 trace)
  in
  Alcotest.(check bool) "wrote checkpoints" true (checkpointed.Runner.checkpoints_written > 0);
  let resumed = get_ok (Runner.analyze_trace ~engine:Engine.So ~sampler ~resume:cp trace) in
  Alcotest.(check bool) "resumed" true (resumed.Runner.resumed_at <> None);
  check_same_outcome "trace resume" straight resumed

(* The sharded shape of the same contract: K = 1 (in-line), 2 and 4 shards
   checkpoint all their state into one file, and a run resumed from it
   equals the straight unsharded run, for every engine. *)
let test_runner_sharded_resume () =
  with_temp_ftb @@ fun path _trace ->
  let cp = Filename.temp_file "ftc_test" ".ftc" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists cp then Sys.remove cp) @@ fun () ->
  let sampler = Sampler.bernoulli ~rate:0.4 ~seed:9 in
  List.iter
    (fun engine ->
      let straight = get_ok (Runner.analyze_file ~engine ~sampler path) in
      List.iter
        (fun shards ->
          let name = Printf.sprintf "%s K=%d" (Engine.name engine) shards in
          let checkpointed =
            get_ok
              (Runner.analyze_file ~engine ~sampler ~shards ~checkpoint:cp
                 ~checkpoint_every:1_000 path)
          in
          Alcotest.(check bool) (name ^ ": checkpoints written") true
            (checkpointed.Runner.checkpoints_written > 0);
          check_same_outcome (name ^ " straight") straight checkpointed;
          let resumed = get_ok (Runner.analyze_file ~engine ~sampler ~shards ~resume:cp path) in
          (match resumed.Runner.resumed_at with
          | Some k -> Alcotest.(check bool) (name ^ ": resumed midway") true (k > 0)
          | None ->
            Alcotest.failf "%s: did not resume (%s)" name
              (Option.value resumed.Runner.resume_error ~default:"?"));
          check_same_outcome (name ^ " resumed") straight resumed)
        [ 1; 2; 4 ])
    (Engine.all @ [ Engine.Eraser ])

(* A checkpoint records its shape, and only the same shape resumes from it:
   a single-stream file under shards, a sharded one without, K shards
   under K' — each is refused with a reason naming both shapes, and the
   full replay gives the straight run's result. *)
let test_runner_shape_mismatch_falls_back () =
  with_temp_ftb @@ fun path trace ->
  let sampler = Sampler.adaptive ~base_rate:3 in
  let engine = Engine.So in
  let straight = get_ok (Runner.analyze_file ~engine ~sampler path) in
  let cp = Filename.temp_file "ftc_test" ".ftc" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists cp then Sys.remove cp) @@ fun () ->
  let shape = function None -> "a single stream" | Some k -> Printf.sprintf "%d shards" k in
  List.iter
    (fun (written, resumed) ->
      let name = Printf.sprintf "%s → %s" (shape written) (shape resumed) in
      ignore
        (get_ok
           (Runner.analyze_file ~engine ~sampler ?shards:written ~checkpoint:cp
              ~checkpoint_every:1_000 path));
      let check o =
        Alcotest.(check (option string)) (name ^ ": refused")
          (Some
             (Printf.sprintf "checkpoint was taken with %s, not %s" (shape written)
                (shape resumed)))
          o.Runner.resume_error;
        Alcotest.(check (option int)) (name ^ ": replayed") None o.Runner.resumed_at;
        check_same_outcome name straight o
      in
      check (get_ok (Runner.analyze_file ~engine ~sampler ?shards:resumed ~resume:cp path));
      (* the in-memory path validates the same way *)
      check (get_ok (Runner.analyze_trace ~engine ~sampler ?shards:resumed ~resume:cp trace)))
    [
      (None, Some 1);
      (None, Some 2);
      (Some 1, None);
      (Some 4, None);
      (Some 2, Some 4);
      (Some 4, Some 1);
    ]

let () =
  Alcotest.run "checkpoint"
    [
      ("prefix equivalence", [ QCheck_alcotest.to_alcotest prefix_equivalence_test ]);
      ("lazy-copy slab", [ QCheck_alcotest.to_alcotest recycling_test ]);
      ( "ftc fuzzing",
        [
          Alcotest.test_case "bit flips all rejected" `Quick test_fuzz_bit_flips;
          Alcotest.test_case "truncation at every byte" `Quick test_fuzz_truncation;
          Alcotest.test_case "wrong version byte" `Quick test_fuzz_version;
          Alcotest.test_case "random bytes" `Quick test_fuzz_random_bytes;
        ] );
      ( "keyed sections",
        [
          Alcotest.test_case "roundtrip keeps non-default keys" `Quick test_keyed_roundtrip;
          Alcotest.test_case "hostile sections rejected with exact errors" `Quick
            test_keyed_hostile;
          Alcotest.test_case "snapshot size independent of the universe (11 engines)" `Quick
            test_universe_independence;
        ] );
      ( "ordered list",
        [
          Alcotest.test_case "deep copy preserves order" `Quick test_ol_deep_copy_preserves_order;
          Alcotest.test_case "deep copy does not alias" `Quick test_ol_deep_copy_does_not_alias;
          Alcotest.test_case "snapshot restores order" `Quick test_ol_snapshot_roundtrip_order;
        ] );
      ( "metrics guard",
        [
          Alcotest.test_case "arity" `Quick test_metrics_arity_guard;
          Alcotest.test_case "copy/add cover all fields" `Quick
            test_metrics_copy_add_cover_all_fields;
          Alcotest.test_case "of_array" `Quick test_metrics_of_array;
        ] );
      ( "online",
        [
          Alcotest.test_case "snapshot roundtrip" `Quick test_online_snapshot_roundtrip;
          Alcotest.test_case "checkpoint callback" `Quick test_online_checkpoint_callback;
          Alcotest.test_case "corrupt snapshot rejected" `Quick
            test_online_rejects_corrupt_snapshot;
        ] );
      ( "resumable analyses",
        [
          Alcotest.test_case "resume ≡ straight run (.ftb seek)" `Quick
            test_runner_resume_equals_straight;
          Alcotest.test_case "bad checkpoints fall back, never lie" `Quick
            test_runner_fallback_on_bad_checkpoint;
          Alcotest.test_case "in-memory resume" `Quick test_runner_trace_resume;
          Alcotest.test_case "sharded resume ≡ straight run (K = 1, 2, 4)" `Quick
            test_runner_sharded_resume;
          Alcotest.test_case "shard-count mismatch falls back" `Quick
            test_runner_shape_mismatch_falls_back;
        ] );
    ]
