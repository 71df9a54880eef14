module Event = Ft_trace.Event
module Detector = Ft_core.Detector
module Engine = Ft_core.Engine
module Sampler = Ft_core.Sampler
module Metrics = Ft_core.Metrics
module Race = Ft_core.Race
module Snap = Ft_core.Snap
module Fault = Ft_fault.Fault

type msg =
  | Ev of int * Event.t
  | Mark of Event.tid  (* replicate a pending-bit transition: note_sampled *)
  | Stop

(* One engine instance behind closures, so the router can hold K of them
   without knowing the engine's state type: fresh, or restored from a
   snapshot. *)
type inst = {
  i_handle : int -> Event.t -> unit;
  i_note : Event.tid -> unit;
  i_result : unit -> Detector.result;
  i_snapshot : unit -> Snap.t;
}

let make_inst (module D : Detector.S) config snap =
  let d = match snap with None -> D.create config | Some s -> D.restore config s in
  {
    i_handle = (fun i e -> D.handle d i e);
    i_note = (fun t -> D.note_sampled d t);
    i_result = (fun () -> D.result d);
    i_snapshot = (fun () -> D.snapshot d);
  }

(* Per-shard control block.  The router domain owns [domain]; the worker
   publishes [fail] when it dies or its handler raises. *)
type shard = {
  ring : msg Spsc.t;
  inst : inst;
  mutable domain : unit Domain.t option;
  fail : (string * bool) option Atomic.t;  (* reason, domain exited abruptly *)
}

type t = {
  k : int;  (* K = 1 is the in-line path: the caller's domain is the shard *)
  shards : shard array;
  baseline : inst option;
      (* K ≥ 2: same engine, fed only the broadcast sync stream; at K = 1
         the one shard sees every event, so there is nothing to subtract *)
  sampler_inst : Sampler.instance;
  pending : bool array;  (* mirror of every instance's pending bit, per thread *)
  routed : int array;  (* events pushed per shard ring; router-domain only *)
  mutable nevents : int;
  mutable stopped : bool;
}

let ring_capacity = 1024

(* Deterministic location → shard map (splitmix-style finalizer): stable
   across runs and platforms, so sharded checkpoints stay valid. *)
let owner_of ~shards x =
  if shards = 1 then 0
  else begin
    let h = x * 0x9E3779B1 in
    let h = (h lxor (h lsr 16)) * 0x85EBCA6B in
    ((h lxor (h lsr 13)) land max_int) mod shards
  end

let apply inst = function
  | Ev (i, e) -> inst.i_handle i e
  | Mark th -> inst.i_note th
  | Stop -> assert false

(* Workers process their ring until [Stop].  A handler exception is recorded
   once (first failure wins) and the worker keeps draining without
   processing, so the router can never deadlock pushing into a dead shard —
   except for an injected [Crash_domain], which abandons the ring mid-message
   exactly like a genuinely dead domain would; the router drains it after
   the join. *)
let worker sh idx () =
  let ring = sh.ring and inst = sh.inst in
  let failed = ref false in
  let crashed = ref false in
  let rec loop spins =
    if not !crashed then
      match Spsc.peek ring with
      | None ->
        Domain.cpu_relax ();
        (* an idle shard (e.g. a serve daemon between batches) must not pin a
           core: back off to short sleeps after a burst of empty polls *)
        if spins > 4096 then Unix.sleepf 0.0002;
        loop (if spins > 4096 then spins else spins + 1)
      | Some Stop -> Spsc.advance ring
      | Some msg ->
        if not !failed then begin
          try
            Fault.point ~lane:idx
              ~supports:[ Fault.Exn; Fault.Crash_domain; Fault.Delay ] "shard.step";
            apply inst msg
          with
          | Fault.Injected ({ Fault.kind = Fault.Crash_domain; _ } as inc) ->
            crashed := true;
            Atomic.set sh.fail (Some (Fault.describe inc, true))
          | exn ->
            failed := true;
            let bt = Printexc.get_backtrace () in
            let reason = Printexc.to_string exn in
            let reason = if bt = "" then reason else reason ^ "\n" ^ bt in
            Atomic.set sh.fail (Some (reason, false))
        end;
        if not !crashed then begin
          Spsc.advance ring;
          loop 0
        end
  in
  loop 0

let failure_msg s reason = Printf.sprintf "Sharded: shard %d failed: %s" s reason

(* Join a shard's worker and leave its ring empty.  A live or [Exn]-failed
   worker is still draining, so a [Stop] reaches it; a crashed one abandoned
   the ring and the router sweeps up after the join. *)
let reap sh =
  match sh.domain with
  | None -> ()
  | Some d ->
    let exited = match Atomic.get sh.fail with Some (_, e) -> e | None -> false in
    if not exited then Spsc.push sh.ring Stop;
    Domain.join d;
    sh.domain <- None;
    while not (Spsc.is_empty sh.ring) do
      Spsc.advance sh.ring
    done

(* Fail fast on a shard that recorded a failure: join its domain (no leak
   on the failure path) and raise the diagnostic. *)
let fail_shard t s =
  match Atomic.get t.shards.(s).fail with
  | None -> ()
  | Some (reason, _) ->
    reap t.shards.(s);
    failwith (failure_msg s reason)

(* The in-line path: the caller's domain runs the only shard's engine — no
   ring, no worker domain, no spin-wait.  A raising handler poisons the
   shard as a failed worker domain would: the exception propagates now, and
   every later operation fails with the recorded diagnostic.  There is no
   domain to crash, so [shard.step] fires [Exn] and [Delay] only. *)
let step_inline t m =
  let sh = t.shards.(0) in
  fail_shard t 0;
  try
    Fault.point ~supports:[ Fault.Exn; Fault.Delay ] "shard.step";
    apply sh.inst m
  with exn ->
    let bt = Printexc.get_raw_backtrace () in
    Atomic.set sh.fail (Some (Printexc.to_string exn, false));
    Printexc.raise_with_backtrace exn bt

(* Route one message to shard [s].  A failure surfaces only when the ring
   is full (a draining worker keeps it empty); otherwise the next flush
   reports it. *)
let push_msg t s m =
  if t.k = 1 then step_inline t m
  else begin
    let sh = t.shards.(s) in
    Fault.point ~lane:s ~supports:[ Fault.Delay ] "spsc.push";
    while not (Spsc.try_push sh.ring m) do
      fail_shard t s;
      Domain.cpu_relax ()
    done
  end

let build ~shards:k ~shard_insts ~baseline ~sampler_inst ~pending ~nevents =
  let shards =
    Array.map
      (fun inst ->
        {
          ring = Spsc.create ~capacity:ring_capacity ~dummy:Stop;
          inst;
          domain = None;
          fail = Atomic.make None;
        })
      shard_insts
  in
  if k > 1 then
    Array.iteri (fun s sh -> sh.domain <- Some (Domain.spawn (worker sh s))) shards;
  {
    k;
    shards;
    baseline;
    sampler_inst;
    pending;
    routed = Array.make k 0;
    nevents;
    stopped = false;
  }

let create ~engine ~shards:k (config : Detector.config) =
  if k < 1 then invalid_arg "Sharded.create: shards must be positive";
  let packed = Engine.detector engine in
  build ~shards:k
    ~shard_insts:(Array.init k (fun _ -> make_inst packed config None))
    ~baseline:(if k >= 2 then Some (make_inst packed config None) else None)
    ~sampler_inst:(Sampler.fresh config.Detector.sampler)
    ~pending:(Array.make config.Detector.nthreads false)
    ~nevents:0

let base_handle t i e = match t.baseline with Some b -> b.i_handle i e | None -> ()
let base_note t th = match t.baseline with Some b -> b.i_note th | None -> ()

let broadcast t m =
  for s = 0 to t.k - 1 do
    push_msg t s m;
    t.routed.(s) <- t.routed.(s) + 1
  done

let handle t i (e : Event.t) =
  if t.stopped then failwith "Sharded.handle: detector is stopped";
  (match e.Event.op with
  | Event.Read x | Event.Write x ->
    let o = owner_of ~shards:t.k x in
    (* The router's sampler instance sees every access, exactly once, in
       trace order — the instance contract.  Query before the && so stateful
       strategies advance even while the bit is already set. *)
    let sampled = Sampler.query t.sampler_inst i e in
    if sampled && not t.pending.(e.Event.thread) then begin
      t.pending.(e.Event.thread) <- true;
      for s = 0 to t.k - 1 do
        (* the owner sets its own bit when it handles the event *)
        if s <> o then push_msg t s (Mark e.Event.thread)
      done;
      base_note t e.Event.thread
    end;
    push_msg t o (Ev (i, e));
    t.routed.(o) <- t.routed.(o) + 1
  | Event.Acquire _ | Event.Acquire_load _ ->
    (* acquires never flush pending *)
    broadcast t (Ev (i, e));
    base_handle t i e
  | Event.Release _ | Event.Release_store _ ->
    broadcast t (Ev (i, e));
    base_handle t i e;
    t.pending.(e.Event.thread) <- false
  | Event.Fork _ ->
    (* fork flushes the forking thread *)
    broadcast t (Ev (i, e));
    base_handle t i e;
    t.pending.(e.Event.thread) <- false
  | Event.Join u ->
    (* join flushes the joined child *)
    broadcast t (Ev (i, e));
    base_handle t i e;
    t.pending.(u) <- false);
  t.nevents <- t.nevents + 1

(* A pending-bit transition whose triggering access is owned elsewhere — a
   cluster worker applying a [Mark] from its router (see {!Cmsg}).  From
   this detector's point of view no internal shard owns the access, so the
   mark goes to every shard, exactly as [handle] sends it to every
   non-owner; the baseline notes it too, keeping the internal baseline
   identical to the global run's.  Not an event: [nevents] and the routed
   counters stay put. *)
let note_sampled t th =
  if t.stopped then failwith "Sharded.note_sampled: detector is stopped";
  if th < 0 || th >= Array.length t.pending then
    failwith (Printf.sprintf "Sharded.note_sampled: thread %d out of range" th);
  if not t.pending.(th) then begin
    t.pending.(th) <- true;
    for s = 0 to t.k - 1 do
      push_msg t s (Mark th)
    done;
    base_note t th
  end

let events t = t.nevents

let shard_event_counts t = Array.copy t.routed

let ring_occupancy t = Array.map (fun sh -> Spsc.length sh.ring) t.shards

(* Wait until every shard has fully processed everything routed so far, or
   fail with the first shard failure seen. *)
let flush t =
  if t.stopped then Array.iteri (fun s _ -> fail_shard t s) t.shards
  else
    Array.iteri
      (fun s sh ->
        while (not (Spsc.is_empty sh.ring)) && Atomic.get sh.fail = None do
          Domain.cpu_relax ()
        done;
        fail_shard t s)
      t.shards

let check t = Array.iteri (fun s _ -> fail_shard t s) t.shards

let result t =
  flush t;
  let rs = Array.map (fun sh -> sh.inst.i_result ()) t.shards in
  match t.baseline with
  | None -> rs.(0)
  | Some baseline ->
    let base = baseline.i_result () in
    let races =
      List.sort
        (fun (a : Race.t) (b : Race.t) -> Stdlib.compare a.Race.index b.Race.index)
        (List.concat_map (fun (r : Detector.result) -> r.Detector.races) (Array.to_list rs))
    in
    {
      Detector.engine = base.Detector.engine;
      races;
      metrics =
        Metrics.merge_shards ~sync_baseline:base.Detector.metrics
          (Array.map (fun (r : Detector.result) -> r.Detector.metrics) rs);
    }

(* Every domain is joined before a recorded failure is raised: no leaks on
   the fail-fast path. *)
let stop t =
  if not t.stopped then begin
    Array.iter reap t.shards;
    t.stopped <- true;
    check t
  end

(* Router state first — K, the event count, the replicated pending bits,
   the router's sampler state and (K ≥ 2) the sync-only baseline — then
   the K shard snapshots. *)
let snapshot t =
  flush t;
  let enc = Snap.Enc.create () in
  Snap.Enc.int enc t.k;
  Snap.Enc.int enc t.nevents;
  Snap.Enc.bool_array enc t.pending;
  t.sampler_inst.Sampler.save enc;
  Option.iter (fun b -> Snap.Enc.string enc (b.i_snapshot ())) t.baseline;
  Array.iter (fun sh -> Snap.Enc.string enc (sh.inst.i_snapshot ())) t.shards;
  Snap.Enc.to_snap enc

let restore ~engine ~shards:k (config : Detector.config) snap =
  if k < 1 then invalid_arg "Sharded.restore: shards must be positive";
  let dec = Snap.Dec.of_snap snap in
  let k' = Snap.Dec.int dec in
  Snap.expect (k' = k) "Sharded.restore: snapshot was taken with a different K";
  let nevents = Snap.Dec.int dec in
  Snap.expect (nevents >= 0) "Sharded.restore: negative event count";
  let pending = Snap.Dec.bool_array_n dec config.Detector.nthreads in
  let sampler_inst = Sampler.fresh config.Detector.sampler in
  sampler_inst.Sampler.load dec;
  let base_snap = if k >= 2 then Some (Snap.Dec.string dec) else None in
  let shard_snaps = Array.init k (fun _ -> Snap.Dec.string dec) in
  Snap.Dec.finish dec;
  let packed = Engine.detector engine in
  (* restore every engine before spawning a domain: a corrupt shard
     snapshot raises here, with nothing to join *)
  let shard_insts = Array.map (fun s -> make_inst packed config (Some s)) shard_snaps in
  build ~shards:k ~shard_insts
    ~baseline:(Option.map (fun s -> make_inst packed config (Some s)) base_snap)
    ~sampler_inst ~pending ~nevents
