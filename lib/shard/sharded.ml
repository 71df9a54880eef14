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

exception Shard_failed of string

(* One engine instance behind closures, so the router can hold K of them
   without knowing the engine's state type. *)
type inst = {
  i_handle : int -> Event.t -> unit;
  i_note : Event.tid -> unit;
  i_result : unit -> Detector.result;
  i_snapshot : unit -> Snap.t;
}

let fresh_inst (module D : Detector.S) config =
  let d = D.create config in
  {
    i_handle = (fun i e -> D.handle d i e);
    i_note = (fun t -> D.note_sampled d t);
    i_result = (fun () -> D.result d);
    i_snapshot = (fun () -> D.snapshot d);
  }

let restored_inst (module D : Detector.S) config snap =
  let d = D.restore config snap in
  {
    i_handle = (fun i e -> D.handle d i e);
    i_note = (fun t -> D.note_sampled d t);
    i_result = (fun () -> D.result d);
    i_snapshot = (fun () -> D.snapshot d);
  }

(* Per-shard control block.  The router domain owns every mutable field
   except [fail] and [snap_slot], which the worker publishes through
   atomics: [fail] when it dies or its handler raises, [snap_slot] with a
   periodic (message-count, snapshot) pair that bounds how far a recovery
   has to replay. *)
type shard = {
  ring : msg Spsc.t;
  mutable inst : inst;
  mutable domain : unit Domain.t option;
  fail : (string * bool) option Atomic.t;  (* reason, domain exited abruptly *)
  snap_slot : (int * Snap.t) option Atomic.t;
  mutable pushed : int;  (* messages ever routed to this shard (next seq) *)
  mutable backlog : msg array;  (* supervised only: messages [bbase, pushed) *)
  mutable blen : int;
  mutable bbase : int;
  mutable restore_count : int;  (* messages covered by [restore_snap] *)
  mutable restore_snap : Snap.t option;
  mutable restarts : int;
  mutable dead : string option;  (* restart budget exhausted: fail-fast *)
}

type t = {
  engine : Engine.id;
  packed : (module Detector.S);
  config : Detector.config;
  k : int;
  supervise : bool;
  inline : bool;  (* K = 1, unsupervised: the caller's domain is the shard *)
  max_restarts : int;
  snapshot_every : int;
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
let default_max_restarts = 8
let default_snapshot_every = 2048

(* Deterministic location → shard map (splitmix-style finalizer): stable
   across runs and platforms, so per-shard checkpoints stay valid. *)
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
   exactly like a genuinely dead domain would; the supervisor drains it after
   the join.  [start] is the global per-shard message count already applied to
   [inst] when this worker was spawned (0 for a fresh shard, the restore
   point after a recovery), so published snapshot counts stay globally
   consistent across restarts. *)
let worker sh inst ~supervise ~snapshot_every ~start idx () =
  let ring = sh.ring in
  let failed = ref false in
  let crashed = ref false in
  let processed = ref start in
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
            apply inst msg;
            incr processed;
            if supervise && snapshot_every > 0 && !processed mod snapshot_every = 0
            then Atomic.set sh.snap_slot (Some (!processed, inst.i_snapshot ()))
          with
          | Fault.Injected ({ Fault.kind = Fault.Crash_domain; _ } as inc) ->
            crashed := true;
            Atomic.set sh.fail (Some (Fault.describe inc, true))
          | exn ->
            failed := true;
            let bt = Printexc.get_backtrace () in
            Atomic.set sh.fail (Some (Printexc.to_string exn ^ "\n" ^ bt, false))
        end;
        if not !crashed then begin
          Spsc.advance ring;
          loop 0
        end
  in
  loop 0

let spawn_shard t s =
  let sh = t.shards.(s) in
  let inst = sh.inst in
  sh.domain <-
    Some
      (Domain.spawn
         (worker sh inst ~supervise:t.supervise ~snapshot_every:t.snapshot_every
            ~start:sh.restore_count s))

(* --- router-side backlog (supervised mode only) -------------------------- *)

let backlog_push sh m =
  if sh.blen = Array.length sh.backlog then begin
    let a = Array.make (Stdlib.max 64 (2 * Array.length sh.backlog)) Stop in
    Array.blit sh.backlog 0 a 0 sh.blen;
    sh.backlog <- a
  end;
  sh.backlog.(sh.blen) <- m;
  sh.blen <- sh.blen + 1

let backlog_get sh seq = sh.backlog.(seq - sh.bbase)

(* Pick up the worker's latest published snapshot and drop the backlog
   prefix it covers — the supervisor only ever replays from the newest
   restore point, so older messages can go. *)
let adopt_snapshot sh =
  match Atomic.get sh.snap_slot with
  | Some (c, snap) when c > sh.restore_count ->
    sh.restore_count <- c;
    sh.restore_snap <- Some snap;
    let drop = c - sh.bbase in
    if drop > 0 then begin
      let rest = sh.blen - drop in
      Array.blit sh.backlog drop sh.backlog 0 rest;
      sh.blen <- rest;
      sh.bbase <- c
    end
  | _ -> ()

let failure_msg s reason = Printf.sprintf "Sharded: shard %d failed: %s" s reason

let first_line s = match String.index_opt s '\n' with
  | None -> s
  | Some i -> String.sub s 0 i

(* Join a failed worker and leave its ring empty.  An [Exn]-failed worker is
   still draining, so a [Stop] reaches it; a crashed one abandoned the ring
   and the router sweeps up after the join. *)
let reap t s =
  let sh = t.shards.(s) in
  (match sh.domain with
  | None -> ()
  | Some d ->
    let exited = match Atomic.get sh.fail with Some (_, e) -> e | None -> false in
    if not exited then Spsc.push sh.ring Stop;
    Domain.join d;
    sh.domain <- None);
  while not (Spsc.is_empty sh.ring) do
    Spsc.advance sh.ring
  done

(* Self-healing: rebuild a failed shard from its last adopted snapshot and
   replay the backlog suffix.  Restores are exact — the replayed engine
   reaches precisely the state an unfaulted run would have — so verdicts
   are unaffected (the REPORT oracle of the chaos suite).  Bounded by
   [max_restarts] strikes per shard, after which the shard is marked dead
   and every subsequent operation fails fast with the diagnostic. *)
let rec heal t s =
  let sh = t.shards.(s) in
  match Atomic.get sh.fail with
  | None -> ()
  | Some (reason, _) ->
    if not t.supervise then begin
      reap t s;
      failwith (failure_msg s reason)
    end;
    sh.restarts <- sh.restarts + 1;
    reap t s;
    Atomic.set sh.fail None;
    if sh.restarts > t.max_restarts then begin
      let diag =
        Printf.sprintf
          "shard %d exceeded its restart budget (%d strikes): last failure: %s" s
          t.max_restarts (first_line reason)
      in
      sh.dead <- Some diag;
      raise (Shard_failed diag)
    end;
    adopt_snapshot sh;
    (match sh.restore_snap with
    | Some snap -> sh.inst <- restored_inst t.packed t.config snap
    | None -> sh.inst <- fresh_inst t.packed t.config);
    Printf.eprintf
      "[supervisor] shard %d failed (%s); restart %d/%d, restored at message %d, \
       replaying %d\n%!"
      s (first_line reason) sh.restarts t.max_restarts sh.restore_count
      (sh.pushed - sh.restore_count);
    spawn_shard t s;
    let seq = ref sh.restore_count in
    let live = ref true in
    while !live && !seq < sh.pushed do
      if Spsc.try_push sh.ring (backlog_get sh !seq) then incr seq
      else if Atomic.get sh.fail <> None then live := false
      else Domain.cpu_relax ()
    done;
    if Atomic.get sh.fail <> None then heal t s

let check_dead sh =
  match sh.dead with Some diag -> raise (Shard_failed diag) | None -> ()

(* The in-line path: the caller's domain runs the only shard's engine — no
   ring, no worker domain, no spin-wait.  A raising handler poisons the
   shard as a failed worker domain would: the exception propagates now, and
   every later operation fails with the recorded diagnostic.  There is no
   domain to crash, so [shard.step] fires [Exn] and [Delay] only. *)
let step_inline t m =
  let sh = t.shards.(0) in
  (match Atomic.get sh.fail with
  | Some (reason, _) -> failwith (failure_msg 0 reason)
  | None -> ());
  try
    Fault.point ~supports:[ Fault.Exn; Fault.Delay ] "shard.step";
    apply sh.inst m
  with exn ->
    let bt = Printexc.get_raw_backtrace () in
    Atomic.set sh.fail (Some (Printexc.to_string exn, false));
    Printexc.raise_with_backtrace exn bt

(* Route one message to shard [s].  Failure-aware: a supervised push heals
   a failed shard first (the healed replay delivers [m], which is already
   in the backlog); an unsupervised push surfaces the failure only when the
   ring is full (a draining worker keeps it empty), preserving the old
   fail-at-flush behavior. *)
let push_msg t s m =
  if t.inline then step_inline t m
  else begin
    let sh = t.shards.(s) in
    check_dead sh;
    if t.supervise then begin
      adopt_snapshot sh;
      backlog_push sh m
    end;
    sh.pushed <- sh.pushed + 1;
    Fault.point ~lane:s ~supports:[ Fault.Delay ] "spsc.push";
    if t.supervise && Atomic.get sh.fail <> None then heal t s
    else begin
      let rec go () =
        if not (Spsc.try_push sh.ring m) then begin
          if Atomic.get sh.fail <> None then heal t s
          else begin
            Domain.cpu_relax ();
            go ()
          end
        end
      in
      go ()
    end
  end

let build ~engine ~shards:k ?(supervise = false) ?(max_restarts = default_max_restarts)
    ?(snapshot_every = default_snapshot_every) config ~shard_insts ~baseline
    ~sampler_inst ~pending ~nevents =
  let t =
    {
      engine;
      packed = Engine.detector engine;
      config;
      k;
      supervise;
      inline = k = 1 && not supervise;
      max_restarts;
      snapshot_every;
      shards =
        Array.map
          (fun inst ->
            {
              ring = Spsc.create ~capacity:ring_capacity ~dummy:Stop;
              inst;
              domain = None;
              fail = Atomic.make None;
              snap_slot = Atomic.make None;
              pushed = 0;
              backlog = [||];
              blen = 0;
              bbase = 0;
              restore_count = 0;
              restore_snap = None;
              restarts = 0;
              dead = None;
            })
          shard_insts;
      baseline;
      sampler_inst;
      pending;
      routed = Array.make k 0;
      nevents;
      stopped = false;
    }
  in
  if not t.inline then
    for s = 0 to k - 1 do
      spawn_shard t s
    done;
  t

let create ~engine ~shards:k ?supervise ?max_restarts ?snapshot_every
    (config : Detector.config) =
  if k < 1 then invalid_arg "Sharded.create: shards must be positive";
  let packed = Engine.detector engine in
  build ~engine ~shards:k ?supervise ?max_restarts ?snapshot_every config
    ~shard_insts:(Array.init k (fun _ -> fresh_inst packed config))
    ~baseline:(if k >= 2 then Some (fresh_inst packed config) else None)
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

let restarts_total t = Array.fold_left (fun acc sh -> acc + sh.restarts) 0 t.shards

(* Wait until every shard has fully processed everything routed so far,
   healing failures as they surface (a heal replays, so the wait starts
   over). *)
let flush t =
  if not t.stopped then begin
    let again = ref true in
    while !again do
      again := false;
      Array.iteri
        (fun s sh ->
          check_dead sh;
          while (not (Spsc.is_empty sh.ring)) && Atomic.get sh.fail = None do
            Domain.cpu_relax ()
          done;
          if Atomic.get sh.fail <> None then begin
            heal t s;
            again := true
          end)
        t.shards
    done
  end
  else Array.iter check_dead t.shards

let check t =
  if not t.stopped then
    Array.iteri
      (fun s sh ->
        check_dead sh;
        if Atomic.get sh.fail <> None then heal t s)
      t.shards

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

let stop t =
  if not t.stopped then begin
    (* Heal pending failures first so the joined state is the exact prefix
       state ({!result} and the snapshot accessors stay valid after stop).
       An exhausted restart budget is re-raised only after every domain has
       been joined — no leaks on the fail-fast path. *)
    let pending_exn = ref None in
    if t.supervise then
      Array.iteri
        (fun s sh ->
          if Atomic.get sh.fail <> None && sh.dead = None then
            try heal t s
            with e -> if !pending_exn = None then pending_exn := Some e)
        t.shards;
    Array.iteri
      (fun s _ ->
        let sh = t.shards.(s) in
        match sh.domain with
        | None -> ()
        | Some d ->
          let exited =
            match Atomic.get sh.fail with Some (_, e) -> e | None -> false
          in
          if not exited then Spsc.push sh.ring Stop;
          Domain.join d;
          sh.domain <- None;
          while not (Spsc.is_empty sh.ring) do
            Spsc.advance sh.ring
          done)
      t.shards;
    t.stopped <- true;
    (match !pending_exn with Some e -> raise e | None -> ());
    if not t.supervise then
      Array.iteri
        (fun s sh ->
          match Atomic.get sh.fail with
          | Some (reason, _) ->
            failwith (failure_msg s reason)
          | None -> ())
        t.shards
  end

let shard_snapshots t =
  flush t;
  Array.map (fun sh -> sh.inst.i_snapshot ()) t.shards

let router_snapshot t =
  flush t;
  let enc = Snap.Enc.create () in
  Snap.Enc.int enc t.k;
  Snap.Enc.int enc t.nevents;
  Snap.Enc.bool_array enc t.pending;
  t.sampler_inst.Sampler.save enc;
  Option.iter (fun b -> Snap.Enc.string enc (b.i_snapshot ())) t.baseline;
  Snap.Enc.to_snap enc

let restore ~engine ~shards:k ?supervise ?max_restarts ?snapshot_every
    (config : Detector.config) ~router shard_snaps =
  if k < 1 then invalid_arg "Sharded.restore: shards must be positive";
  Snap.expect
    (Array.length shard_snaps = k)
    "Sharded.restore: shard snapshot count does not match shard count";
  let dec = Snap.Dec.of_snap router in
  let k' = Snap.Dec.int dec in
  Snap.expect (k' = k) "Sharded.restore: router snapshot was taken with a different K";
  let nevents = Snap.Dec.int dec in
  Snap.expect (nevents >= 0) "Sharded.restore: negative event count";
  let pending = Snap.Dec.bool_array_n dec config.Detector.nthreads in
  let sampler_inst = Sampler.fresh config.Detector.sampler in
  sampler_inst.Sampler.load dec;
  let base_snap = if k >= 2 then Some (Snap.Dec.string dec) else None in
  Snap.Dec.finish dec;
  let packed = Engine.detector engine in
  build ~engine ~shards:k ?supervise ?max_restarts ?snapshot_every config
    ~shard_insts:(Array.map (fun s -> restored_inst packed config s) shard_snaps)
    ~baseline:(Option.map (restored_inst packed config) base_snap)
    ~sampler_inst ~pending ~nevents
