(** The [racedet route] cluster router.

    One process speaking the plain [BATCH] protocol to clients and the
    [CBATCH] protocol to K worker processes, each worker an unchanged
    [racedet serve] daemon (domain-sharded underneath).  The router
    partitions locations across workers by consistent hashing ({!Chash}),
    mirrors {!Ft_shard.Sharded}'s routing algebra one level up (sync
    events broadcast, accesses to the owner, pending-bit transitions
    forwarded as {!Ft_shard.Cmsg.msg} [Mark]s, a router-side sync-only
    baseline), and merges the workers' partial [RESULT]s into a report
    byte-identical to a single-process [racedet analyze] — the soundness
    argument is DESIGN.md §6e.

    {b Durability} (DESIGN.md §6f): every client batch is appended to a
    routed-event {!Wal} and fsynced {e before} it is acknowledged, and the
    router periodically checkpoints its own state (sampler mirror, pending
    bits, baseline snapshot, per-worker acked marks + unacked log
    suffixes) into [dir/router-state.ftc].  A router SIGKILLed mid-ingest
    is recovered by [--resume]: replay the checkpoint + WAL tail (or the
    whole WAL) through the same routing algebra, respawn the workers
    against their own checkpoint directories, align each at its durable
    [SEQ] and replay only what it is missing.  Batches whose ack never
    reached the client are simply not in the WAL — the client's blind
    resend re-ingests them idempotently, so the final report is
    byte-identical to an uninterrupted run.

    {b Pipelining}: CBATCH sends stream through a per-worker in-flight
    window ([config.window]) with acks drained asynchronously; the router
    blocks only on a full window (client backpressure) or at explicit
    barriers (RESULT, migration, resize, shutdown).  Per-worker streams
    stay strictly ordered, so §6e is unaffected.

    {b Resizing}: [RESIZE +1]/[RESIZE -1] quiesces, logs the new size in
    the WAL, rebuilds the per-worker logs the new ring would have produced
    from event 0 (the sampler mirror, pending bits and baseline are
    ring-independent) and streams them to a fresh worker epoch — reports
    are byte-identical across a resize at any cut.

    Worker death and migration reuse the [.ftc] checkpoint machinery
    end-to-end: workers checkpoint every acknowledged CBATCH, the router
    keeps each worker's routed-message log, and recovery is respawn →
    resume from checkpoint → [SEQ] → replay of the unacknowledged suffix.
    Chaos points [cluster.worker_crash], [cluster.migrate], [router.send]
    (per worker, [lane] = worker id), [router.wal_write], [router.crash]
    (simulates a router SIGKILL on the durability edge) and
    [cluster.resize] make every path deterministically fault-testable.

    Extra protocol verbs over {!Ft_shard.Serve}: [MIGRATE <k>] gracefully
    moves worker [k] onto a fresh process; [RESIZE +1/-1] resizes the
    ring; [SEQ] reports the router's ingested-event count.

    The router never spawns domains (forking a multi-domain OCaml 5
    process is unsafe); its baseline is a plain in-process detector. *)

type config = {
  listen : Ft_shard.Serve.addr;
  workers : int;
  worker_shards : int;  (** domains inside each worker's {!Ft_shard.Sharded} *)
  engine : Ft_core.Engine.id;
  sampler : Ft_core.Sampler.t;
  clock_size : int option;
  dir : string;
      (** run directory: worker sockets, ready files, [worker-<k>.pid]
          files (for external kills), per-worker checkpoint dirs
          [ckpt-<k>/] ([ckpt-<k>-e<epoch>/] after a resize), the
          [router.wal] and [router-state.ftc] *)
  worker_tcp : bool;  (** workers listen on 127.0.0.1 ephemeral TCP ports *)
  checkpoint : bool;
      (** workers checkpoint every CBATCH before acknowledging it, and the
          router writes periodic state checkpoints; off, recovery degrades
          to full-log / full-WAL replays (slower, still exact) *)
  max_parked : int;
  backlog : int;
  ready_file : string option;
      (** publish the router's actual address; a stale one (crashed
          predecessor) is removed after a liveness probe, a live one is
          refused, and the file is unlinked on exit *)
  heartbeat_s : float option;  (** periodic one-line liveness log to stderr *)
  metrics_json : string option;  (** dump router telemetry JSON on shutdown *)
  max_respawns : int;
      (** per-worker respawn budget before the router fails fast
          ({!default_max_respawns}): it counts respawns since the worker's
          durable [SEQ] last advanced, so a worker that heals past each
          fault runs on and one stuck at a point fails fast.  Once a worker
          has crashed, its generations checkpoint every CBATCH and take
          their replay in small CBATCHes. *)
  chaos : Ft_fault.Fault.config option;
      (** armed at startup; each worker process re-arms the same schedule
          with a seed mixed from (seed, worker id, generation), so a
          respawned worker does not re-fire the fault that ended its
          predecessor *)
  window : int;
      (** per-worker in-flight CBATCH window ({!default_window}); 1
          restores the lockstep send-then-wait of PR 9 *)
  wal : bool;
      (** append + fsync every batch to [dir/router.wal] before acking *)
  resume : bool;
      (** recover the previous session from [dir]'s WAL (and state
          checkpoint); requires [wal] *)
  state_every : int;
      (** client batches between router-state checkpoints
          ({!default_state_every}); 0 disables them (resume replays the
          whole WAL) *)
}

val default_max_respawns : int
val default_window : int
val default_state_every : int

val run : config -> unit
(** Serve until [SHUTDOWN]/[SIGTERM]/[SIGINT]; drains the in-flight
    windows, writes a final router-state checkpoint and tears down workers
    gracefully (each writes its final checkpoint set).  Blocking; forks
    worker processes — call from a process that has spawned no domains.
    Raises [Failure] after cleanup when a worker exhausted its respawn
    budget. *)
