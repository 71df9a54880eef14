(** Location-sharded parallel online detection.

    A sharded detector wraps K instances of one engine, each running on its
    own domain behind a bounded SPSC ring ({!Spsc}) — unless K = 1 and
    unsupervised, see "The in-line path" below.  The router (the caller's
    domain) partitions access events by [hash(location) mod K] and broadcasts
    every synchronization event (acquire/release/fork/join/atomic) to all K
    shards, so each shard's thread and lock clocks evolve {e exactly} as in an
    unsharded run — HB race detection factors per location once the sync-side
    state is replicated.

    The one piece of sync-side state that accesses do feed is the sampling
    engines' per-thread {e pending} bit (a sampled access bumps the thread's
    local epoch at its next release/fork/join).  The router therefore runs
    its own instance of the sampler over the full access stream and, on every
    false→true pending transition, forwards one idempotent
    {!Ft_core.Detector.S.note_sampled} mark to every non-owner shard (the
    owner sets the bit itself when it handles the event).  See DESIGN.md,
    "Sharding soundness".

    Race verdicts are exact: the per-shard race lists, merged by original
    event index, are byte-identical to the unsharded engine's declarations —
    for every engine, every sampler, and every K (property-tested).  Metrics
    are merged exactly via {!Ft_core.Metrics.merge_shards}, using an inline
    sync-only baseline instance that measures the duplicated sync work.  At
    K = 1 nothing is duplicated, so there is no baseline: {!result} returns
    the one shard's result as it stands.

    {2 Supervision}

    With [~supervise:true] the router doubles as a {e supervisor}: every
    message routed to a shard is also appended to a router-side backlog, and
    each worker periodically publishes a [(count, snapshot)] pair through an
    atomic slot.  When a worker dies — its handler raised, or an injected
    {!Ft_fault.Fault.Crash_domain} killed the domain mid-message — the router
    joins the corpse, rebuilds the shard's engine from the latest published
    snapshot, replays the backlog suffix through a fresh domain, and carries
    on.  Because replay is exact (same messages, same order), the healed
    shard reaches precisely the state an unfaulted run would have: race
    verdicts and metrics are unaffected, which the chaos suite checks
    byte-for-byte against fault-free runs.  Restarts are bounded per shard
    ([?max_restarts], default 8); past the budget the shard is marked dead
    and every subsequent operation raises {!Shard_failed} — fail fast rather
    than loop forever on a deterministic fault.

    Without supervision (the default) there is no backlog and no snapshot
    publishing: worker failures surface as [Failure] from
    {!flush}/{!result}/{!stop}, and the caller owns recovery (the serve
    daemon fails fast and is healed by [--resume] or a router respawn).

    {2 The in-line path}

    An unsupervised detector with K = 1 runs its one engine in the caller's
    domain: no ring, no worker domain, no spin-wait.  {!handle} and
    {!note_sampled} call the engine directly and {!flush}/{!stop} have
    nothing to wait for.  A handler exception propagates out of the call
    that raised it and poisons the detector: every later operation raises
    [Failure] with the recorded diagnostic.  The [shard.step] fault point
    stays on this path with [Exn] and [Delay] only — there is no domain to
    crash.  Snapshots are the same bytes as on the domain path, so a
    checkpoint set written by either path restores into the other. *)

type t

exception Shard_failed of string
(** A supervised shard exhausted its restart budget.  The detector is no
    longer usable for routing; {!stop} still joins what is left. *)

val owner_of : shards:int -> Ft_trace.Event.loc -> int
(** The shard that owns a location — a pure hash, independent of trace
    content, so tests can place locations on chosen shards. *)

val create :
  engine:Ft_core.Engine.id ->
  shards:int ->
  ?supervise:bool ->
  ?max_restarts:int ->
  ?snapshot_every:int ->
  Ft_core.Detector.config ->
  t
(** Spawn [shards] worker domains (K ≥ 1; none for the in-line K = 1
    path).  Every sharded detector must be {!stop}ped, or its domains
    leak.  [?supervise] (default [false]) enables self-healing as described
    above; [?max_restarts] (default 8) is the
    per-shard restart budget; [?snapshot_every] (default 2048) is how many
    messages a supervised worker processes between published recovery
    snapshots — smaller means cheaper replays and more snapshot overhead. *)

val handle : t -> int -> Ft_trace.Event.t -> unit
(** Route event [i].  Indices must be fed in increasing order, as with
    {!Ft_core.Detector.S.handle}.  Blocks (backpressure) when a shard's ring
    is full.  Raises [Failure] if called after {!stop}.  On the in-line path
    an engine exception (including an injected {!Ft_fault.Fault.Injected})
    propagates from here, and later calls raise [Failure].  A supervised
    call may heal a failed shard (replaying its backlog) before returning, and
    raises {!Shard_failed} once a shard is past its restart budget. *)

val note_sampled : t -> Ft_trace.Event.tid -> unit
(** Apply a pending-bit transition whose triggering access is owned by
    {e another} detector — how a cluster worker replays a router [Mark]
    ({!Cmsg.msg}).  Sets the bit, marks every internal shard and (K ≥ 2)
    notes the baseline, exactly as {!handle} does for a locally-owned
    sampled access; a no-op when the bit is already set.  Not an event:
    {!events} and the per-shard routed counts are unchanged. *)

val events : t -> int
(** Events routed so far. *)

val shard_event_counts : t -> int array
(** Events pushed to each shard's ring so far (accesses go to the owner
    only, sync events to all K) — the per-shard throughput series of the
    serve daemon's [STATS].  Router-domain callers only, like {!handle}. *)

val ring_occupancy : t -> int array
(** Instantaneous unconsumed-message count of each shard's ring, readable
    from any domain.  A telemetry snapshot: concurrent workers may have
    drained (or the router filled) slots by the time the array returns.
    Always [[|0|]] on the in-line path. *)

val restarts_total : t -> int
(** Supervisor restarts performed so far, over all shards (0 when
    unsupervised or fault-free) — what chaos-armed [analyze --shards]
    reports. *)

val flush : t -> unit
(** Wait until every shard has fully processed everything routed so far.
    Unsupervised: re-raises (as [Failure]) the first exception any shard
    worker hit.  Supervised: heals failed shards (restoring and replaying)
    until every ring is drained cleanly, raising {!Shard_failed} only past
    the restart budget. *)

val check : t -> unit
(** Surface a failure a shard has already recorded, without waiting for
    the rings to drain: unsupervised, raise it (as [Failure]) as {!flush}
    would; supervised, heal it.  A few atomic loads when nothing failed —
    cheap enough to call before every acknowledgment.  A shard still
    working through earlier messages may fail after [check] returns. *)

val result : t -> Ft_core.Detector.result
(** {!flush}, then merge: races from all shards sorted by declaration index
    (each event declares at most one race, so the order is total and equals
    the unsharded declaration order), metrics via
    {!Ft_core.Metrics.merge_shards}.  The detector stays usable — serving a
    report mid-stream is allowed. *)

val stop : t -> unit
(** Drain and join the worker domains.  Idempotent.  {!result},
    {!shard_snapshots} and {!router_snapshot} remain valid afterwards.
    Supervised: heals pending failures first, so the joined state is the
    exact prefix state; every domain is joined before a {!Shard_failed} from
    an exhausted budget propagates (no leaks on the fail-fast path). *)

(** {1 Snapshots}

    A sharded detector checkpoints as K engine snapshots (one per shard,
    each a regular {!Ft_core.Detector.S.snapshot}) plus one router snapshot
    holding K, the event count, the replicated-pending bits, the router's
    sampler state and — at K ≥ 2 only — the sync-only baseline's snapshot.
    [restore] rebuilds the whole ensemble; shard count and universe must
    match the snapshots. *)

val shard_snapshots : t -> Ft_core.Snap.t array
(** Flushes first; index [k] is shard [k]'s engine snapshot. *)

val router_snapshot : t -> Ft_core.Snap.t

val restore :
  engine:Ft_core.Engine.id ->
  shards:int ->
  ?supervise:bool ->
  ?max_restarts:int ->
  ?snapshot_every:int ->
  Ft_core.Detector.config ->
  router:Ft_core.Snap.t ->
  Ft_core.Snap.t array ->
  t
(** Raises [Ft_core.Snap.Corrupt] on malformed or mismatched payloads
    (wrong shard count, wrong universe).  Spawns worker domains like
    {!create}. *)
