(** Location-sharded parallel online detection.

    A sharded detector wraps K instances of one engine, each running on its
    own domain behind a bounded SPSC ring ({!Spsc}) — unless K = 1, see
    "The in-line path" below.  The router (the caller's
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

    {2 Failure}

    There is no in-process recovery: a worker failure (its handler raised,
    or an injected {!Ft_fault.Fault.Crash_domain} killed the domain
    mid-message) surfaces as [Failure] from {!flush}, {!check}, {!result},
    {!snapshot} or {!stop}, or from {!handle} once the dead shard's ring is
    full.  The caller owns recovery: [analyze] and the serve daemon fail
    fast, and a rerun with [--resume] from the last checkpoint (or a
    cluster router's respawn) finishes the work.  No snapshot is taken
    from a failed detector, because {!snapshot} flushes first.

    {2 The in-line path}

    A detector with K = 1 runs its one engine in the caller's
    domain: no ring, no worker domain, no spin-wait.  {!handle} and
    {!note_sampled} call the engine directly and {!flush}/{!stop} have
    nothing to wait for.  A handler exception propagates out of the call
    that raised it and poisons the detector: every later operation raises
    [Failure] with the recorded diagnostic.  The [shard.step] fault point
    stays on this path with [Exn] and [Delay] only — there is no domain to
    crash. *)

type t

val owner_of : shards:int -> Ft_trace.Event.loc -> int
(** The shard that owns a location — a pure hash, independent of trace
    content, so tests can place locations on chosen shards. *)

val create : engine:Ft_core.Engine.id -> shards:int -> Ft_core.Detector.config -> t
(** Spawn [shards] worker domains (K ≥ 1; none for the in-line K = 1
    path).  Every sharded detector must be {!stop}ped, or its domains
    leak. *)

val handle : t -> int -> Ft_trace.Event.t -> unit
(** Route event [i].  Indices must be fed in increasing order, as with
    {!Ft_core.Detector.S.handle}.  Blocks (backpressure) when a shard's ring
    is full.  Raises [Failure] if called after {!stop}.  On the in-line path
    an engine exception (including an injected {!Ft_fault.Fault.Injected})
    propagates from here, and later calls raise [Failure]. *)

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

val flush : t -> unit
(** Wait until every shard has fully processed everything routed so far.
    Re-raises (as [Failure]) the first exception any shard worker hit. *)

val check : t -> unit
(** Surface a failure a shard has already recorded, without waiting for
    the rings to drain: raise it (as [Failure]) as {!flush} would.  A few
    atomic loads when nothing failed —
    cheap enough to call before every acknowledgment.  A shard still
    working through earlier messages may fail after [check] returns. *)

val result : t -> Ft_core.Detector.result
(** {!flush}, then merge: races from all shards sorted by declaration index
    (each event declares at most one race, so the order is total and equals
    the unsharded declaration order), metrics via
    {!Ft_core.Metrics.merge_shards}.  The detector stays usable — serving a
    report mid-stream is allowed. *)

val stop : t -> unit
(** Drain and join the worker domains.  Idempotent.  {!result} and
    {!snapshot} remain valid afterwards.  Every domain is joined before a
    recorded shard failure is raised (as [Failure]), so the fail-fast path
    leaks nothing. *)

(** {1 Snapshots}

    A sharded detector checkpoints as one payload: the router state — K,
    the event count, the replicated pending bits, the router's sampler
    state and, at K ≥ 2 only, the sync-only baseline's engine snapshot —
    followed by the K shard engine snapshots (each a regular
    {!Ft_core.Detector.S.snapshot}).  The same bytes come from the in-line
    and the domain path. *)

val snapshot : t -> Ft_core.Snap.t
(** Flushes first, so it raises [Failure] instead of capturing a failed
    detector. *)

val restore :
  engine:Ft_core.Engine.id -> shards:int -> Ft_core.Detector.config -> Ft_core.Snap.t -> t
(** Raises [Ft_core.Snap.Corrupt] on a malformed or mismatched payload
    (truncated, wrong shard count, wrong universe) before any domain is
    spawned.  Spawns worker domains like {!create}. *)
