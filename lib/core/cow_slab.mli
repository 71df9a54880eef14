(** Reference-counted slot slab for copy-on-write clocks.

    Algorithm 4 publishes a thread's clock at a release by reference and
    deep-copies it only when the thread next mutates a shared clock.  The
    copies themselves are the paper's cost; the {e allocations} behind them
    are not.  A slab keeps every clock a thread or lock holds in a numbered
    slot, counts the holders of each slot, and recycles a slot once its
    count drops to 0, so a deep copy overwrites a dead clock in place
    instead of allocating one that would outlive the minor heap.

    Holders live in the callers' [int array]s: [holders.(i)] is the slot
    holder [i] holds, or [-1] for none.  With [T] thread holders and [L]
    lock holders, at most [T + L] slots are live at once, plus the one
    destination of a copy in progress — the slab never grows past
    [T + L + 1] clocks. *)

type 'a t

val create : copy:('a -> 'a) -> copy_into:(src:'a -> dst:'a -> unit) -> 'a t
(** [copy] builds a fresh clock and is called only when the slab grows;
    [copy_into] overwrites a recycled one. *)

val add : 'a t -> 'a -> int
(** [add s c] stores [c] in a new slot with one holder. *)

val get : 'a t -> int -> 'a

val hold : 'a t -> int array -> int -> int -> unit
(** [hold s holders i slot] makes holder [i] hold [slot] (a shallow copy),
    dropping the slot it held before. *)

val unshare : 'a t -> int array -> int -> 'a
(** [unshare s holders i] gives holder [i] a slot of its own holding a copy
    of its clock, and returns that clock: a free slot overwritten with
    [copy_into], or a new one made with [copy] when no slot is free.  The
    slot it held before loses a holder. *)

val free_slots : 'a t -> int

val check : 'a t -> holders:int array list -> bool
(** Recounts the holders from scratch — every non-negative entry of
    [holders] holds that slot — and checks that the maintained counts
    agree, that the free stack is exactly the slots nobody holds, and that
    the slab holds at most one clock more than there are holders.  For
    tests. *)

val encode_lock_refs :
  Snap.Enc.t -> 'a t -> threads:int array -> locks:int array -> (Snap.Enc.t -> 'a -> unit) -> unit
(** Writes which clock each lock holds ([-1] in [locks]: none) as a
    reference to the thread or earlier lock holding the same slot, and
    inline only when it aliases neither.  Slot numbers are not written.
    The threads' own clocks are the engine's to write. *)

val decode_lock_refs :
  Snap.Dec.t -> 'a t -> threads:int array -> locks:int array -> (Snap.Dec.t -> 'a) -> unit
(** Inverse of {!encode_lock_refs}: fills [locks] and counts the restored
    holders, given [threads] already holding their slots.  Raises
    [Snap.Corrupt] on a bad tag or an out-of-range reference. *)
