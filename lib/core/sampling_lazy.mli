(** SL — ablation engine: Algorithm 4 {e without} the ordered list.

    Keeps the freshness scalars, the lazy (shallow) release copies and the
    local-epoch optimization of SO, but stores clocks in plain vectors, so a
    non-skipped acquire must traverse all T entries instead of the
    [d]-prefix.  Comparing SL with SO isolates exactly the contribution of
    the move-to-front ordered list — the quantity Fig 9 measures indirectly.
    Race declarations are identical to ST/SU/SO (checked by the tests).
    Clocks live in the same recycling {!Cow_slab} as SO's lists, so the
    SO-vs-SL comparison measures the ordered list, not the allocator. *)

include Detector.S

val free_slots : t -> int
(** Slab slots currently free for recycling.  For tests. *)

val check_invariants : t -> bool
(** As {!Sampling_ordered_list.check_invariants}.  For tests. *)
