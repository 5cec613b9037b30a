(** Offline analysis of recorded block traces: reuse distances and working
    sets.

    These are the classical tools for explaining cache behaviour — an LRU
    cache of [C] blocks hits exactly the accesses whose {e reuse distance}
    (number of distinct blocks touched since the previous access to the
    same block) is less than [C], so the reuse-distance histogram of a
    schedule IS its miss curve for every cache size at once.  The
    experiments use this to show mechanically why partitioned schedules
    beat naive ones: partitioning moves mass from reuse distances near the
    total footprint down to distances below [M/B]. *)

val reuse_distances : int array -> int array
(** [reuse_distances trace] maps each access to its reuse distance
    ([max_int] for first-ever accesses — cold misses).  Runs in
    O(n log n) (balanced-BIT counting over last-access positions). *)

val histogram : ?buckets:int array -> int array -> (string * int) list
(** Bucketed histogram of reuse distances.  Default bucket upper bounds
    are powers of two up to the maximum finite distance; cold accesses get
    their own final bucket.  Returns (label, count) rows in order. *)

val miss_curve : distances:int array -> capacities:int list -> (int * int) list
(** [(capacity, misses)] for each requested capacity — the full LRU miss
    curve from one pass. *)

val working_set_curve :
  trace:int array -> windows:int list -> (int * float) list
(** Denning working sets: for each window length [w], the average number
    of distinct blocks touched in a sliding window of [w] accesses
    (sampled every [w/4] positions for speed). *)
