(** Partitioning algorithms for pipelines (single directed chains).

    Pipelines admit polynomial-time partitioning (Section 4): well-ordered
    partitions of a chain are exactly its segmentations, so both the paper's
    constructive partition (Theorem 5) and the true minimum-bandwidth
    c-bounded segmentation (a simple dynamic program) are implemented
    here. *)

val chain_order : Ccs_sdf.Graph.t -> Ccs_sdf.Graph.node array
(** Modules in chain order (source first).
    @raise Invalid_argument if the graph is not a pipeline
    ({!Ccs_sdf.Graph.is_pipeline}). *)

val greedy :
  Ccs_sdf.Graph.t -> Ccs_sdf.Rates.analysis -> m:int -> Spec.t
(** The Theorem-5 construction.  Walk the chain accumulating segments [Wi]
    of total state just above [2m]; cut each [Wi] at its gain-minimizing
    internal edge; the cut edges induce the partition.  Guarantees every
    component has state at most [8m] and bandwidth within a constant factor
    of the optimal 2m-bounded partition's, hence an asymptotically optimal
    schedule with O(1) cache augmentation (Corollary 6).
    @raise Invalid_argument if some module's state exceeds [m] (the paper's
    standing assumption [s(v) <= M]). *)

val optimal_dp :
  Ccs_sdf.Graph.t -> Ccs_sdf.Rates.analysis -> bound:int -> Spec.t
(** Minimum-bandwidth segmentation with every segment's state at most
    [bound] (the paper's [c*M] for the caller's choice of [c]), by a
    dynamic program over cut positions.  This is the "simple dynamic
    program" the paper invokes after Theorem 5.  It costs O(n·w) integer
    steps, where [w] is the most consecutive stages whose state fits in
    [bound]: a cut costs its edge's [period_tokens], which order
    segmentations exactly as their rational gains do.
    @raise Invalid_argument if some module's state exceeds [bound] (no
    feasible segmentation exists). *)

val gain_minimizing_edge :
  Ccs_sdf.Graph.t ->
  Ccs_sdf.Rates.analysis ->
  Ccs_sdf.Graph.node array ->
  lo:int ->
  hi:int ->
  Ccs_sdf.Graph.edge
(** [gain_minimizing_edge g a chain ~lo ~hi] is an internal edge of minimum
    gain (compared by [period_tokens]; the first among equals) in the
    segment [chain.(lo) .. chain.(hi)] — the paper's [gainMin(u,v)].
    @raise Invalid_argument if the segment has no internal edge
    ([lo >= hi]). *)
