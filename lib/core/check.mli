(** Aggregate linting: run every validator in the stack and collect the
    findings into one report, split by severity.

    This is the library face of [ccsched check]: each entry point runs one
    layer's validator ({!Ccs_sdf.Validate.graph}, {!Ccs_partition.Spec.validate},
    {!Ccs_sched.Plan.validate}) and folds structured
    {!Ccs_sdf.Error.t} findings — never exceptions — into a {!report}. *)

type report = {
  errors : Ccs_sdf.Error.t list;  (** Violations; the artifact is unusable. *)
  warnings : Ccs_sdf.Error.t list;
      (** Suspicious but runnable (e.g. multiple sources, cache overflow). *)
}

val empty : report

val is_ok : report -> bool
(** No errors (warnings allowed). *)

val merge : report -> report -> report

val builder : Ccs_sdf.Graph.Builder.t -> report
(** Structural lint of an unbuilt graph: dangling endpoints, degenerate
    and nonpositive-rate channels, negative delays, deadlock cycles. *)

val graph : Ccs_sdf.Graph.t -> report
(** Semantic lint of a built graph: duplicate module names, source/sink
    multiplicity, connectivity, rate consistency. *)

val partition :
  ?bound:int ->
  ?degree_bound:int ->
  Ccs_sdf.Graph.t ->
  components:int array ->
  report
(** Lint a user-supplied node-to-component assignment: well-orderedness,
    c-boundedness against [bound], degree-limitedness against
    [degree_bound].  A malformed assignment (wrong length) is itself a
    reported error, not an exception. *)

val plan :
  ?cache:Ccs_cache.Cache.config ->
  ?spec:Ccs_partition.Spec.t ->
  Ccs_sdf.Graph.t ->
  Ccs_sched.Plan.t ->
  report
(** All of {!Ccs_sched.Plan.validate}'s findings as a report. *)

val capacities : Ccs_sdf.Graph.t -> int array -> report
(** Lint bare buffer capacities (no driver): per-channel floors and joint
    feasibility against {!Ccs_sdf.Minbuf}. *)

val cache_config :
  ?ways:int -> size_words:int -> block_words:int -> unit -> report
(** Lint a cache configuration as raw numbers (before any simulator object
    exists): non-positive sizes, capacity below one block (a zero-capacity
    engine), block size not dividing the capacity, and — when [ways] is
    given — associativity below 1 or exceeding the block count.  Each
    finding is a {!Ccs_sdf.Error.Cache_config_invalid}. *)

val auto : ?degree_bound:int -> Ccs_sdf.Graph.t -> Config.t -> report
(** End-to-end lint: check the graph, and if it is clean, run the paper's
    own partitioning pipeline for [cfg] and check the resulting partition
    (bound = {!Config.partition_bound}) and plan — so a clean report means
    the full scheduler stack accepts the graph at this cache size. *)

val pp : Format.formatter -> report -> unit
(** One line per finding: [error[code] message] / [warning[code] message]. *)
