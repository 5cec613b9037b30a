(** Analytic cache-miss bounds, for predicted-versus-measured experiments.

    All quantities are expressed as misses {e per source firing} (per input
    item), matching how the paper states its amortized bounds. *)

val pipeline_lower_bound :
  Ccs_sdf.Graph.t ->
  Ccs_sdf.Rates.analysis ->
  m:int ->
  b:int ->
  float
(** Theorem 3's lower bound: greedily carve the chain into disjoint
    segments of total state at least [2m]; any schedule pays at least
    [(1/b) · Σ gain(gainMin(segment))] misses per input (up to the
    theorem's constant).  Returns [0] when the whole chain has state below
    [2m] (no segment qualifies — the graph fits in cache and the lower
    bound is vacuous). *)

val dag_lower_bound :
  Ccs_sdf.Graph.t ->
  Ccs_sdf.Rates.analysis ->
  m:int ->
  b:int ->
  ?max_nodes:int ->
  unit ->
  float option
(** Theorem 7/10's lower bound [(1/b) · minBW₃(G)], using the exact
    search over order ideals ({!Ccs_partition.Dag.exact}) with bound
    [3m].  [None] if the graph is
    too large for exact search or the bound is infeasible.  Returns
    [Some 0.] when the whole graph fits in [3m] (vacuous). *)

val partition_cost_prediction :
  Ccs_partition.Spec.t ->
  Ccs_sdf.Rates.analysis ->
  b:int ->
  t:int ->
  float
(** Lemma 4/8's upper-bound prediction for a partitioned schedule at batch
    granularity [t]: [(2·bandwidth(P) + Σ_c state(c)/t) / b] misses per
    input — cross-edge traffic (each token written once and read once)
    plus one state load per component per batch. *)

val bandwidth_per_input : Ccs_partition.Spec.t -> Ccs_sdf.Rates.analysis -> float
(** Just [bandwidth(P)] as a float (tokens crossing components per
    input). *)
