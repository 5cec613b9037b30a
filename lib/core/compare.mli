(** Head-to-head comparison of schedulers on one graph and machine.

    Builds the full roster — the paper's partitioned schedulers plus every
    baseline from the related-work section — runs each on a fresh machine
    with its own buffer capacities, and reports measured misses alongside
    the analytic bounds.  This is the engine behind experiments E6/E7 and
    the [ccsched compare] CLI command. *)

type row = {
  result : Ccs_sched.Runner.result;
  ok : bool;  (** Whether the plan ran to the target without error. *)
  error : string option;
}

type report = {
  graph_name : string;
  config : Config.t;
  lower_bound : float option;
      (** Theorem 3 / Theorem 7 misses-per-input lower bound when
          computable. *)
  prediction : float option;
      (** Lemma 4/8 prediction for the partitioned plan. *)
  rows : row list;
}

val standard_plans :
  Ccs_sdf.Graph.t -> Ccs_sdf.Rates.analysis -> Config.t -> Ccs_sched.Plan.t list
(** The roster: partitioned (static batch; plus the dynamic pipeline
    scheduler on pipelines, or the asynchronous dynamic DAG scheduler on
    delay-free homogeneous DAGs that actually get partitioned),
    single-appearance, round-robin, minimal-memory, auto-scaled Sermulins
    scaling, and Kohli-style greedy. *)

val run :
  ?outputs:int ->
  ?plans:Ccs_sched.Plan.t list ->
  Ccs_sdf.Graph.t ->
  Config.t ->
  report
(** Run every plan to [outputs] sink firings (default 10× the cache size,
    rounded up to whole periods by each plan) through
    {!Ccs_sched.Runner.run}.  A plan that stalls or raises is reported with
    [ok = false] and its error rather than aborting the comparison. *)

val print : report -> unit
(** Human-readable table on stdout. *)
