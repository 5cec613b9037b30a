(** One-call cache-conscious scheduling: the paper's end-to-end pipeline
    from graph to plan.

    [plan g cfg] analyses rates, picks the partitioning algorithm suited to
    the topology (optimal DP for pipelines; DFS-interval greedy plus local
    refinement for general DAGs, upgraded to the exact search when the
    graph is small enough), and instantiates the matching partitioned
    scheduler.  This is the function a downstream user calls. *)

type choice = {
  analysis : Ccs_sdf.Rates.analysis;
  partition : Ccs_partition.Spec.t;
  batch : int;  (** Granularity [T] used by the schedule. *)
  plan : Ccs_sched.Plan.t;
}

val planner_version : int
(** Version of the planning pipeline.  Cached plan artifacts embed it in
    their {!Ccs_exec.Plan_key}, so plans produced by an older pipeline
    are cache misses, never silently served.  Bumped whenever partitioner
    choice, bounds, batching or capacity sizing change output. *)

val fitting_bound : Ccs_sdf.Graph.t -> Config.t -> int
(** The component state bound {!partition} actually enforces: half the
    configured cache (the rest absorbs buffers and streaming blocks),
    relaxed to the largest single module when one is bigger than that. *)

val degree_cap : Config.t -> int
(** The component degree cap {!partition} enforces on DAGs (Lemma 8): a
    quarter of the cache in blocks, at least 2. *)

val partition :
  Ccs_sdf.Graph.t -> Ccs_sdf.Rates.analysis -> Config.t -> Ccs_partition.Spec.t
(** Just the partitioning step: pipelines get the minimum-bandwidth
    DP segmentation with bound [c·M]; small DAGs (≤ 16 modules) get the
    exact search; larger DAGs get greedy + refine. *)

val plan : ?dynamic:bool -> Ccs_sdf.Graph.t -> Config.t -> choice
(** The full pipeline.  For pipelines with [dynamic] (default [true]) the
    online half-full scheduler is used; otherwise the static batch
    scheduler at granularity [T = granularity ≥ M].
    @raise Ccs_sdf.Graph.Invalid_graph if the graph is not rate-matched. *)

val adapt_planner : ?dynamic:bool -> Ccs_sdf.Graph.t -> Ccs_sched.Adapt.planner
(** [adapt_planner g] is the planner callback {!Ccs_sched.Adapt.create}
    needs: invoked with a cache configuration, it re-runs {!plan} for that
    cache and pairs the result with its Lemma-4/8 predicted
    misses-per-input ({!Ccs_sched.Analysis.partition_cost_prediction}). *)
