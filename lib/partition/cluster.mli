(** Component fusion: contract a partition into a coarser SDF graph.

    The paper observes that the module-fusion heuristic of Sermulins et al.
    "can be viewed as a special case of our partitioning method": fusing a
    component is exactly replacing it by a single module whose firing runs
    one local period of the component's low-level schedule.  This module
    performs that contraction, yielding a {e valid SDF graph} that can be
    re-analyzed, re-partitioned (hierarchically), or scheduled by any
    scheduler in the library:

    - the fused module's state is the component's total module state plus
      its internal minimum buffers (both must be resident to run a local
      period);
    - each cross edge [(u, v)] keeps its token rates per {e original}
      firing, scaled to per-fused-firing rates: the fused component fires
      once per local period, during which [u] fires [p(u)] times, so the
      fused push is [p(u) · push(u, v)] (symmetrically for pops);
    - parallel cross edges between the same pair of components remain
      parallel channels (they are genuinely distinct streams);
    - delays on cross edges are preserved; delays on internal edges fold
      into the fused module's initial conditions and must not make the
      local period under-determined (checked).

    Contracting a well-ordered partition always yields a DAG (that is
    Definition 2), and the result of contracting a rate-matched graph is
    rate-matched. *)

type mapping = {
  graph : Ccs_sdf.Graph.t;  (** The contracted graph. *)
  node_of_component : int array;
      (** Component id -> node id in the contracted graph. *)
  component_of_node : int array;
      (** Node id in the contracted graph -> component id. *)
  edge_of_cross : (Ccs_sdf.Graph.edge * Ccs_sdf.Graph.edge) list;
      (** Pairs [(original cross edge, contracted edge)]. *)
}

val contract :
  Ccs_sdf.Graph.t -> Ccs_sdf.Rates.analysis -> Spec.t -> mapping
(** Contract every component of a well-ordered partition to one module.
    @raise Invalid_argument if the partition is not well-ordered. *)

val hierarchical :
  Ccs_sdf.Graph.t ->
  Ccs_sdf.Rates.analysis ->
  bound:int ->
  ?coarsen_to:int ->
  ?max_degree:int ->
  unit ->
  Spec.t
(** Multilevel partitioning, the strategy the paper's conclusion points at
    for large graphs ("use an exact integer-programming graph partitioner
    when the dag is relatively small", made applicable by coarsening):
    greedily pre-fuse modules into clusters of state at most
    [bound / coarsen_to] (default 8), contract, partition the contracted
    graph {e exactly} when it has at most 20 nodes (else with the order-DP
    heuristic), and project the result back to the original modules.
    Projection preserves well-orderedness, and since fused-node states
    over-approximate member states the result is [bound]-bounded. *)
