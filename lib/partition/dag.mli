(** Partitioning algorithms for general streaming DAGs.

    Finding a minimum-bandwidth well-ordered c-bounded partition of a DAG is
    NP-complete (Garey & Johnson ND15, "Acyclic Partition"), so — exactly as
    the paper's conclusions suggest — we provide (a) fast heuristics for
    graphs of practical size, and (b) an exact exponential-time search for
    small graphs, used both when the application graph is genuinely small
    (partitioning happens at compile time, so this can be worthwhile) and to
    compute the true [minBW] needed by the lower-bound experiments.

    A key structural fact used throughout: a partition is well-ordered if
    and only if its components are intervals of {e some} topological order
    of the graph (peel components of the contracted DAG in topological
    order, listing each component's members consecutively).  Hence interval
    partitions of topological orders are exactly the well-ordered
    partitions, and both the heuristic and the exact search explore that
    space. *)

val interval : Ccs_sdf.Graph.t -> order:Ccs_sdf.Graph.node array -> bound:int -> Spec.t
(** Greedy interval chunking of the given topological order: scan the order
    accumulating a component until adding the next module would exceed
    [bound] state; then start a new component.  Always well-ordered and
    [bound]-bounded.
    @raise Invalid_argument if some module's state exceeds [bound] or
    [order] is not a permutation of the nodes. *)

val greedy : Ccs_sdf.Graph.t -> bound:int -> Spec.t
(** {!interval} on a locality-aware topological order (depth-first: after a
    module, prefer its successors), which keeps communicating modules in
    the same component far more often than breadth-first orders. *)

val order_dp :
  Ccs_sdf.Graph.t ->
  Ccs_sdf.Rates.analysis ->
  order:Ccs_sdf.Graph.node array ->
  bound:int ->
  ?max_degree:int ->
  ?pinned:(Ccs_sdf.Graph.node -> bool) ->
  unit ->
  Spec.t
(** Optimal interval partition of the given topological order: among all
    ways of chunking [order] into consecutive components with state at most
    [bound] (and, when [max_degree] is given, cross-edge degree at most
    [max_degree] — softly: single-node components are always admitted, as
    a node wider than the cap cannot be split and the paper's
    degree-limited hypothesis simply fails for such graphs), minimize
    bandwidth — by an O(n²·deg) dynamic program.
    When a segment is closed, the gains of its outgoing edges are paid once
    (edges into a segment were paid by the segment of their source, so
    nothing is double-counted).  Subsumes {!interval} (same search space,
    optimal instead of first-fit).

    [pinned] marks modules that must form singleton components — the
    paper's footnote-2 treatment of modules that violate the SDF
    assumptions (data-dependent rates, packet extractors, ...): "forcing
    these modules to the boundaries of subgraphs".
    @raise Invalid_argument if [order] is not a topological permutation,
    some module exceeds [bound], or the degree cap makes chunking
    infeasible. *)

val candidate_orders :
  Ccs_sdf.Graph.t -> Ccs_sdf.Rates.analysis -> Ccs_sdf.Graph.node array list
(** Topological orders worth trying: depth-first (locality), breadth-first,
    and gain-weighted depth-first (heavy edges kept adjacent so cheap edges
    land on chunk boundaries). *)

val best :
  Ccs_sdf.Graph.t ->
  Ccs_sdf.Rates.analysis ->
  bound:int ->
  ?max_degree:int ->
  ?pinned:(Ccs_sdf.Graph.node -> bool) ->
  unit ->
  Spec.t
(** The production heuristic: run {!order_dp} over every candidate order
    (falling back to {!interval} if a degree cap makes the DP infeasible
    for some order), pick the minimum-bandwidth result, then {!refine}
    (a refinement that would merge a [pinned] module is discarded). *)

val refine :
  Ccs_sdf.Graph.t ->
  Ccs_sdf.Rates.analysis ->
  bound:int ->
  ?max_degree:int ->
  Spec.t ->
  Spec.t
(** Local search: repeatedly try moving a single boundary module to an
    adjacent component, accepting moves that keep the partition
    well-ordered, [bound]-bounded (and degree-capped when [max_degree] is
    given) and strictly reduce bandwidth, until a pass makes no progress
    or 8 passes have run.

    Each move is scored in O(deg v) from per-component state, size and
    cross degree and integer period weights; only a move that passes
    those tests pays the O(n+m) well-ordered check, and only an accepted
    move pays an O(n+m) renumbering.  A pass therefore costs
    O(n + m + (a+w)·(n+m)) for [a] accepted moves and [w] moves that
    reach the well-ordered check. *)

val exact :
  Ccs_sdf.Graph.t ->
  Ccs_sdf.Rates.analysis ->
  bound:int ->
  ?max_nodes:int ->
  unit ->
  Spec.t option
(** Exact minimum-bandwidth well-ordered [bound]-bounded partition, by
    memoized search over order ideals: a state is the set of already-peeled
    modules (always a down-closed set); a transition peels one more
    component — a subset of the ready frontier closed under the ideal
    property — paying the gains of its outgoing edges.  Worst-case
    exponential; refuses graphs with more than [max_nodes] (default 20)
    modules by returning [None].  Also returns [None] if some module's
    state exceeds [bound]. *)

val min_bandwidth :
  Ccs_sdf.Graph.t ->
  Ccs_sdf.Rates.analysis ->
  bound:int ->
  ?max_nodes:int ->
  unit ->
  Ccs_sdf.Rational.t option
(** Bandwidth of the {!exact} partition — the paper's [minBW_c(G)] with
    [bound = c*M]. *)
