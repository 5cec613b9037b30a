(** Partitions of streaming graphs into components (Definitions 2 and 3).

    A partition assigns every module of a graph to exactly one {e component}.
    Channels whose endpoints share a component are {e internal edges};
    channels crossing components are {e cross edges}.  The paper cares about
    three properties:

    - {e well-ordered}: contracting every component yields an acyclic
      multigraph, so whole components can be scheduled one after another;
    - {e c-bounded}: each component's total module state is at most [c * m]
      for cache size [m], so a component fits in an [O(m)] cache;
    - low {e bandwidth}: the sum over cross edges of the edge gain — tokens
      crossing component boundaries per source firing — which the paper
      proves is, up to constants and a [1/B] factor, the unavoidable
      cache-miss cost per input of any schedule.

    Component ids are dense, [0 .. num_components - 1], and normalized so
    that for well-ordered partitions ids increase along a topological order
    of the contracted graph. *)

type t

val of_assignment : Ccs_sdf.Graph.t -> int array -> t
(** [of_assignment g a] is the partition placing node [v] in component
    [a.(v)].  Ids are renumbered densely (in order of first appearance along
    the graph's topological order, so a well-ordered input gets
    topologically sorted ids).
    @raise Invalid_argument if the array length differs from the node
    count. *)

val whole : Ccs_sdf.Graph.t -> t
(** All modules in one component. *)

val num_components : t -> int
val component_of : t -> Ccs_sdf.Graph.node -> int
val members : t -> int -> Ccs_sdf.Graph.node list
(** Modules of a component, in topological order. *)

val assignment : t -> int array
(** Copy of the normalized node-to-component map. *)

val cross_edges : t -> Ccs_sdf.Graph.edge list
val internal_edges : t -> Ccs_sdf.Graph.edge list
val is_cross : t -> Ccs_sdf.Graph.edge -> bool

val component_state : t -> int -> int
(** Total module state of a component. *)

val max_component_state : t -> int

val component_degree : t -> int -> int
(** Number of cross edges incident on a component — the quantity the
    degree-limited condition of Lemma 8 bounds by [O(m/b)]. *)

val max_component_degree : t -> int

val is_well_ordered : t -> bool
(** Whether the contracted multigraph is acyclic (Definition 2). *)

val is_degree_limited : t -> bound:int -> bool
(** Whether every component's cross-edge degree is at most [bound] (the
    paper's [O(m/b)]). *)

val validate : ?bound:int -> ?degree_bound:int -> t -> Ccs_sdf.Error.t list
(** Check the partition against the paper's preconditions, with witnesses:
    - [Not_well_ordered] when the contracted multigraph has a cycle — the
      report names the component cycle and a witness cross edge on it
      (Definition 2);
    - [Component_overflow] for every component whose state exceeds [bound]
      (c-boundedness, Definition 2), naming the members;
    - [Degree_exceeded] for every component with more than [degree_bound]
      cross edges (the degree-limited condition of Lemma 8).

    Omitting [bound] / [degree_bound] skips those checks.  Empty means the
    partition satisfies everything that was checked. *)

val period_bandwidth : t -> Ccs_sdf.Rates.analysis -> int
(** [Σ period_tokens(e)] over cross edges [e]: the tokens crossing
    component boundaries in one repetition period, which is
    [period_inputs] times the bandwidth.  Every partitioner compares
    partitions by this integer. *)

val bandwidth : t -> Ccs_sdf.Rates.analysis -> Ccs_sdf.Rational.t
(** [Σ gain(e)] over cross edges [e] (Definition 3), that is
    [period_bandwidth t a / a.period_inputs], for reporting.  For
    homogeneous graphs this is the number of cross edges. *)

val component_topo_order : t -> int array
(** Component ids in a topological order of the contracted graph.
    @raise Invalid_argument if the partition is not well-ordered. *)

val equal : t -> t -> bool
(** Same graph (physically) and same normalized assignment. *)

val pp : Format.formatter -> t -> unit

val to_dot : t -> string
(** Graphviz rendering with one cluster per component (modules labelled
    [name (state)], channels [push/pop], cross edges drawn bold). *)
