(** Latest-first firing: the one token walker behind minimum-buffer
    sizing ({!Minbuf.compute}), capacity feasibility ({!Minbuf.feasible})
    and the per-component periods of the partitioned batch schedule.

    Among the enabled modules, always fire the one of greatest topological
    rank, so tokens are consumed as soon as they are produced. *)

type t
(** A driver for one graph: every module's neighbours and channel arrays,
    every channel's rates, token and peak counts, and the rank heap, all
    reused by every {!run} on that graph. *)

val create : Graph.t -> t
(** O(n + m). *)

val run :
  ?capacities:int array ->
  t ->
  remaining:int array ->
  candidates:Graph.node list ->
  channels:Graph.edge list ->
  record:bool ->
  int * Graph.node list
(** [run t ~remaining ~candidates ~channels ~record] fires modules
    latest-first until none is enabled, and returns the number of firings
    and, when [record], their order ([[]] otherwise).  Each of [channels]
    is tracked from its delay; the others are unbounded supply and void.
    A module [v] is enabled when [remaining.(v) > 0], every tracked input
    holds its pop and, under [capacities], every tracked output has room
    for its push.  Firing [v] decrements [remaining.(v)].

    Only [candidates] are examined at the start, and after firing [v]
    only [v] and its neighbours, so a module outside [candidates] must
    start disabled.  Enabled modules wait in a heap keyed by rank: a run
    costs O(c + t + F·(d² + log n)) for [c] candidates, [t] tracked
    channels, [F] firings and degree [d].  It allocates O(c + t) words,
    plus 6 words per firing when [record] and none otherwise. *)

val tokens : t -> Graph.edge -> int
(** A channel's occupancy at the end of the last {!run} that tracked it. *)

val peak : t -> Graph.edge -> int
(** A channel's highest occupancy, delay included, during the last {!run}
    that tracked it. *)
