(** Latest-first firing: the one simulation loop behind minimum-buffer
    sizing ({!Minbuf.compute}), capacity feasibility ({!Minbuf.feasible})
    and the per-component periods of the partitioned batch schedule.

    Among the enabled modules, always fire the one of greatest topological
    rank, so tokens are consumed as soon as they are produced. *)

type t
(** A driver for one graph: every module's neighbours, and the rank heap
    and its scratch space, reused by every {!run} on that graph. *)

val create : Graph.t -> t
(** O(n + m). *)

val run :
  t ->
  remaining:int array ->
  candidates:Graph.node list ->
  ready:(Graph.node -> bool) ->
  fire:(Graph.node -> unit) ->
  int
(** [run t ~remaining ~candidates ~ready ~fire] fires modules latest-first
    until none is enabled, and returns the number of firings.  A module
    [v] is enabled when [remaining.(v) > 0] and [ready v].  Firing [v]
    calls [fire v], then decrements [remaining.(v)].

    Only [candidates] are examined at the start, and after firing [v]
    only [v] and its neighbours are examined again.  So a module outside
    [candidates] must start disabled, and firing [v] may enable only [v]
    and its neighbours — true when [ready u] reads only the channels
    incident on [u].  Enabled modules wait in a heap keyed by rank, so a
    run costs O(c + F·(d² + log n)) for [c] candidates, [F] firings and
    degree [d], not the O(F·n) of scanning every module per firing. *)
