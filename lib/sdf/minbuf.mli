(** Minimum channel-buffer sizes and the periodic schedule that achieves
    them.

    The paper (Section 2) relies on a per-channel minimum buffer size
    [minBuf(e)] — computable for rate-matched graphs by the procedure of
    Lee and Messerschmitt — such that a deadlock-free periodic schedule
    exists with every channel bounded by its [minBuf].  We compute it
    constructively: simulate one period of a demand-driven schedule (always
    firing the {e latest} enabled module in topological order, which drains
    tokens towards the sink as eagerly as possible and hence keeps
    occupancies small) and record the maximum occupancy reached on each
    channel.  The recorded schedule is a periodic admissible sequential
    schedule (PASS) that provably respects the returned capacities, because
    it attained exactly those occupancies. *)

type t = {
  capacity : int array;   (** Per-channel buffer capacity, in tokens. *)
  schedule : Graph.node list;
      (** One period of firings respecting [capacity]; contains each module
          [v] exactly [repetition.(v)] times. *)
}

val compute : Graph.t -> Rates.analysis -> t
(** Minimum-buffer capacities and a witnessing single-period schedule.
    Runs on {!Latest_first}: O(n + F·(d² + log n)) for [F] firings per
    period and degree [d].
    @raise Graph.Invalid_graph if the graph deadlocks even with unbounded
    buffers (cannot happen for rate-matched acyclic graphs, but guarded
    against). *)

val closed_form_bound : Graph.t -> Graph.edge -> int
(** [push e + pop e - gcd (push e) (pop e) + delay e]: the classical upper
    bound on the minimum buffer of a single channel considered in isolation.
    For homogeneous channels this is 1 (plus delay); the paper's
    [minBuf(e) = in(e) + out(e)] coarsening dominates it. *)

val total : Graph.t -> t -> subset:(Graph.node -> bool) -> int
(** Total capacity of channels internal to [subset] (both endpoints satisfy
    the predicate) — the quantity the paper's buffer-versus-state assumption
    bounds by [O(Σ state)]. *)

val feasible : Graph.t -> Rates.analysis -> capacities:int array -> bool
(** Whether {e some} single-period schedule exists under the given
    capacities: greedy latest-first simulation with full backtracking-free
    firing (latest-first is deadlock-optimal for this check in practice;
    a [false] answer means latest-first gets stuck, which for the bounded
    dataflow graphs here coincides with infeasibility of the capacities).
    Same cost as {!compute}: after a firing, only the module and its
    neighbours (consumers gain tokens, producers gain room) are examined
    again. *)

val tighten :
  Graph.t -> Rates.analysis -> ?capacities:int array -> unit -> int array
(** Minimize each channel's capacity individually: starting from
    [capacities] (default {!compute}'s), shrink every channel by binary
    search while {!feasible} still holds, processing channels in index
    order (the result is a per-edge local minimum, not the NP-hard joint
    minimum — cf. the buffer-minimization literature the paper cites
    [4, 23, 28]). *)
