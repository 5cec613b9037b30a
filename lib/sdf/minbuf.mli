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
(** Minimum-buffer capacities and a witnessing single-period schedule,
    from one {!Latest_first} run over every channel: O(n + F·(d² + log n))
    time for [F] firings per period and degree [d], and O(n + m) words
    plus 6 per firing (the recorded schedule).
    @raise Graph.Invalid_graph if the graph deadlocks even with unbounded
    buffers (cannot happen for rate-matched acyclic graphs, but guarded
    against). *)

val total : Graph.t -> t -> subset:(Graph.node -> bool) -> int
(** Total capacity of channels internal to [subset] (both endpoints satisfy
    the predicate) — the quantity the paper's buffer-versus-state assumption
    bounds by [O(Σ state)]. *)

val feasible : Graph.t -> Rates.analysis -> capacities:int array -> bool
(** Whether the latest-first run of one period completes under the given
    capacities, a module also waiting while an output lacks room for its
    push.  A [false] answer means latest-first gets stuck, which for the
    bounded dataflow graphs here coincides with infeasibility of the
    capacities.  Same time as {!compute}, in O(n + m) words: nothing is
    allocated per firing. *)
