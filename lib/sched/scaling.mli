(** Execution scaling à la Sermulins et al. (LCTES 2005).

    The paper's Section 6 describes this comparator: start from a given
    steady-state schedule and replace each module invocation by [s]
    back-to-back invocations, choosing the largest [s] that avoids
    "catastrophic spills" — i.e. the largest scaling whose buffer
    requirements still fit alongside the working state in cache.  Scaling
    amortizes state loads over [s] firings but multiplies channel
    occupancy, so it is a restricted point in the design space the paper's
    partitioning subsumes (module fusion + scaling = a special case of
    partition scheduling). *)

val plan : Ccs_sdf.Graph.t -> Ccs_sdf.Rates.analysis -> s:int -> Plan.t
(** Plan for a fixed scaling factor [s >= 1]: the minimal-memory PASS
    with every invocation replaced by [s] back-to-back invocations of the
    same module, so every module fires [s] times as often as in the PASS
    and the schedule is periodic.  Capacities are the scaled schedule's
    measured peaks.  The schedule is token-legal for [s = 1], and for
    larger [s] on a graph without channel delays; a PASS that starts by
    consuming a channel's initial tokens underflows them once [s] copies
    of that block ask for more than the delay holds.  Legality is
    monotone: if [s] is legal, so is every smaller factor.
    @raise Ccs_sdf.Error.Error with the [Schedule_illegal] underflow
    witness when the scaled schedule is not token-legal. *)

val auto :
  Ccs_sdf.Graph.t ->
  Ccs_sdf.Rates.analysis ->
  cache_words:int ->
  ?max_s:int ->
  unit ->
  Plan.t
(** Choose the largest [s] (up to [max_s], default 4096, by doubling then
    bisection) whose scaled schedule is token-legal and whose total
    buffering plus the largest single module state fits in
    [cache_words]; falls back to [s = 1].  Each candidate is certified
    from the schedule tree ({!Simulate.peaks}), not by replaying it. *)
