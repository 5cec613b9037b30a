(** Run a plan on a simulated machine and collect its cost.

    Every plan run goes through {!drive}, which turns each way execution
    can stall — a wedged machine, a driver that spins without firing the
    sink or returns early — into a structured error carrying a
    {!Ccs_sdf.Error.snapshot} instead of a raised exception or a hang. *)

type result = {
  plan_name : string;
  inputs : int;  (** Source firings executed. *)
  outputs : int;  (** Sink firings executed. *)
  misses : int;
  accesses : int;
  misses_per_input : float;
  buffer_words : int;  (** Plan's total buffer footprint. *)
  address_space_words : int;  (** Whole simulated footprint. *)
}

val result_of : plan:Plan.t -> Ccs_exec.Machine.t -> result
(** Read the result a machine would report for [plan] {e right now} —
    shared by every driver that measures a machine (plain runs, profiles,
    the supervisor, the data-carrying engine). *)

val default_budget :
  ?capacities:int array ->
  Ccs_sdf.Graph.t -> cache_words:int -> outputs:int -> int
(** The budget {!drive} uses when none is given: a generous multiple of
    the firings a correct plan needs for [outputs] sink firings (covering
    whole batches of [T >= cache_words] source firings, and, given the
    plan's [capacities], enough periods to fill every channel to capacity),
    or a node-count-based fallback when rate analysis fails.  The
    arithmetic saturates at [max_int], so extreme [cache_words]/[outputs]
    yield a huge positive budget rather than overflowing to a negative
    one. *)

val drive :
  ?budget:int ->
  ?metrics:Ccs_obs.Metrics.t ->
  Ccs_exec.Machine.t ->
  plan:Plan.t ->
  outputs:int ->
  (unit, Ccs_sdf.Error.t) Stdlib.result
(** Drive an existing machine to [outputs] sink firings under a budget of
    at most [budget] further firings.  Errors:
    - [Deadlocked] — a firing was attempted on a blocked module, a dynamic
      driver found no schedulable component, or the driver returned short
      of the target;
    - [Budget_exhausted] — the budget ran out before the target was met
      (livelock, or a driver making no sink progress);
    - [Plan_invalid] — the driver rejected its own plan (e.g. a period that
      never fires the sink);
    - any structured error a fire hook raises (e.g. a kernel [Fault]).

    The machine's budget is cleared before returning, and the snapshot in
    every error reflects the machine at the moment it stalled.

    With [metrics], each drive bumps [ccs_watchdog_drives_total] (and
    [ccs_watchdog_trips_total] on error) and records the unused firing
    budget in the [ccs_watchdog_budget_headroom] gauge. *)

val run :
  ?budget:int ->
  ?record_trace:bool ->
  ?counters:Ccs_obs.Counters.t ->
  ?tracer:Ccs_obs.Tracer.t ->
  ?metrics:Ccs_obs.Metrics.t ->
  graph:Ccs_sdf.Graph.t ->
  cache:Ccs_cache.Cache.config ->
  plan:Plan.t ->
  outputs:int ->
  unit ->
  (result * Ccs_exec.Machine.t, Ccs_sdf.Error.t) Stdlib.result
(** Build a machine with the plan's capacities, {!drive} it until the sink
    has fired at least [outputs] times, and return the measured result
    along with the machine (for inspecting the cache or trace).  Machine
    construction failures (e.g. a capacity below a rate) and stalls come
    back as structured errors.  [counters], [tracer] and [metrics] are
    handed to {!Ccs_exec.Machine.create} only — for per-entity miss
    attribution, event tracing and registry metrics (the cache gauges are
    synced once the drive completes); a plain run registers no
    [ccs_watchdog_*] series.  See also {!Profile.run}. *)

val pp_result : Format.formatter -> result -> unit

type latency = {
  max_inputs_behind : int;
      (** Max over sink firings of (inputs consumed so far − inputs
          {e necessary} for that many outputs): the buffered backlog, in
          input tokens — a direct latency measure in the streaming sense.
          Minimal-memory schedules keep it near the pipeline depth; batch
          schedules hold whole batches, so it grows with [T] times the
          component count. *)
  mean_inputs_behind : float;
}

val run_with_latency :
  graph:Ccs_sdf.Graph.t ->
  cache:Ccs_cache.Cache.config ->
  plan:Plan.t ->
  outputs:int ->
  unit ->
  (result * latency, Ccs_sdf.Error.t) Stdlib.result
(** Like {!run}, additionally tracking the input-to-output backlog at every
    sink firing (via the machine's fire hook, so it works for dynamic
    plans too). *)
