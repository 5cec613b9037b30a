(** Deadlock/starvation watchdog around plan execution.

    A malformed plan can wedge the machine (a channel whose capacity admits
    neither a push nor a pop), and a buggy dynamic driver can spin without
    ever firing the sink.  Bare drivers surface these as raised exceptions
    or, worse, as an infinite loop.  This module drives any plan under a
    firing budget and converts every way execution can stall into a
    structured diagnostic carrying a {!Ccs_sdf.Error.snapshot}: per-channel
    occupancy and every blocked module's reason, so the defect can be read
    off the report. *)

val default_budget :
  ?capacities:int array ->
  Ccs_sdf.Graph.t -> cache_words:int -> outputs:int -> int
(** The budget {!run} uses when none is given: a generous multiple of the
    firings a correct plan needs for [outputs] sink firings (covering whole
    batches of [T >= cache_words] source firings, and, given the plan's
    [capacities], enough periods to fill every channel to capacity), or a
    node-count-based fallback when rate analysis fails.  The arithmetic
    saturates at [max_int], so extreme [cache_words]/[outputs] yield a
    huge positive budget rather than overflowing to a negative one. *)

val drive :
  ?budget:int ->
  ?metrics:Ccs_obs.Metrics.t ->
  Ccs_exec.Machine.t ->
  plan:Plan.t ->
  outputs:int ->
  (unit, Ccs_sdf.Error.t) result
(** Drive an existing machine to [outputs] sink firings under a budget of
    at most [budget] further firings.  Errors:
    - [Deadlocked] — a firing was attempted on a blocked module, or a
      dynamic driver found no schedulable component;
    - [Budget_exhausted] — the budget ran out before the target was met
      (livelock, or a driver making no sink progress);
    - [Plan_invalid] — the driver rejected its own plan (e.g. a period that
      never fires the sink).

    The machine's budget is cleared before returning, and the snapshot in
    every error reflects the machine at the moment it stalled.

    With [metrics], each drive bumps [ccs_watchdog_drives_total] (and
    [ccs_watchdog_trips_total] on error) and records the unused firing
    budget in the [ccs_watchdog_budget_headroom] gauge. *)

val run :
  ?budget:int ->
  ?record_trace:bool ->
  ?metrics:Ccs_obs.Metrics.t ->
  graph:Ccs_sdf.Graph.t ->
  cache:Ccs_cache.Cache.config ->
  plan:Plan.t ->
  outputs:int ->
  unit ->
  (Runner.result * Ccs_exec.Machine.t, Ccs_sdf.Error.t) result
(** {!Runner.run} with the watchdog attached: builds the machine (machine
    construction failures — e.g. capacity below rate — come back as
    structured errors rather than exceptions), {!drive}s it, and reports
    the usual miss statistics on success. *)
