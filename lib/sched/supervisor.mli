(** Crash-safe supervised execution of a plan: the one epoch loop.

    The supervisor drives any {!Plan.t} in {e epochs} — batch-aligned
    output quanta (one schedule period's worth of sink firings by default)
    — and checkpoints the complete machine state every [checkpoint_every]
    epochs through {!Ccs_exec.Checkpoint}.  Every run-time concern hangs
    off this loop: a chaos environment ({!Ccs_exec.Fault.env}) imposing
    cache shrinks, associativity changes, demand bursts and checkpoint I/O
    faults, and an optional adaptation controller ({!Adapt.t}) that
    degrades to a fallback schedule and repartitions online.

    Structured faults raised during an epoch ({!Ccs_sdf.Error.Fault},
    deadlocks, budget exhaustion) are caught; the loop is rolled back to
    the last durable checkpoint (or a pristine machine) and the epoch is
    retried under an exponential {e logical-time} backoff.  Rollback
    restores the whole loop state recorded with that checkpoint: the
    machine, the controller record (and with it the live plan) and the
    cache configuration the environment imposed.  A site that faults
    deterministically — same site, same firing index, twice in a row — or
    exhausts [max_retries] is {e quarantined}: the run stops with
    {!Ccs_sdf.Error.Quarantined} carrying the site, firing index, attempt
    count and the path of the last good checkpoint.

    Determinism invariant (tested by a QCheck property over random graphs,
    chaos environments and kill points): a run killed at any epoch and
    resumed with [~resume:true] reports exactly the same miss counts,
    per-entity attribution and sink outputs as an uninterrupted supervised
    run with the same parameters.  Epoch targets and the imposed cache
    configuration are pure functions of [(outputs, epoch_outputs, env)]
    and the epoch index, so the resumed run replays the identical firing
    sequence. *)

type config = {
  checkpoint_every : int;  (** Epochs between checkpoints (default 4). *)
  max_retries : int;  (** Faults tolerated before quarantine (default 4). *)
  backoff_base : int;
      (** Logical delay unit; retry [k] adds [backoff_base * 2^(k-1)]
          (default 1). *)
  keep : int;  (** Checkpoint files retained on disk (default 2). *)
}

val default_config : config

type report = {
  result : Runner.result;  (** Reported against the final live plan. *)
  epochs : int;  (** Epochs the full run spans (bursts shorten the count). *)
  epoch_outputs : int;  (** Sink outputs per epoch before bursts. *)
  checkpoints_written : int;
  resumed_from : int option;  (** Epoch restored on [~resume:true]. *)
  retries : int;  (** Faulted epochs re-executed. *)
  logical_delay : int;  (** Total backoff charged, in logical units. *)
  chaos_events : int;  (** Cache changes the environment imposed. *)
  io_faults : int;  (** Checkpoint writes lost to I/O-fault windows. *)
  adapt : Adapt.t option;  (** The controller's final record. *)
}

val run :
  ?config:config ->
  ?checkpoint_dir:string ->
  ?resume:bool ->
  ?epoch_outputs:int ->
  ?env:Ccs_exec.Fault.env ->
  ?adapt:Adapt.t ->
  ?counters:Ccs_obs.Counters.t ->
  ?tracer:Ccs_obs.Tracer.t ->
  ?metrics:Ccs_obs.Metrics.t ->
  ?log:Ccs_obs.Log.t ->
  ?prepare:(Ccs_exec.Machine.t -> unit) ->
  ?on_epoch:(epoch:int -> machine:Ccs_exec.Machine.t -> unit) ->
  graph:Ccs_sdf.Graph.t ->
  cache:Ccs_cache.Cache.config ->
  plan:Plan.t ->
  outputs:int ->
  unit ->
  (report, Ccs_sdf.Error.t) result
(** Drive [plan] to [outputs] sink firings under supervision.

    [cache] is the {e nominal} configuration: the initial machine uses it
    and [env] (default none) imposes its conditions relative to it at each
    epoch boundary — cache changes through
    {!Ccs_exec.Machine.resize_cache}, bursts by multiplying the epoch's
    output quantum, I/O-fault windows by skipping (and counting) the
    checkpoint writes due inside them.  Without [adapt] the plan runs to
    the end whatever the environment does: the "stale plan" arm.  With
    [adapt], [plan] must be the controller's initial plan
    ([c.Adapt.live.plan]); the controller picks each epoch's plan and may
    migrate the run onto new machines.

    [checkpoint_dir] enables checkpointing (the directory is created if
    missing; the newest [config.keep] files are retained).  Without
    [resume] the directory must hold no checkpoints: files of another run
    would be pruned and resumed as this run's, so a [Failure_msg] error
    naming the newest one is returned instead (nothing is deleted).
    [resume] restores the latest checkpoint in [checkpoint_dir] before
    running — rejecting it with [Checkpoint_mismatch] if it belongs to a
    different graph, cache configuration, capacity vector or plan, or
    (field ["epoch"]) lies past this run's epoch count — and is a no-op
    when the directory has no checkpoints.  A checkpoint holds the machine
    only, not a controller's record, so [resume] with [adapt] is rejected
    with a [Failure_msg] error.  [prepare] runs on every machine the loop
    builds (initial, after each rollback, and each migration target) — the
    place to install fire hooks such as fault injection or a data overlay.
    [on_epoch] fires after each completed epoch, {e after} any checkpoint
    write, so killing the process inside it simulates a crash with the
    epoch's checkpoint already durable.

    [metrics] registers the supervisor's series in the given registry:
    [ccs_supervisor_epochs_total], the [ccs_supervisor_epoch_ticks]
    histogram of each epoch's logical duration (cache accesses),
    [ccs_supervisor_retries_total] / [_rollbacks_total] /
    [_quarantines_total], and [ccs_supervisor_backoff_ticks_total]; runs
    with an [env] or [adapt] also register the [ccs_adapt_*] series.  The
    registry is also threaded to the machine ({!Ccs_exec.Machine.create}),
    the watchdog and checkpoint I/O, and the machine's cache gauges are
    synced at every epoch boundary.  [log] receives one structured event
    per lifecycle step: [run_start], [resume], [chaos], [burst],
    [adaptation], [epoch], [checkpoint], [checkpoint_io_fault], [retry],
    [rollback], [quarantine], [run_end].  Neither changes the firing
    sequence: a run with telemetry attached reports bit-identical miss
    counts.

    Errors: [Quarantined] (fault containment gave up), checkpoint errors
    on resume, or any machine-construction error.
    @raise Invalid_argument on non-positive [checkpoint_every], [keep] or
    [epoch_outputs], negative [max_retries], or an [adapt] controller whose
    initial plan is not [plan]. *)

val pp_report : Format.formatter -> report -> unit
