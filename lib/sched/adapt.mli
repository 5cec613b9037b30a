(** Adaptive resilience: detect sustained cache degradation from live miss
    telemetry and respond by degrading gracefully, then repartitioning
    online.

    The paper's bounds (Lemmas 4 and 8) hold for the cache a plan was built
    for.  This module is the {e controller} that closes the loop when that
    assumption breaks at run time.  It owns no loop: {!Supervisor.run}
    drives the epochs, imposes the chaos environment, checkpoints and
    retries, and hands the controller ({!step}) each epoch boundary and
    each completed epoch's measured misses and inputs.  The controller
    compares an EWMA of the measured misses-per-input against
    the live plan's predicted Lemma-4/8 bound.  When the ratio exceeds a
    threshold for [patience] consecutive epochs, it climbs a two-rung
    ladder:

    + {b graceful degradation} — the next epochs run the partition-free
      latest-first fallback schedule ({!epoch_plan}) on the {e same}
      machine: no planning latency, no buffered state lost (the capacities
      are unchanged), at the price of cache-oblivious execution;
    + {b online repartitioning} — [repartition_delay] epoch boundaries
      later the "background" replan completes: the planner is invoked for
      the estimated effective capacity, a fresh machine is built for the
      new plan (by the loop, under the environment's actual cache config)
      and execution state migrates onto it via
      {!Ccs_exec.Machine.migrate} — firing counts, channel contents and
      cumulative miss totals all carry over; only cache residency is
      forfeit.

    The effective capacity is {e estimated}, never read from the chaos
    plan: each sustained breach halves the assumption, converging to
    within 2x of the truth — inside the constant-factor augmentation the
    paper's results already tolerate.  With [probe_restore] the reverse
    ladder runs too: measured misses far {e below} the current bound for
    [patience] epochs probe one doubling back up.

    The controller is one immutable record ({!t}): every step returns a
    new one, so the loop can roll it back together with the machine. *)

type planned = { plan : Plan.t; predicted_mpi : float }
(** A plan together with its Lemma-4/8 predicted misses per input
    ({!Analysis.partition_cost_prediction}) — the yardstick degradation is
    measured against. *)

type planner = Ccs_cache.Cache.config -> planned
(** Invoked with the cache configuration to plan for.  Supplied by the
    caller (typically wrapping [Ccs.Auto.plan]) because the planning layer
    sits above this library. *)

type policy = {
  ewma_alpha : float;  (** EWMA smoothing for measured mpi (default 0.5). *)
  degrade_ratio : float;
      (** Breach threshold: measured EWMA over predicted bound
          (default 1.5). *)
  patience : int;  (** Consecutive breach epochs before acting (2). *)
  cooldown : int;  (** Detection-free epochs after an adaptation (2). *)
  repartition_delay : int;
      (** Epochs the background replan takes; the fallback covers them
          (1). *)
  max_adaptations : int;  (** Ladder-step budget per run (8). *)
  probe_restore : bool;
      (** Enable upward probing after sustained headroom (default off). *)
  restore_ratio : float;
      (** Headroom threshold for probing: EWMA below this fraction of the
          bound (0.25). *)
}

type action = Degrade | Repartition | Probe_restore

val action_to_string : action -> string

type event = {
  at_epoch : int;
  action : action;
  from_plan : string;  (** {!Plan.id} of the plan being left. *)
  to_plan : string;  (** {!Plan.id} of the plan taking over. *)
  assumed_words : int;  (** Effective capacity assumed after the step. *)
}

type t = private {
  policy : policy;
  planner : planner;
  nominal : Ccs_cache.Cache.config;  (** The cache the run was planned for. *)
  live : planned;  (** The plan in force and its predicted bound. *)
  assumed_words : int;  (** Effective capacity the live plan assumes. *)
  ewma : float;  (** Measured misses per input; [nan] until sampled. *)
  breach : int;  (** Consecutive epochs above the degrade threshold. *)
  clean : int;  (** Consecutive epochs below the restore threshold. *)
  cooldown : int;  (** Detection-free epochs left. *)
  pending : int option;
      (** A background replan, completing after this many more epoch
          boundaries. *)
  degraded : bool;  (** The fallback schedule is driving. *)
  adaptations : event list;  (** Ladder steps taken, in occurrence order. *)
}
(** The controller: its policy and planner plus the ladder state. *)

val create : ?policy:policy -> planner:planner -> Ccs_cache.Cache.config -> t
(** A controller for a run on the given nominal cache.  Invokes the
    planner once, for that cache: its answer is the run's initial plan
    ([c.live.plan]), the one {!Supervisor.run} must be handed.
    @raise Invalid_argument on a [patience] below 1, an [ewma_alpha]
    outside (0, 1] or a [degrade_ratio] not above 1. *)

val epoch_plan : Ccs_sdf.Graph.t -> t -> Plan.t
(** The plan that drives the next epoch: while degraded, the rung-1
    fallback — latest-first dynamic driving at the live plan's capacities,
    legal on any machine whose plan passed {!Plan.validate} (it is the
    strategy {!Ccs_sdf.Minbuf} certifies); the live plan otherwise. *)

(** What the loop reports to the controller: an epoch boundary, or one
    completed epoch's measured misses and source inputs. *)
type signal = Boundary | Measured of { misses : int; inputs : int }

val step :
  t ->
  epoch:int ->
  graph:Ccs_sdf.Graph.t ->
  make_machine:(Plan.t -> Ccs_exec.Machine.t) ->
  signal ->
  Ccs_exec.Machine.t ->
  t * Ccs_exec.Machine.t * event option
(** One controller step, [epoch] epochs being complete.  Returns the next
    record, the machine that drives on (the argument unless the run
    migrated) and the ladder step taken, if any.

    At a [Boundary], a pending background replan counts down; when it
    completes, the controller finishes the current period, plans for the
    assumed capacity, builds the new plan's machine with [make_machine]
    and migrates the execution state onto it ([Repartition]).  A
    [Measured] epoch feeds the EWMA: a sustained breach engages the
    fallback and schedules a replan ([Degrade]); sustained headroom under
    [probe_restore] migrates to a plan for twice the assumed capacity at
    once ([Probe_restore]). *)

val pp_event : Format.formatter -> event -> unit
