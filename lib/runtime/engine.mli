(** The data-carrying execution engine.

    Wraps a {!Ccs_exec.Machine} (which does legality checking and cache
    accounting) and moves {e real tokens} through per-channel FIFO queues
    by invoking each module's kernel whenever the machine fires it.  The
    coupling uses the machine's fire hook, so {e any} plan — static batch
    schedules or the dynamic half-full drivers — runs real data without
    modification: the scheduler neither knows nor cares that computation
    is attached.

    Tokens are floats; channels with initial delay start with that many
    zero tokens, matching the scheduling semantics.

    {2 Fault containment}

    {!create} and {!run_plan} contain misbehaving kernels
    (including those wrapped by {!Program.inject}) instead of crashing or
    corrupting downstream state: a kernel that raises, emits non-finite
    tokens (with [validate]), or initialises state of the wrong arity comes
    back as a structured {!Ccs_sdf.Error.Fault} naming the module. *)

type t

val create :
  ?record_trace:bool ->
  ?validate:bool ->
  ?counters:Ccs_obs.Counters.t ->
  ?tracer:Ccs_obs.Tracer.t ->
  ?metrics:Ccs_obs.Metrics.t ->
  program:Program.t ->
  cache:Ccs_cache.Cache.config ->
  capacities:int array ->
  unit ->
  (t, Ccs_sdf.Error.t) result
(** With [validate] (default [true]) every firing's outputs are checked
    for non-finite tokens; a violation raises
    [Ccs_sdf.Error.Error (Fault _)], which {!run_plan} returns.
    [counters]/[tracer]/[metrics] are handed to the underlying
    {!Ccs_exec.Machine.create} for per-entity miss attribution, event
    tracing and registry metrics (cache gauges are synced when a plan run
    completes).  Every construction failure is a structured error: a
    wrong-arity [init] is a [Fault] with class [Bad_state_arity] naming the
    module, and capacity violations surface as [Failure_msg]. *)

val machine : t -> Ccs_exec.Machine.t
(** The underlying machine (statistics, occupancies; the fire hook slot is
    owned by the engine — do not overwrite it). *)

val fire : t -> Ccs_sdf.Graph.node -> unit
(** Fire one module: checks legality, moves cache blocks, and runs the
    kernel. *)

val run_plan :
  ?budget:int ->
  t ->
  Ccs_sched.Plan.t ->
  outputs:int ->
  (Ccs_sched.Runner.result, Ccs_sdf.Error.t) result
(** Drive the engine's machine with the plan through
    {!Ccs_sched.Runner.drive} until the sink has fired [outputs] times,
    running every kernel along the way; returns the same measurement
    record as {!Ccs_sched.Runner.run}.  Kernel faults come back as [Fault]
    errors, stalls as [Deadlocked]/[Budget_exhausted] with a machine
    snapshot, and a plan whose capacities differ from the engine's (they
    must be built from the same plan) as [Plan_invalid] — no exception
    escapes for any of the fault classes under test. *)

val of_plan :
  ?record_trace:bool ->
  ?validate:bool ->
  ?counters:Ccs_obs.Counters.t ->
  ?tracer:Ccs_obs.Tracer.t ->
  ?metrics:Ccs_obs.Metrics.t ->
  program:Program.t ->
  cache:Ccs_cache.Cache.config ->
  plan:Ccs_sched.Plan.t ->
  unit ->
  t
(** {!create} with the plan's own capacities, [validate] defaulting to
    [false].
    @raise Invalid_argument on any construction error. *)

val state : t -> Ccs_sdf.Graph.node -> float array
(** A module's live state vector (the kernel's working data). *)
