(** The data-carrying execution engine.

    Wraps a {!Ccs_exec.Machine} (which does legality checking and cache
    accounting) and moves {e real tokens} by invoking each module's kernel
    whenever the machine fires it.  The coupling uses the machine's fire
    hook, so {e any} plan — static batch schedules or the dynamic
    half-full drivers — runs real data without modification: the
    scheduler neither knows nor cares that computation is attached.

    Tokens are floats.  Each channel's tokens sit in one ring array of the
    channel's capacity, at the slots the machine's own cursors
    ({!Ccs_exec.Machine.consumed}, {!Ccs_exec.Machine.produced}, plus the
    channel's delay) name; the engine keeps no other record of what is on
    a channel.  The rings start zero-filled, so a channel with initial
    delay starts with that many zero tokens, matching the scheduling
    semantics.  Because the cursors are the record, the engine's machine
    is never migrated ({!Ccs_exec.Machine.migrate}) or restored
    ({!Ccs_exec.Machine.restore}): either would move the cursors away from
    the data.

    Each module's input and output arrays are allocated once, when the
    engine is built, and reused on every firing; the outputs are
    zero-filled before each firing, so a slot a kernel leaves unwritten
    carries [0.0].  Beyond what the kernels allocate, a firing allocates
    nothing.

    {2 Fault containment}

    {!create} and {!run_plan} contain misbehaving kernels
    (including those wrapped by {!Program.inject}) instead of crashing or
    corrupting downstream state: a kernel that raises, emits a non-finite
    token, or initialises state of the wrong arity comes back as a
    structured {!Ccs_sdf.Error.Fault} naming the module. *)

type t

val create :
  ?metrics:Ccs_obs.Metrics.t ->
  program:Program.t ->
  cache:Ccs_cache.Cache.config ->
  capacities:int array ->
  unit ->
  (t, Ccs_sdf.Error.t) result
(** Every firing's outputs are checked for non-finite tokens; a violation
    raises [Ccs_sdf.Error.Error (Fault _)] with class [Nan_output], which
    {!run_plan} returns.  [metrics] is handed to the underlying
    {!Ccs_exec.Machine.create} (cache gauges are synced when a plan run
    completes).  Every construction failure is a structured error: a
    wrong-arity [init] is a [Fault] with class [Bad_state_arity] naming the
    module, and capacity violations surface as [Failure_msg]. *)

val machine : t -> Ccs_exec.Machine.t
(** The underlying machine (statistics, occupancies; the fire hook slot is
    owned by the engine — do not overwrite it).  Firing it directly
    ({!Ccs_exec.Machine.fire}) runs the module's kernel too. *)

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
  program:Program.t ->
  cache:Ccs_cache.Cache.config ->
  plan:Ccs_sched.Plan.t ->
  unit ->
  t
(** {!create} with the plan's own capacities.
    @raise Invalid_argument on any construction error. *)

val state : t -> Ccs_sdf.Graph.node -> float array
(** A module's live state vector (the kernel's working data). *)
