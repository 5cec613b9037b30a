(** Multiprocessor simulation: private caches, shared memory.

    Models the paper's future-work setting concretely: [P] processors,
    each with a private cache of the configured size, over one shared
    address space.  Components are placed on processors; executing a
    component's firing touches (state, channel tokens) go through its
    processor's cache.  A token crossing a processor boundary therefore
    misses in {e both} caches (written by one, read by the other), while
    processor-internal cross-component traffic can stay cached — exactly
    the coupling between partitioning, placement, and cache misses the
    paper's conclusion points at.

    Execution follows the batch partitioned schedule: per batch of [T]
    inputs, components run in topological order (each on its own
    processor's cache).  Time is modeled as [work + miss_penalty · misses]
    per processor per batch; the batch {e makespan} is the maximum over
    processors, and would-be speedup is the uniprocessor time over the
    makespan.  This is a throughput model of software pipelining across
    batches: different processors work on different batches concurrently,
    so per-batch loads, not precedence within one batch, bound steady-state
    throughput.

    The cache accounting is {!Ccs_exec.Machine}'s: one machine with one
    private cache per processor, each module placed on its component's
    processor, so the firing rule, the layout and the attribution are the
    uniprocessor machine's.  This module adds the placement and the cost
    model on top. *)

type config = {
  processors : int;
  cache : Ccs_cache.Cache.config;  (** Per-processor private cache. *)
  miss_penalty : float;
      (** Cost of one cache miss, in units of one word of work. *)
}

type result = {
  per_processor_misses : int array;
  per_processor_work : float array;  (** Words touched (hit or miss). *)
  per_processor_time : float array;  (** work + miss_penalty · misses. *)
  makespan : float;  (** Max per-processor time, per input. *)
  uniprocessor_time : float;
      (** The same schedule on a plain one-cache {!Ccs_exec.Machine} of
          the same cache size, per input. *)
  speedup : float;  (** [uniprocessor_time / makespan]. *)
  total_misses : int;
  inputs : int;
}

type session
(** An in-flight multiprocessor run: a machine with one private cache per
    processor, the placement, and the batches replayed so far.  Sessions
    decouple construction from execution so a run can be advanced in
    batch increments, snapshotted with {!save_session}, and resumed with
    {!load_session}. *)

val create_session :
  ?counters:Ccs_obs.Counters.t ->
  ?tracer:Ccs_obs.Tracer.t ->
  ?metrics:Ccs_obs.Metrics.t ->
  Ccs_sdf.Graph.t ->
  Ccs_sdf.Rates.analysis ->
  Ccs_partition.Spec.t ->
  Assign.t ->
  plan:Ccs_sched.Plan.t ->
  config ->
  session
(** Certify [plan] ({!Ccs_sched.Plan.validate}) and build its machine:
    the shared address space and one fresh cache per processor; nothing is
    executed yet.
    @raise Ccs_sdf.Error.Error with [Plan_invalid] naming the plan if it
    is aperiodic or does not certify (every error finding in [reason]).
    @raise Invalid_argument if [assign] is for a different processor
    count or [counters] has the wrong size. *)

val run_batches : session -> int -> unit
(** Execute that many further batches (one period each) of the session's
    schedule. *)

val batches_done : session -> int

val sync_metrics : session -> unit
(** Refresh the attached registry (a no-op without one): [ccs_multi_batches],
    [ccs_multi_inputs], and per-processor [ccs_cache_*] gauges labeled
    [proc="<p>"], read from {!Ccs_exec.Machine.caches}.  Pull-model only —
    the firing path carries no metrics code, so an attached registry
    cannot change miss counts. *)

val result : session -> result
(** The result as of the batches executed so far (also refreshes the
    attached registry, as {!sync_metrics}).  The uniprocessor baseline is
    replayed here from the start, on a fresh one-cache machine: its cost
    is that of the batches executed so far. *)

val save_session : path:string -> session -> unit
(** Snapshot the session's machine as a {!Ccs_exec.Checkpoint} —
    channel cursors and fire counts, every private cache's recency order
    and statistics, attached counters/tracer — with the batches done as
    its [epoch], atomically.  The uniprocessor baseline and the work
    accounting are not saved: both follow from the graph, plan, cache
    configuration and fire counts.
    @raise Sys_error on I/O failure. *)

val load_session :
  path:string -> session -> (unit, Ccs_sdf.Error.t) Stdlib.result
(** Restore a {!save_session} snapshot into a freshly created session of
    the {e same} graph, plan, configuration and capacities; afterwards
    {!run_batches} continues bit-identically to the run that was saved.
    Errors: [Io], [Checkpoint_corrupt] (also a file of another kind, such
    as the former ["CCSMSNAP"] session format), [Checkpoint_version]
    (also a version-1 checkpoint), and [Checkpoint_mismatch] when the
    snapshot belongs to a different setup, naming the field: ["graph"],
    ["cache.size_words"] (or another [cache.*] parameter), ["capacities"],
    ["processors"], ["placement"], ["counters"] or ["plan"].  The miss penalty is not
    part of the snapshot: it only prices the result. *)

val run :
  ?counters:Ccs_obs.Counters.t ->
  ?tracer:Ccs_obs.Tracer.t ->
  ?metrics:Ccs_obs.Metrics.t ->
  Ccs_sdf.Graph.t ->
  Ccs_sdf.Rates.analysis ->
  Ccs_partition.Spec.t ->
  Assign.t ->
  t:int ->
  batches:int ->
  config ->
  result
(** Execute [batches] batches of [t] inputs under the placement.

    [counters], sized [num_nodes + num_edges] (checked), attributes the
    parallel run's per-processor cache traffic to owning entities with the
    same encoding as {!Ccs_exec.Machine}: module state [v] is entity [v],
    channel buffer [e] is entity [num_nodes + e].  [tracer] logs
    fire/load/evict events against the private caches.  The uniprocessor
    baseline run (the speedup denominator) is never attributed or traced.

    @raise Invalid_argument if [t] is not a granularity multiple or the
    partition is not well-ordered.
    @raise Ccs_sdf.Error.Error as {!create_session}. *)

val run_plan :
  ?counters:Ccs_obs.Counters.t ->
  ?tracer:Ccs_obs.Tracer.t ->
  ?metrics:Ccs_obs.Metrics.t ->
  Ccs_sdf.Graph.t ->
  Ccs_sdf.Rates.analysis ->
  Ccs_partition.Spec.t ->
  Assign.t ->
  plan:Ccs_sched.Plan.t ->
  batches:int ->
  config ->
  result
(** Like {!run} but replays an explicit plan instead of building the batch
    plan internally.

    @raise Ccs_sdf.Error.Error with [Plan_invalid] if the plan is
    aperiodic ([period = None]) — the multiprocessor simulator replays
    static periodic schedules only — or does not certify. *)
