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

val run :
  ?counters:Ccs_obs.Counters.t ->
  ?tracer:Ccs_obs.Tracer.t ->
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

    @raise Invalid_argument if [t] is not a granularity multiple, the
    partition is not well-ordered, [assign] is for a different processor
    count or [counters] has the wrong size.
    @raise Ccs_sdf.Error.Error as {!run_plan}. *)

val run_plan :
  ?counters:Ccs_obs.Counters.t ->
  ?tracer:Ccs_obs.Tracer.t ->
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
    static periodic schedules only — or does not certify
    ({!Ccs_sched.Plan.validate}; every error finding in [reason]). *)
