(** Execution engine: runs module firings against the cache simulator.

    A machine instantiates a streaming graph on the simulated DAM memory:
    every module's state and every channel's ring buffer receive disjoint
    word-address ranges, and firing a module touches exactly the words the
    paper's model charges for — the module's whole state, the [pop] words it
    consumes from each input channel and the [push] words it produces on
    each output channel (Section 2: "In order to execute, or fire a module
    v, the entire state of that module must be loaded into the cache").

    The machine enforces SDF firing rules: a firing raises {!Not_fireable}
    unless every input buffer holds enough tokens and every output buffer
    has enough space, so any schedule that runs to completion is a
    certified-legal schedule.  Token counts are tracked per channel for
    conservation checks in tests.

    A machine may hold several private caches over its one address space
    (the multiprocessor model of {!Ccs_multi.Multi_machine}): each module
    is placed on one cache, and all of its firing's touches go through
    that cache.  The uniprocessor machine is the one-cache case. *)

type t

exception Not_fireable of { node : Ccs_sdf.Graph.node; reason : string }

exception Budget_exceeded of { budget : int }
(** Raised by {!fire} once {!total_fires} reaches the budget installed with
    {!set_fire_budget} — the watchdog's guard against livelocked drivers. *)

type layout = {
  l_states : Ccs_cache.Layout.region array;  (** Per-module state region. *)
  l_buffers : Ccs_cache.Layout.region array;
      (** Per-channel ring buffer region ([length] = capacity). *)
  l_total_words : int;  (** Address-space high-water mark. *)
}
(** The simulated address space a (graph, cache, capacities) triple
    induces: state regions in node order (block-aligned by default), then
    ring buffers in edge order, packed. *)

val plan_layout :
  ?align_to_block:bool ->
  graph:Ccs_sdf.Graph.t ->
  cache:Ccs_cache.Cache.config ->
  capacities:int array ->
  unit ->
  layout
(** The exact layout {!create} would build a machine on.  The compiled
    backend ({!Ccs_codegen}) lowers plans through this, so compiled
    word-access traces replay against the interpreted machine
    address-for-address.
    @raise Invalid_argument on a capacity below [max push pop] or a
    capacity vector of the wrong length. *)

val create :
  ?align_to_block:bool ->
  ?record_trace:bool ->
  ?counters:Ccs_obs.Counters.t ->
  ?tracer:Ccs_obs.Tracer.t ->
  ?metrics:Ccs_obs.Metrics.t ->
  ?metrics_labels:(string * string) list ->
  ?caches:int ->
  ?cache_of:int array ->
  graph:Ccs_sdf.Graph.t ->
  cache:Ccs_cache.Cache.config ->
  capacities:int array ->
  unit ->
  t
(** [create ~graph ~cache ~capacities ()] lays out the graph and attaches a
    fresh cache.  [capacities.(e)] is channel [e]'s buffer capacity in
    tokens and must be at least [max (push e) (pop e)] (checked).  With
    [align_to_block] (default [true]) every region starts on a block
    boundary.  With [record_trace] every touched word address is recorded
    (see {!trace}).

    [counters], sized [num_nodes + num_edges] (checked), attributes every
    cache access and miss to its owning entity — module state [v] is
    entity [v], channel buffer [e] is entity [num_nodes + e] — so
    per-entity misses sum exactly to {!misses}.  [tracer] additionally
    logs fire/load/evict/stall events with a logical clock that ticks once
    per simulated cache access.  Both default to absent, in which case the
    firing path is byte-for-byte the uninstrumented one (no extra work, no
    allocation).

    [metrics] registers this machine's series
    ([ccs_machine_fires_total], [ccs_cache_accesses/hits/misses/
    evictions/flushes], each carrying [metrics_labels]) in the given
    registry.  Only the fires counter is pushed from the firing path (one
    branch, one store); the cache series are gauges refreshed by
    {!sync_metrics}, so attaching a registry cannot change replacement
    behavior — miss counts stay bit-identical.

    [caches] (default 1) private caches of configuration [cache] share
    the one address space; module [v]'s firings touch cache
    [cache_of.(v)] (default: every module on cache 0).
    @raise Invalid_argument if [caches < 1], or [cache_of] does not have
    one entry in [\[0, caches)] per module. *)

val graph : t -> Ccs_sdf.Graph.t

val cache : t -> Ccs_cache.Cache.t
(** Cache 0: the machine's only cache unless [create] was given
    [caches > 1]. *)

val caches : t -> Ccs_cache.Cache.t array
(** Every private cache, indexed as [cache_of] places modules on them. *)

val cache_of : t -> Ccs_sdf.Graph.node -> int
(** The index in {!caches} of the cache a module's firings touch. *)

val capacity : t -> Ccs_sdf.Graph.edge -> int
val tokens : t -> Ccs_sdf.Graph.edge -> int
(** Tokens currently buffered on a channel. *)

val can_fire : t -> Ccs_sdf.Graph.node -> bool

val fire : t -> Ccs_sdf.Graph.node -> unit
(** @raise Not_fireable if the module's firing rule is not satisfied. *)

val set_fire_hook : t -> (Ccs_sdf.Graph.node -> unit) option -> unit
(** Install a callback invoked after every successful {!fire} with the
    fired module.  This is how the data-carrying runtime
    ({!Ccs_runtime.Engine}) piggybacks real token movement onto any
    schedule driver, static or dynamic, without changing the driver. *)

val set_fire_budget : t -> int option -> unit
(** Install (or clear) a cap on {!total_fires}; once reached, any further
    {!fire} raises {!Budget_exceeded} instead of executing.  Used by
    {!Ccs_sched.Runner.drive} to bound runaway or livelocked drivers. *)

val snapshot : t -> Ccs_sdf.Error.snapshot
(** Diagnostic freeze-frame: firing/input/output counts, every channel's
    occupancy against its capacity, and every currently-blocked module with
    the reason it cannot fire. *)

val fires : t -> Ccs_sdf.Graph.node -> int
(** How many times a module has fired so far. *)

val total_fires : t -> int

val consumed : t -> Ccs_sdf.Graph.edge -> int
(** Total tokens ever consumed from a channel. *)

val produced : t -> Ccs_sdf.Graph.edge -> int
(** Total tokens ever produced onto a channel. *)

val source_inputs : t -> int
(** Firings of the graph's unique source — the paper's count of inputs
    consumed by the application. *)

val sink_outputs : t -> int
(** Firings of the graph's unique sink. *)

val misses : t -> int
(** Misses summed over {!caches}; [Ccs_cache.Cache.misses (cache t)] on a
    one-cache machine. *)

val misses_per_input : t -> float
(** [misses / source_inputs]; [nan] before any input. *)

val trace : t -> int array
(** The recorded address trace ([record_trace] must have been set).  One
    entry per {e block} touched within each contiguous span (touching every
    word of a span would produce the same block sequence, hence the same
    misses, at much higher simulation cost). *)

val address_space_words : t -> int
(** Total simulated memory footprint. *)

(** {2 Observability}

    Entity ids for the attribution counters: module state [v] is entity
    [v]; channel buffer [e] is entity [num_nodes + e]. *)

val num_entities : t -> int
(** [num_nodes + num_edges] — the size {!create}'s [counters] must have. *)

val entity_label : t -> int -> string
(** The module or channel name behind an entity id (diagnostics, trace
    export). *)

val counters : t -> Ccs_obs.Counters.t option
val tracer : t -> Ccs_obs.Tracer.t option

val sync_metrics : t -> unit
(** Refresh the cache-level gauges ([ccs_cache_*]) from the caches'
    statistics, summed over {!caches}.  A no-op without an attached
    registry.  Drivers call this at epoch and run boundaries — the access
    hot path never does. *)

(** {2 Adaptation hooks}

    Entry points for the adaptive layer ({!Ccs_sched.Adapt}): reconfigure
    the cache under a live run, or move a run onto a machine built for a
    different plan. *)

val resize_cache : t -> Ccs_cache.Cache.config -> unit
(** Apply {!Ccs_cache.Cache.resize} to this machine's cache: capacity or
    associativity changes mid-run, residents surviving by the deterministic
    hottest-first rule, on every one of {!caches}.  Regions, cursors and
    firing state are untouched.
    @raise Invalid_argument if the block size differs. *)

val migrate : src:t -> t -> unit
(** [migrate ~src dst] transplants [src]'s execution state onto [dst], a
    machine built from the same graph (same node/channel counts) but
    possibly a different cache config, layout or channel capacities.
    Firing counts, the firing budget and cumulative channel traffic carry
    over; each channel's buffered tokens are renormalized into the new ring
    buffer ([head = 0], [tail] = token count), so the SDF state — what can
    fire next — is preserved exactly.  [src]'s cache {e statistics} are
    folded into [dst]'s ({!Ccs_cache.Cache.carry_stats}) so miss totals
    stay cumulative across the migration, but residency is not
    transferred: [dst]'s cache starts cold — migrating to a new memory
    layout forfeits cache residency, and the adaptation layer pays that
    cost honestly.
    With several caches, each one's statistics fold into the destination
    cache of the same index.
    @raise Invalid_argument on shape mismatch (nodes, channels or number
    of caches) or if a channel's buffered
    tokens exceed the destination capacity. *)

(** {2 Checkpoint persistence}

    The execution-relevant mutable state of a machine — firing counts,
    absolute channel head/tail cursors, cumulative channel traffic, and the
    firing budget.  Cache recency state and attribution counters live in
    {!Ccs_cache.Cache.persist} and {!Ccs_obs.Counters.dump}; together the
    three capture everything needed to resume a run bit-identically. *)

type persisted = {
  p_fire_count : int array;
  p_total_fires : int;
  p_heads : int array;
  p_tails : int array;
  p_consumed : int array;
  p_produced : int array;
  p_budget : int option;
}

val persist : t -> persisted
(** Copy out the machine's mutable execution state. *)

val restore : t -> persisted -> unit
(** Overwrite the machine's execution state with a previous {!persist}.
    The machine must have been built from the same graph (same node and
    channel counts).
    @raise Invalid_argument on a shape mismatch. *)
