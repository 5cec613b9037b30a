(** Attributed profiling runs: where do the misses go?

    Runs a plan with the {!Ccs_obs} observers attached, so every cache miss
    is charged to the module state or channel buffer that incurred it, and
    (optionally) every fire/load/evict/stall becomes a trace event on a
    logical clock that ticks once per simulated cache access.

    The per-component table checks the paper's decomposition (Lemmas 4
    and 8) against the simulator: a batch schedule's misses split into each
    component reloading its working set once per batch plus every cross
    edge paying its bandwidth twice per batch (written by the producer,
    read by the consumer). *)

type t = {
  result : Runner.result;
  machine : Ccs_exec.Machine.t;
  counters : Ccs_obs.Counters.t;
  tracer : Ccs_obs.Tracer.t option;
}

val run :
  ?events:bool ->
  ?event_limit:int ->
  graph:Ccs_sdf.Graph.t ->
  cache:Ccs_cache.Cache.config ->
  plan:Plan.t ->
  outputs:int ->
  unit ->
  (t, Ccs_sdf.Error.t) result
(** {!Runner.run} with attribution counters always attached; with
    [events] (default [false]) an event tracer too, keeping at most
    [event_limit] events (default 1M; later events are counted but
    dropped).  Errors are {!Runner.run}'s. *)

val per_entity : t -> (string * int * int) list
(** [(label, accesses, misses)] for every entity that was touched at least
    once, heaviest misses first (see
    {!Ccs_obs.Trace_export.entity_summary}). *)

val attributed_misses : t -> int
(** Sum of per-entity misses — always equals [t.result.misses]. *)

type row = {
  label : string;
  measured : int;  (** Misses attributed to this row's entities. *)
  predicted : int;  (** The model's charge (see {!component_table}). *)
}

type table = {
  components : row list;  (** One per component of the partition. *)
  cross : row list;  (** One per cross edge. *)
  measured_total : int;
  predicted_total : int;
  batches : int;  (** Whole batches executed, [inputs / t]. *)
}

val component_table : t -> Ccs_partition.Spec.t -> t:int -> table
(** Predicted vs measured miss decomposition for a batch-[t] partitioned
    run: component [c] is predicted [batches · Σ ceil(words/B)] over its
    module states and internal buffers (one cold reload per batch), a
    cross edge [2 · batches · ceil(tokens_per_batch/B)] (producer writes,
    consumer reads).  Measured numbers are the attribution counters
    aggregated the same way.
    @raise Invalid_argument if [t <= 0]. *)

val pp_table : Format.formatter -> table -> unit

val chrome : ?process_name:string -> t -> string
(** The run's events as Chrome [trace_event] JSON (load into Perfetto or
    [chrome://tracing]); one thread per entity, logical-clock timestamps.
    The top-level ["ccs"] object carries summary counters, including
    [total_misses] and [attributed_misses].
    @raise Invalid_argument if the profile ran without [events]. *)
