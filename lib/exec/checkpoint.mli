(** Versioned, checksummed machine checkpoints.

    A checkpoint captures {e everything} that determines a machine
    simulation's future behaviour: firing counts and channel cursors
    ({!Machine.persist}), every cache's per-set recency order and
    statistics ({!Ccs_cache.Cache.persist}; one cache per processor, with
    the module placement, for a multiprocessor machine), per-entity
    attribution counters, and the tracer's logical clock.  Restoring it
    into a machine built from the same graph, cache configuration and
    channel capacities therefore resumes the run {e bit-identically}: an
    interrupted-and-resumed run reports exactly the miss counts,
    attribution and sink outputs of an uninterrupted one (enforced by a
    QCheck property in the test suite).

    Files are framed by {!Ccs_sdf.Binio}: magic ["CCSCKPT1"], format
    version ({!version}, 2 since checkpoints carry one cache per
    processor and the module placement),
    payload length, FNV-1a checksum.  Corruption, truncation and version
    skew surface as structured [Checkpoint_corrupt] /
    [Checkpoint_version] errors; a checkpoint that is intact but belongs
    to a different graph, cache configuration, capacity vector, number
    of caches or module placement is rejected with [Checkpoint_mismatch] naming the offending
    field. *)

type t = {
  graph_digest : string;  (** Hex MD5 of the graph's canonical text form. *)
  plan_name : string;
  epoch : int;  (** Supervisor epoch at which the snapshot was taken. *)
  cache_config : Ccs_cache.Cache.config;
  capacities : int array;
  placement : int array;
      (** The cache each module fires on ({!Machine.cache_of}). *)
  machine : Machine.persisted;
  caches : Ccs_cache.Cache.persisted array;
      (** One per processor cache, in {!Machine.caches} order. *)
  counters : (int array * int array) option;
      (** Per-entity (accesses, misses), when counters were attached. *)
  tracer : (int * int) option;
      (** Tracer (logical clock, dropped events), when a tracer was
          attached. *)
}

val magic : string
val version : int

val graph_digest : Ccs_sdf.Graph.t -> string
(** The digest stored in (and checked against) a checkpoint. *)

val capture : plan_name:string -> epoch:int -> Machine.t -> t
(** Snapshot a machine's complete execution state. *)

val save : ?metrics:Ccs_obs.Metrics.t -> path:string -> t -> unit
(** Write atomically (unique temp file + rename, {!Ccs_sdf.Binio}).  With
    [metrics], bumps [ccs_checkpoint_saves_total] and observes
    [ccs_checkpoint_save_us] (encode+write wall-clock latency,
    microseconds, from {!Clock}) and [ccs_checkpoint_bytes] (payload
    size).
    @raise Sys_error on I/O failure. *)

val load :
  ?metrics:Ccs_obs.Metrics.t -> path:string -> unit -> (t, Ccs_sdf.Error.t) result
(** Read and fully validate a checkpoint file's framing and payload
    structure.  Errors: [Io], [Checkpoint_corrupt], [Checkpoint_version].
    With [metrics], successful loads bump [ccs_checkpoint_loads_total] and
    observe [ccs_checkpoint_load_us] / [ccs_checkpoint_bytes]. *)

val load_into :
  ?metrics:Ccs_obs.Metrics.t ->
  path:string ->
  Machine.t ->
  (t, Ccs_sdf.Error.t) result
(** [load] followed by [restore]; returns the checkpoint (for its epoch). *)
