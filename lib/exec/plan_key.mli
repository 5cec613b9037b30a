(** The composite identity of a cached planning artifact.

    Cache-aware partitioning — the NP-hard step — is a pure function of
    the graph, the cache configuration, any pinned channel capacities,
    and the planner's algorithm version.  Anything keyed by less is
    under-keyed: a plan cached for one cache geometry (or produced by an
    older planner) must never be served for another.  This module makes
    the full key explicit in one place, shared by the serve daemon's
    persistent plan cache and by {!Checkpoint}'s resume validation (which
    uses the same graph-digest and per-field mismatch discipline).

    Mismatches are structured [Checkpoint_mismatch] findings naming the
    offending field — graph, cache, capacities or planner version — with
    expected/found renderings, mirroring how checkpoints reject files
    from a different run. *)

type t = {
  graph_digest : string;  (** Hex MD5 of the graph's canonical text form. *)
  cache_config : Ccs_cache.Cache.config;
  capacities : int array;
      (** Capacities pinned by the request; [[||]] means planner-chosen. *)
  planner_version : int;
      (** Version of the planning pipeline that produced (or is asked to
          produce) the artifact; [0] for keys that don't involve the
          planner (checkpoints). *)
}

val graph_digest : Ccs_sdf.Graph.t -> string
(** Hex MD5 of {!Ccs_sdf.Serial.to_text} — the digest stored in plan
    cache records and checkpoints alike. *)

val make :
  ?capacities:int array ->
  ?planner_version:int ->
  graph_digest:string ->
  cache_config:Ccs_cache.Cache.config ->
  unit ->
  t
(** Defaults: no pinned capacities, planner version [0]. *)

val of_graph :
  ?capacities:int array ->
  ?planner_version:int ->
  Ccs_sdf.Graph.t ->
  cache:Ccs_cache.Cache.config ->
  t
(** {!make} over a graph's {!graph_digest}. *)

val digest : t -> string
(** Hex MD5 of the key's canonical binary encoding — the plan cache's
    filename stem.  Two keys collide only if every component matches. *)

val check : path:string -> expected:t -> found:t -> (unit, Ccs_sdf.Error.t) result
(** Compare field by field; the first difference comes back as
    [Checkpoint_mismatch] naming the field ([graph], [cache],
    [capacities], [planner version]) with rendered expected/found values.
    [path] labels the offending file in the error. *)

val encode : Ccs_sdf.Binio.W.t -> t -> unit
val decode : path:string -> Ccs_sdf.Binio.R.t -> t
(** Binary round-trip for embedding keys in {!Ccs_sdf.Binio} records.
    [decode] raises structured [Checkpoint_corrupt] on malformed bytes. *)

val policy_tag : Ccs_cache.Cache.policy -> int * int
val policy_of_tag : path:string -> int -> int -> Ccs_cache.Cache.policy
(** Wire helpers for the replacement policy, shared with the checkpoint
    format; [policy_of_tag] raises [Checkpoint_corrupt] on unknown tags. *)
