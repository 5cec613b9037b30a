(** Machine and scheduling configuration.

    Bundles the I/O-model parameters — cache size [M] and block size [B],
    in words — with the replacement policy of the simulated cache. *)

type t = {
  cache_words : int;  (** The paper's [M]. *)
  block_words : int;  (** The paper's [B]. *)
  policy : Ccs_cache.Cache.policy;
}

val make :
  ?policy:Ccs_cache.Cache.policy ->
  cache_words:int ->
  block_words:int ->
  unit ->
  t
(** Default policy is fully-associative LRU.
    @raise Invalid_argument on non-positive sizes or [block_words >
    cache_words]. *)

val cache_config : t -> Ccs_cache.Cache.config
(** The underlying simulator configuration. *)

val partition_bound : t -> int
(** [3 * cache_words]: the state bound of the paper's [minBW₃], handed to
    partitioners that lint a user partition. *)

val pp : Format.formatter -> t -> unit
