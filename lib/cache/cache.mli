(** Cache simulator for the external-memory (I/O / DAM) model.

    The paper's cost model (Section 2): a fast memory of [m] words organized
    in blocks of [b] words in front of an arbitrarily large slow memory.
    Touching a word whose block is cached is free; otherwise the block is
    brought in (a {e cache miss}, the unit of cost), possibly evicting
    another block.

    The theorems assume an ideal (offline) replacement; we default to LRU,
    which by Sleator–Tarjan is 2-competitive with OPT at half the capacity —
    within the constant-factor cache augmentation the paper's results
    already tolerate, so every claimed asymptotic shape is preserved.
    Set-associative and direct-mapped variants are provided for
    sensitivity studies, and {!Opt} computes Belady's clairvoyant optimum
    offline for comparison. *)

type policy =
  | Lru  (** Fully associative, least-recently-used (default). *)
  | Set_associative of int
      (** [Set_associative ways]: block address modulo the number of sets
          selects a set; LRU within the set. *)
  | Direct_mapped  (** Equivalent to [Set_associative 1]. *)

type config = {
  size_words : int;  (** Capacity [m] in words. *)
  block_words : int;  (** Block size [b] in words. *)
  policy : policy;
}

val config :
  ?policy:policy -> size_words:int -> block_words:int -> unit -> config
(** @raise Invalid_argument unless [0 < block_words <= size_words]. *)

type t

val create : config -> t
val size_words : t -> int
val block_words : t -> int
val num_blocks : t -> int
(** Capacity in blocks: [size_words / block_words]. *)

val num_sets : t -> int
(** Number of replacement sets: [1] for fully-associative LRU, [nblocks]
    for direct-mapped, [ceil (nblocks / ways)] for set-associative.  When
    [ways] does not divide [nblocks] the last set shrinks, so the sets
    always hold exactly {!num_blocks} blocks. *)

val touch : t -> int -> bool
(** [touch t addr] simulates an access to word address [addr]; returns
    [true] on hit.  Statistics are updated. *)

val touch_block : t -> int -> bool
(** [touch_block t blk] is [touch t (blk * block_words t)]: an access by
    block id rather than word address.  This is the allocation-free hot
    path used by the machine simulator. *)

val touch_block_traced : t -> int -> bool * int
(** [touch_block_traced t blk] is {!touch_block} that additionally reports
    the block evicted to make room ([-1] when the access hit or no
    eviction was needed).  Slightly slower than {!touch_block}; used only
    when a tracer is attached. *)

val cached : t -> int -> bool
(** Whether [addr]'s block is currently resident (no side effect). *)

val flush : t -> unit
(** Empty the cache.  Counts towards {!flushes} but not misses. *)

val accesses : t -> int
val hits : t -> int
val misses : t -> int
val flushes : t -> int

val evictions : t -> int
(** Blocks displaced by replacement (summed over all sets) since creation
    or the last {!restore}.  A {!flush} empties the cache
    but does not count as evictions, and the count is {e not} part of the
    {!persisted} state — it is a telemetry diagnostic. *)

val resize : t -> config -> unit
(** [resize t cfg] reconfigures a live cache in place — the adverse-runtime
    event of the effective capacity shrinking under contention (or being
    restored, or associativity changing).  Residents survive by a
    deterministic "keep the hottest" rule: a global hotness order (recency
    depth first, set index second) ranks every resident block, and each new
    replacement set keeps the hottest blocks mapping to it up to its
    capacity.  Blocks that fit nowhere count towards {!evictions};
    accesses/hits/misses/flushes are continuous across the resize.
    @raise Invalid_argument if [cfg.block_words] differs from the current
    block size (block geometry cannot change online). *)

val carry_stats : src:t -> t -> unit
(** [carry_stats ~src dst] adds [src]'s accesses/hits/misses/flushes and
    eviction count onto [dst]'s — plan migration uses this so a run's miss
    totals stay cumulative when execution moves to a new machine.  No
    replacement state is transferred; [src] is unchanged. *)

val pp_stats : Format.formatter -> t -> unit

val config_of : t -> config
(** The configuration this cache was created from. *)

type persisted = {
  p_accesses : int;
  p_hits : int;
  p_misses : int;
  p_flushes : int;
  p_sets : int array array;  (** Per replacement set, MRU first. *)
}
(** A cache's complete replacement-relevant state: statistics plus every
    set's recency order.  A cache restored from this behaves bit-identically
    to the one it was dumped from on any future access sequence. *)

val persist : t -> persisted

val restore : t -> persisted -> unit
(** Load a {!persisted} dump into a cache built from the {e same} config.
    @raise Invalid_argument if the set structure does not match (different
    config) or a set dump is oversized/duplicated (corrupt data that got
    past the file checksum). *)

(** Offline clairvoyant replacement (Belady's OPT), for calibrating how far
    LRU is from the ideal cache the theorems assume. *)
module Opt : sig
  val misses : block_capacity:int -> int array -> int
  (** [misses ~block_capacity trace] is the number of misses OPT incurs on
      the given sequence of {e block} ids with a cache of [block_capacity]
      blocks, starting empty.  Runs in O(n log n). *)

  type stats = { misses : int; peak_heap : int }
  (** [peak_heap] is the lazy-deletion heap's high-water mark — at most one
      entry per access, so it is bounded by the trace length. *)

  val misses_stats : block_capacity:int -> int array -> stats
  (** Like {!misses}, also reporting the internal heap's peak size (for
      regression tests on the lazy-deletion bookkeeping). *)

  val block_trace : block_words:int -> int array -> int array
  (** Map a word-address trace to its block-id trace. *)
end
