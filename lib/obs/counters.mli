(** Per-entity access/miss attribution counters.

    An {e entity} is anything the instrumented machine charges a memory
    touch to — a module's state region or a channel's ring buffer — encoded
    as a dense integer id by the instrumenting layer ({!Ccs_exec.Machine}
    makes module state [v] entity [v] and channel buffer [e] entity
    [num_nodes + e]).  The counters themselves are two flat int arrays, so
    recording is two (or three) array stores on the instrumented path and
    the structure imposes zero cost when absent.

    The central invariant the test suite enforces: when a machine is
    created with counters attached, the per-entity misses sum {e exactly}
    to the aggregate cache miss count — every miss has exactly one owner. *)

type t

val create : entities:int -> t
(** Fresh zeroed counters for entity ids [0 .. entities - 1].
    @raise Invalid_argument if [entities < 0]. *)

val entities : t -> int

val record : t -> int -> hit:bool -> unit
(** [record t i ~hit] charges one access (and, unless [hit], one miss) to
    entity [i].  Bounds are the caller's responsibility (unsafe ids raise
    [Invalid_argument] via the array bounds check). *)

val accesses : t -> int -> int
val misses : t -> int -> int

val total_accesses : t -> int
val total_misses : t -> int
(** Sums over all entities — compared against the cache's own aggregate
    counters for the attribution-soundness check. *)

val reset : t -> unit

val dump : t -> int array * int array
(** Copies of the (accesses, misses) arrays, for checkpointing. *)

val load : t -> accesses:int array -> misses:int array -> unit
(** Overwrite the counters with a previous {!dump}.
    @raise Invalid_argument on an entity-count mismatch. *)
