(** Address-space layout for simulated streaming programs.

    Assigns disjoint word-address ranges to named regions — module state and
    channel buffers — so that execution can present realistic addresses to
    the cache simulator.  Regions can be block-aligned (the default), which
    prevents false sharing between a module's state and a neighbouring
    buffer; packing without alignment is available for ablations. *)

type region = { base : int; length : int }

type t

val create : ?align:int -> unit -> t
(** [create ~align ()] starts an empty layout whose regions are aligned to
    multiples of [align] words (default 1 = packed). *)

val alloc : ?align:int -> t -> len:int -> region
(** Reserve [len] words (a zero-length region gets a valid base and length
    0).  [align] overrides the layout's default alignment for this region
    only. *)

val size : t -> int
(** Total words allocated (address space high-water mark). *)
