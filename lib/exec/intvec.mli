(** Growable array of unboxed integers (OCaml 5.1 has no [Dynarray]).

    Used to record memory traces, which can run to millions of entries, so
    it must not box. *)

type t

val create : ?initial_capacity:int -> unit -> t
val push : t -> int -> unit
val to_array : t -> int array
