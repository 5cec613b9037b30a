(** Exact rational arithmetic on OCaml native integers.

    Gains of modules and edges in a synchronous dataflow graph are ratios of
    products of small integer rates, so exact rationals over native [int] are
    sufficient in practice.  All operations normalize (reduced fraction,
    positive denominator) and raise {!Overflow} rather than silently wrapping
    when a product exceeds the native range, so results are always exact. *)

type t = private { num : int; den : int }
(** A rational [num / den] in lowest terms with [den > 0]. *)

exception Overflow
(** Raised when an intermediate product cannot be represented in a native
    [int]. *)

exception Division_by_zero_rational
(** Raised when constructing a rational with a zero denominator or dividing
    by the zero rational. *)

val make : int -> int -> t
(** [make num den] is the normalized rational [num/den].
    @raise Division_by_zero_rational if [den = 0]. *)

val of_int : int -> t

val one : t

val num : t -> int
val den : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val inv : t -> t

val mul_int : t -> int -> t
(** [mul_int q k] is [q * k]. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val is_integer : t -> bool

val to_int_exn : t -> int
(** [to_int_exn q] is the integer value of [q].
    @raise Invalid_argument if [q] is not an integer. *)

val floor : t -> int
val ceil : t -> int

val to_float : t -> float

val gcd : int -> int -> int
(** Greatest common divisor on non-negative results; [gcd 0 0 = 0]. *)

val lcm : int -> int -> int
(** Least common multiple. @raise Overflow on native overflow. *)

val mul_exact : int -> int -> int
(** [mul_exact a b] is [a * b]. @raise Overflow on native overflow. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
