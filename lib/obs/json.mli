(** Dependency-free JSON: a value type, a compact emitter and a strict
    parser.

    The emitter is byte-for-byte the format the benchmark harness and the
    telemetry writers produce ({!float_to_string} floats, [null] for
    non-finite values, full string escaping).  The parser accepts standard
    JSON (RFC 8259): it is used by [ccsched bench diff] to read benchmark
    baselines back, so the pair round-trips every document this
    repository writes. *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of value list
  | Obj of (string * value) list

val to_string : value -> string
(** Compact (single-line) serialization.  Non-finite floats become
    [null]; ints beyond 63 bits cannot occur. *)

val float_to_string : float -> string
(** The shortest of [%.15g], [%.16g] and [%.17g] that reads back to the
    same float bit for bit ([-0.0] keeps its sign), so a finite float
    survives {!to_string} and {!of_string} exactly. *)

val escape_string : Buffer.t -> string -> unit
(** Append [s] as a quoted, escaped JSON string — shared by the writers
    that emit JSON without building a {!value}. *)

val of_string : string -> (value, string) result
(** Parse one complete JSON document.  Numbers without [.]/[e] parse as
    [Int] (falling back to [Float] beyond 63-bit range); the error string
    carries the byte offset of the first problem. *)

(** {2 Accessors} — shallow, total helpers for picking documents apart. *)

val member : string -> value -> value option
(** Field of an object ([None] on missing field or non-object). *)

val to_int : value -> int option
val to_float : value -> float option
(** [to_float] also accepts [Int]. *)

val to_str : value -> string option
val to_list : value -> value list option
