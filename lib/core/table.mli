(** Minimal fixed-width text tables for reports and benches. *)

val print : header:string list -> rows:string list list -> unit
(** Print a table to stdout, every column padded to its widest cell and
    the header separated by a dashed rule. *)

val fmt_float : float -> string
(** Compact float formatting used across reports ("12.3", "0.042",
    "1.2e-05"). *)
