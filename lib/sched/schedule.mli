(** Static schedules as compact looped firing programs.

    A static schedule is a tree of firings, sequences, and repetitions —
    the standard "looped schedule" representation from the SDF literature.
    A batch schedule like "repeat M times: fire the whole component once"
    is [Repeat (m, Seq [...])] rather than a length-[M·|C|] array, keeping
    memory proportional to the program, not the execution. *)

type t =
  | Fire of Ccs_sdf.Graph.node
  | Seq of t list
  | Repeat of int * t  (** [Repeat (k, body)]: execute [body] [k] times. *)

val fire : Ccs_sdf.Graph.node -> t
val seq : t list -> t
val repeat : int -> t -> t
(** @raise Invalid_argument if the count is negative. *)

val of_list : Ccs_sdf.Graph.node list -> t

val length : t -> int
(** Total number of firings when executed, computed without unrolling;
    [max_int] when there are [max_int] firings or more. *)

val iter : t -> f:(Ccs_sdf.Graph.node -> unit) -> unit
(** Visit every firing in execution order. *)

val to_list : t -> Ccs_sdf.Graph.node list
(** Flattened firing sequence (use only for small schedules/tests). *)

val fire_counts : num_nodes:int -> t -> int array
(** How many times each module fires, computed without unrolling. *)

val compress : t -> t
(** Semantics-preserving compaction: flattens nested sequences, drops
    empty/zero repeats, and run-length-encodes repeated adjacent
    sub-schedules (so [of_list [a;a;a;b;b]] becomes
    [Seq [Repeat (3, Fire a); Repeat (2, Fire b)]]).  {!iter} visits the
    same firing sequence before and after. *)

val equivalent : t -> t -> bool
(** Whether two schedules denote the same firing sequence (compares by
    flattening; intended for tests and small schedules). *)

val run : Ccs_exec.Machine.t -> t -> unit
(** Execute on a machine.
    @raise Ccs_exec.Machine.Not_fireable if the schedule is illegal for the
    machine's buffer capacities. *)

val pp : Format.formatter -> t -> unit
