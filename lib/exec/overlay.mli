(** Deterministic data-carrying overlay: the bit-exactness oracle for
    schedule changes, migrations and chaos runs.

    A {!Machine} moves token {e counts}; an overlay shadows every channel
    with a FIFO of integer values and every module with a running digest of
    its input history, advanced through the machine's fire hook.  Each
    module's k-th firing consumes exactly the values its producers' earlier
    firings pushed, so by Kahn determinism the value sequence arriving at
    the sinks depends only on the graph and the seed — not on the schedule,
    the cache configuration, or any mid-run repartitioning.

    Two runs of the same graph and seed must therefore sink identical
    values, whatever happened to them along the way; {!mismatches} counts
    the violations (which a correct system keeps at zero).

    The overlay lives {e outside} the machine: attach it to every machine a
    run creates (e.g. via {!Ccs_sched.Supervisor.run}'s [prepare]) and it
    survives checkpointed migration for free — channel token counts are
    preserved by {!Machine.migrate}, and the shadow values were never
    machine state to begin with. *)

type t

val create : ?seed:int -> Ccs_sdf.Graph.t -> t
(** A fresh overlay; channel delays receive seed-derived initial values.
    [seed] defaults to [0]. *)

val attach : t -> Machine.t -> unit
(** Install the overlay's token movement as the machine's fire hook
    (replacing any other). *)

val mismatches : reference:t -> t -> int
(** Positions in the common prefix of each sink's stream where the two
    overlays disagree, plus any values for sinks unknown to [reference].
    Comparing prefixes (not lengths) is deliberate: epoch-aligned runs
    overshoot a requested output count to a whole-period boundary, so two
    correct runs may differ in length but never in content. *)

val compared : reference:t -> t -> int
(** Number of sink values {!mismatches} actually compared (the summed
    common-prefix lengths) — guards against vacuous zero-mismatch
    verdicts. *)
