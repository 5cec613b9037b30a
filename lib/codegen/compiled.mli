(** The in-process compiled execution backend.

    A {!Lowering.t} compiled to closures over one flat [Bigarray]: every
    module's state and every channel's ring buffer live at the exact word
    offsets the interpreted {!Ccs_exec.Machine} would use, each module's
    fire body is specialized with its pop/push/offset constants baked in,
    and the compressed period becomes nested counted loops.  No firing-rule
    checks run at execution time — the lowering only accepts plans whose
    period {!Ccs_sched.Plan.validate} certified token-legal, so the
    program is branch-free by proof rather than by optimism.

    Equivalence contract (checked by the differential suite, with per-app
    goldens): for any lowered plan, sink checksums and output counts are
    bit-identical to {!Ccs_runtime.Engine} running
    {!Codegen.codegen_semantics} kernels, and with [record_trace] the
    word-access trace replayed through {!Ccs_exec.Replay} yields the same
    miss count as the interpreted machine's own cache. *)

type t

val create : ?record_trace:bool -> Lowering.t -> t
(** Compile the lowering.  With [record_trace] every fired span records
    the same block-granular addresses {!Ccs_exec.Machine} traces (state
    span, then input rings, then output rings, in firing order); leave it
    off for timing runs. *)

val run_periods : t -> int -> unit
(** Execute the compressed period [n] times. *)

val run : t -> target_outputs:int -> unit
(** Run whole periods until at least [target_outputs] sink firings have
    accumulated (resumable, like a {!Ccs_sched.Plan.driver}).
    @raise Invalid_argument if the period fires no sink while outputs are
    still owed. *)

val outputs : t -> int
(** Sink firings so far (summed over all sinks). *)

val checksum : t -> float
(** Sum of the per-sink checksum cells, in {!Ccs_sdf.Graph.sinks} order. *)

val trace : t -> int array
(** The recorded word-address trace.
    @raise Invalid_argument unless built with [record_trace]. *)
