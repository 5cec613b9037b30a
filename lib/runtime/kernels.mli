(** A library of ready-made kernels for the usual streaming-module roles.

    Each constructor documents the rate signature it expects; wiring a
    kernel onto a module with different rates is caught at fire time by
    array lengths, and the state size must match the graph's declaration
    (checked by {!Program.create}). *)

(** {1 Sources and sinks} *)

val fm_source : state_words:int -> carrier:float -> tone:float -> Kernel.t
(** An FM-modulated carrier: phase advances by
    [carrier + 0.5·tone_amplitude·sin(2π·tone·n)] per sample — demodulating
    it should recover the [tone]-frequency baseband. *)

val collecting_sink : state_words:int -> Kernel.t * (unit -> float list)
(** Keeps every consumed token; the returned getter lists them in arrival
    order. *)

(** {1 Rate-preserving transforms} *)

val identity : state_words:int -> Kernel.t
(** Copies the single input channel to the single output channel
    (any matching rate). *)

val gain : state_words:int -> float -> Kernel.t
(** Scales every token. *)

val fir : taps:float array -> Kernel.t
(** Single-in single-out FIR filter with the given coefficients; works for
    any pop/push rates (consumes pop samples, emits push filtered samples —
    for decimating modules with pop > push the extra samples still shift
    through the delay line).  Its state is [2·taps] words (coefficients +
    delay line), matching {!Ccs_apps.Fir.fir_state}. *)

val fm_demodulate : state_words:int -> Kernel.t
(** Rectified slope detector: output is [|x(n) - x(n-1)|], whose low-passed
    value is proportional to the instantaneous frequency of a narrowband FM
    input — enough to recover the baseband tone in the receiver demo. *)

val sbox : table_words:int -> Kernel.t
(** Table substitution: output = table[(int input) mod table size]; the
    table is the state (initialized to a fixed pseudo-random permutation),
    so firing it genuinely reads the big state. *)

(** {1 Fan-in / fan-out} *)

val duplicate : state_words:int -> Kernel.t
(** Copies its single input token stream to every output channel. *)

(** {1 Any graph} *)

val autobind : Ccs_sdf.Graph.t -> Ccs_sdf.Graph.node -> Kernel.t
(** Heuristic kernel choice from the module's shape: sources become
    counters producing 0, 1, 2, ... (useful for data-integrity tests),
    sinks discard their inputs, unit-rate single-in/single-out modules
    become FIRs sized to their state, and everything else gets a generic
    kernel that works for any rate signature (output slot [k] is a cheap
    mix of consumed slot [k mod consumed], or a counter when nothing is
    consumed).  Guarantees a kernel whose [state_words] matches the
    graph's declaration, so [Program.create g (Kernels.autobind g)] always
    succeeds. *)
