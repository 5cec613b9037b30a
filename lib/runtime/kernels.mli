(** The signal-processing kernels of the FM receiver example
    ([examples/fm_receiver_demo.ml]).

    Each constructor documents the rate signature it expects; wiring a
    kernel onto a module with different rates is caught at fire time by
    array lengths, and the state size must match the graph's declaration
    (checked by {!Program.create}).  For a kernel on any module of any
    graph, use [Ccs_codegen.Codegen.codegen_semantics]. *)

(** {1 Sources and sinks} *)

val fm_source : state_words:int -> carrier:float -> tone:float -> Kernel.t
(** An FM-modulated carrier: phase advances by
    [carrier + 0.5·tone_amplitude·sin(2π·tone·n)] per sample — demodulating
    it should recover the [tone]-frequency baseband. *)

val collecting_sink : state_words:int -> Kernel.t * (unit -> float list)
(** Keeps every consumed token; the returned getter lists them in arrival
    order. *)

(** {1 Filters} *)

val fir : taps:float array -> Kernel.t
(** Single-in single-out FIR filter with the given coefficients; works for
    any pop/push rates (consumes pop samples, emits push filtered samples —
    for decimating modules with pop > push the extra samples still shift
    through the delay line).  Its state is [2·taps] words (coefficients +
    delay line), as the FIR modules of {!Ccs_apps.Fir} declare. *)

val fm_demodulate : state_words:int -> Kernel.t
(** Rectified slope detector: output is [|x(n) - x(n-1)|], whose low-passed
    value is proportional to the instantaneous frequency of a narrowband FM
    input — enough to recover the baseband tone in the receiver demo. *)
