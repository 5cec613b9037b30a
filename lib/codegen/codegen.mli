(** Code generation: compile a scheduled streaming program to standalone
    OCaml source.

    This is the compiler-backend step a production streaming system (e.g.
    StreamIt, whose cache optimizations the paper discusses) performs after
    scheduling: the static looped schedule becomes straight-line code with
    nested loops, channels become ring buffers carved out of one flat data
    array at the layout offsets the simulator charges for, and module
    state becomes cells in the same array.  The emitted program is
    dependency-free OCaml, runnable with [ocaml prog.ml <periods>] (or
    compilable with ocamlopt), and prints the total sink firing count and
    a checksum summed across {e all} sinks so generated code can be
    differentially tested against the in-process {!Ccs_runtime.Engine} and
    the {!Compiled} backend.

    The emitter shares its middle end with {!Compiled}: both consume
    {!Lowering.lower}, so the generated source executes the same
    specialized fire bodies the in-process backend runs.  Module bodies
    follow the {!codegen_semantics} conventions — sources emit a counter
    stream, sinks accumulate a checksum, everything else applies the fixed
    mixing function [0.5·x + 0.25] — so for any graph the generated
    program, [Compiled], and [Engine] with [codegen_semantics] compute
    identical streams.  Users wanting real kernels replace the marked
    [fire_N] function bodies. *)

val emit :
  ?cache:Ccs_cache.Cache.config ->
  Ccs_sdf.Graph.t ->
  plan:Ccs_sched.Plan.t ->
  string
(** Emit the program text.  [cache] fixes the layout's block alignment
    (default: a 1-word-block cache, i.e. packed).
    @raise Invalid_argument if the plan is dynamic (no static period).
    @raise Ccs_sdf.Error.Error with the first {!Lowering.lower} finding
    otherwise — a [Plan_invalid] for zero-capacity channels, or whatever
    {!Ccs_sched.Plan.validate} rejected. *)

val codegen_semantics :
  Ccs_sdf.Graph.t -> Ccs_sdf.Graph.node -> Ccs_runtime.Kernel.t
(** Kernels that compute exactly what the generated code computes, for
    differential testing.  Sources count upward from zero (persistently —
    a zero-state source keeps its counter in the kernel closure), sinks
    keep their checksum in [state.(0)] when it has room (spilled to the
    closure otherwise), and an interior module with an empty pop window
    emits the constant [0.25] instead of raising [Division_by_zero].
    They are also the kernel set [ccsched run --inject-seed] runs its
    fault drills on, so the drill exercises the very kernels the compiled
    backend and the emitted programs are proven bit-identical to. *)
