(** Cache-conscious scheduling of streaming applications.

    OCaml implementation of Agrawal, Fineman, Krage, Leiserson and Toledo,
    {e Cache-Conscious Scheduling of Streaming Applications}, SPAA 2012:
    scheduling synchronous-dataflow graphs on a two-level memory hierarchy
    by reducing scheduling to constrained graph partitioning.

    Quickstart:
    {[
      let g = Ccs.Generators.uniform_pipeline ~n:64 ~state:128 () in
      let cfg = Ccs.Config.make ~cache_words:1024 ~block_words:16 () in
      let choice = Ccs.Auto.plan g cfg in
      match
        Ccs.Runner.run ~graph:g ~cache:(Ccs.Config.cache_config cfg)
          ~plan:choice.Ccs.Auto.plan ~outputs:10_000 ()
      with
      | Ok (result, _) -> Format.printf "%a@." Ccs.Runner.pp_result result
      | Error e -> prerr_endline (Ccs.Error.to_string e)
    ]}

    The submodules re-export the full stack: the SDF substrate
    ({!Graph}, {!Rates}, {!Minbuf}, {!Generators}, {!Serial}), the DAM
    cache simulator ({!Cache}, {!Layout}), the execution engine
    ({!Machine}), partitioning ({!Spec}, {!Pipeline_partition},
    {!Dag_partition}), scheduling ({!Schedule}, {!Plan}, {!Baseline},
    {!Scaling}, {!Kohli}, {!Partitioned}, {!Analysis}, {!Runner}) and the
    high-level API ({!Config}, {!Auto}, {!Compare}). *)

(* Structured errors and validation *)
module Error = Ccs_sdf.Error
module Validate = Ccs_sdf.Validate
module Binio = Ccs_sdf.Binio
module Check = Check

(* SDF substrate *)
module Rational = Ccs_sdf.Rational
module Graph = Ccs_sdf.Graph
module Rates = Ccs_sdf.Rates
module Minbuf = Ccs_sdf.Minbuf
module Generators = Ccs_sdf.Generators
module Serial = Ccs_sdf.Serial
module Transform = Ccs_sdf.Transform

(* Cache simulator *)
module Lru = Ccs_cache.Lru
module Cache = Ccs_cache.Cache
module Layout = Ccs_cache.Layout
module Trace_analysis = Ccs_cache.Trace_analysis

(* Execution *)
module Machine = Ccs_exec.Machine
module Fault = Ccs_exec.Fault
module Checkpoint = Ccs_exec.Checkpoint
module Overlay = Ccs_exec.Overlay
module Replay = Ccs_exec.Replay
module Clock = Ccs_exec.Clock
module Plan_key = Ccs_exec.Plan_key

(* Observability: per-entity miss attribution, event tracing, metrics
   registry, structured logging, and the bench regression differ *)
module Counters = Ccs_obs.Counters
module Tracer = Ccs_obs.Tracer
module Trace_export = Ccs_obs.Trace_export
module Json = Ccs_obs.Json
module Metrics = Ccs_obs.Metrics
module Log = Ccs_obs.Log
module Span = Ccs_obs.Span
module Flight = Ccs_obs.Flight
module Bench_diff = Bench_diff

(* Partitioning *)
module Spec = Ccs_partition.Spec
module Pipeline_partition = Ccs_partition.Pipeline
module Dag_partition = Ccs_partition.Dag
module Cluster = Ccs_partition.Cluster

(* Scheduling *)
module Schedule = Ccs_sched.Schedule
module Plan = Ccs_sched.Plan
module Simulate = Ccs_sched.Simulate
module Baseline = Ccs_sched.Baseline
module Scaling = Ccs_sched.Scaling
module Kohli = Ccs_sched.Kohli
module Partitioned = Ccs_sched.Partitioned
module Analysis = Ccs_sched.Analysis
module Runner = Ccs_sched.Runner
module Supervisor = Ccs_sched.Supervisor
module Adapt = Ccs_sched.Adapt
module Profile = Ccs_sched.Profile

(* High-level API *)
module Config = Config
module Auto = Auto
module Compare = Compare
module Table = Table

(* Data-carrying runtime *)
module Kernel = Ccs_runtime.Kernel
module Program = Ccs_runtime.Program
module Engine = Ccs_runtime.Engine
module Kernels = Ccs_runtime.Kernels

(* Multiprocessor extension *)
module Assign = Ccs_multi.Assign
module Multi_machine = Ccs_multi.Multi_machine

(* Compiler backend *)
module Lowering = Ccs_codegen.Lowering
module Compiled = Ccs_codegen.Compiled
module Codegen = Ccs_codegen.Codegen
