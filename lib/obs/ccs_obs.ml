(** Observability primitives for the simulated machines: per-entity miss
    attribution ({!Counters}), schedule-event tracing with logical
    timestamps ({!Tracer}), Chrome [trace_event] / summary writers
    ({!Trace_export}), a metrics registry with Prometheus/JSON exposition
    ({!Metrics}), levelled structured logging ({!Log}), request-scoped
    stage spans ({!Span}) with a crash-surviving flight recorder
    ({!Flight}) and the JSON substrate they share ({!Json}).  Nearly
    dependency-free — only the
    atomic-write substrate ({!Ccs_sdf.Binio}) is shared — and the
    execution layers ([Ccs_exec.Machine], and through it
    [Ccs_multi.Multi_machine]; [Ccs_runtime.Engine]) accept these as
    optional attachments and pay nothing when they are absent. *)

module Counters = Counters
module Tracer = Tracer
module Trace_export = Trace_export
module Json = Json
module Metrics = Metrics
module Log = Log
module Span = Span
module Flight = Flight
