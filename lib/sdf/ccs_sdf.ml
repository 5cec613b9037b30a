(** Streaming-graph substrate: SDF graphs, rate analysis, buffer sizing,
    workload generators, and serialization. *)

module Error = Error
module Binio = Binio
module Rational = Rational
module Graph = Graph
module Validate = Validate
module Rates = Rates
module Latest_first = Latest_first
module Minbuf = Minbuf
module Generators = Generators
module Serial = Serial
module Transform = Transform
