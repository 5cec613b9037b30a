(** Shared helpers for building signal-processing application graphs. *)

val add_fir :
  Ccs_sdf.Graph.Builder.t ->
  name:string ->
  taps:int ->
  Ccs_sdf.Graph.node
(** A unit-rate FIR module. *)

val unit_edge :
  Ccs_sdf.Graph.Builder.t ->
  Ccs_sdf.Graph.node ->
  Ccs_sdf.Graph.node ->
  unit
(** Convenience 1/1 channel. *)

val edge :
  Ccs_sdf.Graph.Builder.t ->
  src:Ccs_sdf.Graph.node ->
  dst:Ccs_sdf.Graph.node ->
  push:int ->
  pop:int ->
  unit
