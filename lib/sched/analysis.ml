module Graph = Ccs_sdf.Graph
module Rates = Ccs_sdf.Rates
module Spec = Ccs_partition.Spec
module Pipeline = Ccs_partition.Pipeline
module Dag = Ccs_partition.Dag

(* Period tokens per source firing.  Below 2^53 both integers are exact
   floats, so this is the correctly rounded quotient, the same float as
   [Rational.to_float] of the reduced fraction. *)
let per_input (a : Rates.analysis) tokens =
  float_of_int tokens /. float_of_int a.period_inputs

let pipeline_lower_bound g a ~m ~b =
  let chain = Pipeline.chain_order g in
  let n = Array.length chain in
  (* Carve maximal disjoint segments of state >= 2m, greedily from the
     head; each contributes the tokens of its gain-minimizing edge. *)
  let total = ref 0 in
  let lo = ref 0 in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + Graph.state g chain.(i);
    if !acc >= 2 * m then begin
      if !lo < i then begin
        let e = Pipeline.gain_minimizing_edge g a chain ~lo:!lo ~hi:i in
        total := !total + a.Rates.period_tokens.(e)
      end;
      lo := i + 1;
      acc := 0
    end
  done;
  per_input a !total /. float_of_int b

let dag_lower_bound g a ~m ~b ?max_nodes () =
  if Graph.total_state g <= 3 * m then Some 0.
  else
    Option.map
      (fun sp -> per_input a (Spec.period_bandwidth sp a) /. float_of_int b)
      (Dag.exact g a ~bound:(3 * m) ?max_nodes ())

let bandwidth_per_input spec a = per_input a (Spec.period_bandwidth spec a)

let partition_cost_prediction spec a ~b ~t =
  let state_loads = ref 0. in
  for c = 0 to Spec.num_components spec - 1 do
    state_loads :=
      !state_loads +. (float_of_int (Spec.component_state spec c) /. float_of_int t)
  done;
  (* Each cross-edge token is written once by the producing component and
     read once by the consuming one: two block-streamed touches. *)
  ((2. *. bandwidth_per_input spec a) +. !state_loads) /. float_of_int b
