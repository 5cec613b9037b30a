module Graph = Ccs_sdf.Graph
module Rates = Ccs_sdf.Rates
module Q = Ccs_sdf.Rational
module Spec = Ccs_partition.Spec

type t = {
  processor_of_component : int array;
  processors : int;
  load : float array;
}

let firing_words g v =
  let tokens =
    List.fold_left (fun acc e -> acc + Graph.pop g e) 0 (Graph.in_edges g v)
    + List.fold_left (fun acc e -> acc + Graph.push g e) 0 (Graph.out_edges g v)
  in
  Graph.state g v + tokens

let component_load g a spec c =
  List.fold_left
    (fun acc v ->
      acc
      +. (Q.to_float (Rates.gain a v) *. float_of_int (firing_words g v)))
    0. (Spec.members spec c)

let lpt g a spec ~processors =
  if processors < 1 then invalid_arg "Assign.lpt: processors must be >= 1";
  let k = Spec.num_components spec in
  let loads =
    Array.init k (fun c -> (c, component_load g a spec c))
  in
  Array.sort (fun (_, l1) (_, l2) -> Float.compare l2 l1) loads;
  let processor_of_component = Array.make k 0 in
  let load = Array.make processors 0. in
  Array.iter
    (fun (c, w) ->
      (* Least-loaded processor gets the next-heaviest component. *)
      let best = ref 0 in
      for p = 1 to processors - 1 do
        if load.(p) < load.(!best) then best := p
      done;
      processor_of_component.(c) <- !best;
      load.(!best) <- load.(!best) +. w)
    loads;
  { processor_of_component; processors; load }

let imbalance t =
  let total = Array.fold_left ( +. ) 0. t.load in
  let avg = total /. float_of_int t.processors in
  let mx = Array.fold_left Float.max 0. t.load in
  if avg = 0. then 1. else mx /. avg
