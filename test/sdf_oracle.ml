(* The paper's definitions, written the plain way, as the oracles tests
   check the library against: the precedence relation, c-boundedness,
   channel gains, the single-channel buffer bound, and schedule
   equivalence.  The library computes with faster or integer forms of
   these and does not need them itself. *)

module Graph = Ccs.Graph
module Rates = Ccs.Rates
module Q = Ccs.Rational
module Spec = Ccs.Spec

(* The paper's [u ≺ v]: a directed path from [u] to [v] (reflexive). *)
let precedes g u v =
  let visited = Array.make (Graph.num_nodes g) false in
  let rec dfs x =
    x = v
    || (not visited.(x))
       && begin
            visited.(x) <- true;
            List.exists (fun e -> dfs (Graph.dst g e)) (Graph.out_edges g x)
          end
  in
  dfs u

(* Every component's state is at most [bound] (the paper's [c * m]). *)
let is_c_bounded spec ~bound =
  List.for_all
    (fun c -> Spec.component_state spec c <= bound)
    (List.init (Spec.num_components spec) Fun.id)

let is_rate_matched g = Result.is_ok (Rates.analyze g)

(* [gain(e) = gain(src e) * push e = period_tokens e / period_inputs]. *)
let edge_gain (a : Rates.analysis) e =
  Q.make a.Rates.period_tokens.(e) a.Rates.period_inputs

(* Every module in its own component. *)
let singletons g = Spec.of_assignment g (Array.init (Graph.num_nodes g) Fun.id)

(* [push e + pop e - gcd (push e) (pop e) + delay e]: the classical upper
   bound on the minimum buffer of one channel considered in isolation. *)
let closed_form_bound g e =
  let pu = Graph.push g e and po = Graph.pop g e in
  pu + po - Q.gcd pu po + Graph.delay g e

(* A schedule's flattened firing sequence (small schedules only). *)
let firings s =
  let acc = ref [] in
  Ccs.Schedule.iter s ~f:(fun v -> acc := v :: !acc);
  List.rev !acc

(* Two schedules denote the same firing sequence. *)
let equivalent a b = firings a = firings b
