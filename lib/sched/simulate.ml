module Graph = Ccs_sdf.Graph
module Error = Ccs_sdf.Error

(* The one token walker: fires [sched] on counters from the channel
   delays, keeping each channel's peak, and stops at the first firing that
   underflows an input or pushes an output past [bound]. *)
let walk g ~bound sched =
  let n = Graph.num_nodes g in
  let ins = Array.init n (fun v -> Array.of_list (Graph.in_edges g v)) in
  let outs = Array.init n (fun v -> Array.of_list (Graph.out_edges g v)) in
  let pop = Array.init (Graph.num_edges g) (Graph.pop g) in
  let push = Array.init (Graph.num_edges g) (Graph.push g) in
  let tokens = Array.init (Graph.num_edges g) (Graph.delay g) in
  let peak = Array.copy tokens in
  let fired = ref 0 in
  let exception Bad of Error.t in
  let bad v e kind =
    raise_notrace
      (Bad
         (Error.Schedule_illegal
            {
              node = Graph.node_name g v;
              edge = Graph.edge_name g e;
              at_firing = !fired;
              kind;
            }))
  in
  let fire v =
    Array.iter
      (fun e ->
        let t = tokens.(e) - pop.(e) in
        tokens.(e) <- t;
        if t < 0 then bad v e `Underflow)
      ins.(v);
    Array.iter
      (fun e ->
        let t = tokens.(e) + push.(e) in
        tokens.(e) <- t;
        if t > bound.(e) then bad v e `Overflow;
        if t > peak.(e) then peak.(e) <- t)
      outs.(v);
    incr fired
  in
  match Schedule.iter sched ~f:fire with
  | () -> Ok peak
  | exception Bad err -> Error err

let peaks g sched =
  match walk g ~bound:(Array.make (Graph.num_edges g) max_int) sched with
  | Ok peak -> peak
  | Error err -> Error.fail err

let validate g ~capacities sched =
  Result.map ignore (walk g ~bound:capacities sched)
