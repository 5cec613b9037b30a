module Q = Rational

type analysis = {
  node_gain : Q.t array;
  period_tokens : int array;
  repetition : int array;
  period_inputs : int;
}

(* Propagate gains by BFS over the underlying undirected graph: crossing a
   channel (u,v) forward multiplies the gain by push/pop; crossing it
   backward divides.  Any disagreement on an already-labelled node means the
   graph is not rate-matched. *)
let reachable_undirected g =
  let n = Graph.num_nodes g in
  if n = 0 then 0
  else begin
    let seen = Array.make n false in
    let stack = Stack.create () in
    Stack.push 0 stack;
    seen.(0) <- true;
    let count = ref 1 in
    while not (Stack.is_empty stack) do
      let v = Stack.pop stack in
      let visit w =
        if not seen.(w) then begin
          seen.(w) <- true;
          incr count;
          Stack.push w stack
        end
      in
      List.iter (fun e -> visit (Graph.dst g e)) (Graph.out_edges g v);
      List.iter (fun e -> visit (Graph.src g e)) (Graph.in_edges g v)
    done;
    !count
  end

let overflow reason = Error.Failure_msg { context = "rate analysis"; reason }

(* The repetition vector (gains scaled to the smallest integral vector)
   and each channel's tokens per period, [repetition (src e) * push e].
   Every bandwidth the partitioners sum is a sum over a subset of the
   channels, so the total over all of them must stay below [max_int]. *)
let integral g node_gain ~start =
  let denom_lcm =
    Array.fold_left (fun acc q -> Q.lcm acc (Q.den q)) 1 node_gain
  in
  let scaled =
    Array.map (fun q -> Q.to_int_exn (Q.mul_int q denom_lcm)) node_gain
  in
  let num_gcd = Array.fold_left Q.gcd 0 scaled in
  let repetition = Array.map (fun x -> x / num_gcd) scaled in
  let total = ref 0 in
  let period_tokens =
    Array.init (Graph.num_edges g) (fun e ->
        let rep = repetition.(Graph.src g e) and push = Graph.push g e in
        match Q.mul_exact rep push with
        | tokens when tokens < max_int - !total ->
            total := !total + tokens;
            tokens
        | _ | (exception Q.Overflow) ->
            Error.fail
              (overflow
                 (Printf.sprintf
                    "channel %s carries %d x %d tokens per period, which \
                     takes the channels' total past the native int range"
                    (Graph.edge_name g e) rep push)))
  in
  { node_gain; period_tokens; repetition; period_inputs = repetition.(start) }

let analyze_rates g =
  let n = Graph.num_nodes g in
  if not (Graph.is_connected g) then
    Result.error
      (Error.Disconnected { reachable = reachable_undirected g; total = n })
  else begin
    let gain = Array.make n None in
    let start =
      match Graph.sources g with v :: _ -> v | [] -> assert false
    in
    gain.(start) <- Some Q.one;
    let queue = Queue.create () in
    Queue.add start queue;
    let consistent = ref None in
    let set v q =
      match gain.(v) with
      | None ->
          gain.(v) <- Some q;
          Queue.add v queue
      | Some q' ->
          if not (Q.equal q q') then
            consistent :=
              Some
                (Error.Rate_inconsistent
                   {
                     node = Graph.node_name g v;
                     gain_a = Q.to_string q';
                     gain_b = Q.to_string q;
                   })
    in
    while not (Queue.is_empty queue) && !consistent = None do
      let v = Queue.pop queue in
      let gv = Option.get gain.(v) in
      List.iter
        (fun e ->
          let w = Graph.dst g e in
          let r = Q.make (Graph.push g e) (Graph.pop g e) in
          set w (Q.mul gv r))
        (Graph.out_edges g v);
      List.iter
        (fun e ->
          let u = Graph.src g e in
          let r = Q.make (Graph.pop g e) (Graph.push g e) in
          set u (Q.mul gv r))
        (Graph.in_edges g v)
    done;
    match !consistent with
    | Some err -> Result.error err
    | None -> Ok (integral g (Array.map Option.get gain) ~start)
  end

let analyze_checked g =
  match analyze_rates g with
  | result -> result
  | exception Error.Error e -> Result.error e
  | exception Q.Overflow ->
      Result.error
        (overflow "a gain or the repetition vector passes the native int range")

let analyze g = Result.map_error Error.to_string (analyze_checked g)

let analyze_exn g =
  match analyze g with
  | Ok a -> a
  | Error msg -> raise (Graph.Invalid_graph msg)

let gain a v = a.node_gain.(v)
let edge_gain a e = Q.make a.period_tokens.(e) a.period_inputs

let granularity _g a ~at_least =
  (* T must be a multiple of lcm over nodes of den(gain v); then every
     T * gain v is integral, which implies every T * edge_gain e is integral
     and divisible by push (= T*gain(src) firings of src) and pop. *)
  let l =
    Array.fold_left (fun acc q -> Q.lcm acc (Q.den q)) 1 a.node_gain
  in
  let k = Stdlib.max 1 ((Stdlib.max 1 at_least + l - 1) / l) in
  k * l

let firings_per_batch a ~t v =
  let q = Q.mul_int a.node_gain.(v) t in
  if not (Q.is_integer q) then
    invalid_arg "Rates.firings_per_batch: t is not a granularity multiple"
  else Q.to_int_exn q

let tokens_per_batch a ~t e =
  let q = Q.mul_int (edge_gain a e) t in
  if not (Q.is_integer q) then
    invalid_arg "Rates.tokens_per_batch: t is not a granularity multiple"
  else Q.to_int_exn q

let local_repetition a members =
  let denom =
    List.fold_left (fun acc v -> Q.lcm acc (Q.den a.node_gain.(v))) 1 members
  in
  let ints =
    List.map (fun v -> (v, Q.to_int_exn (Q.mul_int a.node_gain.(v) denom)))
      members
  in
  let g = List.fold_left (fun acc (_, x) -> Q.gcd acc x) 0 ints in
  List.map (fun (v, x) -> (v, x / g)) ints
