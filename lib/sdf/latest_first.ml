(* [heap.(0 .. size-1)] is a max-heap of modules keyed by topological rank.
   Ranks are distinct, so its top is the unique highest-rank entry.
   [queued.(v)] marks the modules in the heap and [tracked.(e)] the
   channels of the current run; all are back to empty whenever [run]
   returns, so one driver serves any number of runs.  [tokens] and [peak]
   keep the last run's values for the channels it tracked. *)
type t = {
  neighbours : Graph.node array array;
  inputs : Graph.edge array array;
  outputs : Graph.edge array array;
  push : int array;
  pop : int array;
  delay : int array;
  rank : int array;
  heap : Graph.node array;
  queued : bool array;
  mutable size : int;
  tracked : bool array;
  tokens : int array;
  peak : int array;
}

let create g =
  let n = Graph.num_nodes g and m = Graph.num_edges g in
  {
    neighbours =
      Array.init n (fun v ->
          Array.of_list
            (List.map (Graph.dst g) (Graph.out_edges g v)
            @ List.map (Graph.src g) (Graph.in_edges g v)));
    inputs = Array.init n (fun v -> Array.of_list (Graph.in_edges g v));
    outputs = Array.init n (fun v -> Array.of_list (Graph.out_edges g v));
    push = Array.init m (Graph.push g);
    pop = Array.init m (Graph.pop g);
    delay = Array.init m (Graph.delay g);
    rank = Graph.topo_rank g;
    heap = Array.make n 0;
    queued = Array.make n false;
    size = 0;
    tracked = Array.make m false;
    tokens = Array.make m 0;
    peak = Array.make m 0;
  }

let tokens t e = t.tokens.(e)
let peak t e = t.peak.(e)

let above t i j = t.rank.(t.heap.(i)) > t.rank.(t.heap.(j))

let swap t i j =
  let x = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- x

let rec up t i =
  let p = (i - 1) / 2 in
  if i > 0 && above t i p then begin
    swap t i p;
    up t p
  end

let rec down t i =
  let l = (2 * i) + 1 in
  let r = l + 1 in
  let top = if l < t.size && above t l i then l else i in
  let top = if r < t.size && above t r top then r else top in
  if top <> i then begin
    swap t i top;
    down t top
  end

let pop t =
  let v = t.heap.(0) in
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  down t 0;
  t.queued.(v) <- false;
  v

(* Every tracked input of [ins.(i ..)] holds a pop. *)
let rec inputs_ready t ins i =
  i = Array.length ins
  || (let e = ins.(i) in
      ((not t.tracked.(e)) || t.tokens.(e) >= t.pop.(e))
      && inputs_ready t ins (i + 1))

(* Every tracked output of [outs.(i ..)] has room for a push. *)
let rec outputs_free t caps outs i =
  i = Array.length outs
  || (let e = outs.(i) in
      ((not t.tracked.(e)) || caps.(e) - t.tokens.(e) >= t.push.(e))
      && outputs_free t caps outs (i + 1))

let fire t v =
  let ins = t.inputs.(v) in
  for i = 0 to Array.length ins - 1 do
    let e = ins.(i) in
    if t.tracked.(e) then t.tokens.(e) <- t.tokens.(e) - t.pop.(e)
  done;
  let outs = t.outputs.(v) in
  for i = 0 to Array.length outs - 1 do
    let e = outs.(i) in
    if t.tracked.(e) then begin
      let x = t.tokens.(e) + t.push.(e) in
      t.tokens.(e) <- x;
      if x > t.peak.(e) then t.peak.(e) <- x
    end
  done

let run ?capacities t ~remaining ~candidates ~channels ~record =
  List.iter
    (fun e ->
      t.tracked.(e) <- true;
      t.tokens.(e) <- t.delay.(e);
      t.peak.(e) <- t.delay.(e))
    channels;
  let enabled v =
    remaining.(v) > 0
    && inputs_ready t t.inputs.(v) 0
    &&
    match capacities with
    | None -> true
    | Some caps -> outputs_free t caps t.outputs.(v) 0
  in
  let examine v =
    if (not t.queued.(v)) && enabled v then begin
      t.queued.(v) <- true;
      t.heap.(t.size) <- v;
      t.size <- t.size + 1;
      up t (t.size - 1)
    end
  in
  List.iter examine candidates;
  let fired = ref 0 and order = ref [] in
  while t.size > 0 do
    let v = pop t in
    (* Entries are checked again when they reach the top, so a module
       that another firing disabled is dropped here, not fired. *)
    if enabled v then begin
      fire t v;
      if record then order := v :: !order;
      remaining.(v) <- remaining.(v) - 1;
      incr fired;
      examine v;
      Array.iter examine t.neighbours.(v)
    end
  done;
  List.iter (fun e -> t.tracked.(e) <- false) channels;
  (!fired, List.rev !order)
