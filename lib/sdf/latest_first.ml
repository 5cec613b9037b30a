(* [heap.(0 .. size-1)] is a max-heap of modules keyed by topological rank.
   Ranks are distinct, so its top is the unique highest-rank entry.
   [queued.(v)] marks the modules in the heap; both are back to empty
   whenever [run] returns, so one driver serves any number of runs. *)
type t = {
  neighbours : Graph.node list array;
  rank : int array;
  heap : Graph.node array;
  queued : bool array;
  mutable size : int;
}

let create g =
  let n = Graph.num_nodes g in
  {
    neighbours =
      Array.init n (fun v ->
          List.map (Graph.dst g) (Graph.out_edges g v)
          @ List.map (Graph.src g) (Graph.in_edges g v));
    rank = Graph.topo_rank g;
    heap = Array.make n 0;
    queued = Array.make n false;
    size = 0;
  }

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

let run t ~remaining ~candidates ~ready ~fire =
  let enabled v = remaining.(v) > 0 && ready v in
  let examine v =
    if (not t.queued.(v)) && enabled v then begin
      t.queued.(v) <- true;
      t.heap.(t.size) <- v;
      t.size <- t.size + 1;
      up t (t.size - 1)
    end
  in
  List.iter examine candidates;
  let fired = ref 0 in
  while t.size > 0 do
    let v = pop t in
    (* Entries are checked again when they reach the top, so a module
       that another firing disabled is dropped here, not fired. *)
    if enabled v then begin
      fire v;
      remaining.(v) <- remaining.(v) - 1;
      incr fired;
      examine v;
      List.iter examine t.neighbours.(v)
    end
  done;
  !fired
