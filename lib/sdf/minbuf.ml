type t = { capacity : int array; schedule : Graph.node list }

(* One period of a latest-first demand-driven schedule over every channel:
   among the modules with firings left whose inputs hold a pop (and, under
   [capacities], whose outputs have room for a push) fire the one of
   greatest topological rank, so tokens are consumed as soon as they are
   produced and occupancies stay near the per-edge minimum.  Returns the
   driver, whether the whole period fired, and the firing order when
   [record]. *)
let period ?capacities g (a : Rates.analysis) ~record =
  let walker = Latest_first.create g in
  let fired, order =
    Latest_first.run ?capacities walker
      ~remaining:(Array.copy a.repetition) ~candidates:(Graph.nodes g)
      ~channels:(Graph.edges g) ~record
  in
  (walker, fired = Array.fold_left ( + ) 0 a.repetition, order)

let compute g a =
  let walker, complete, schedule = period g a ~record:true in
  if not complete then
    raise (Graph.Invalid_graph "Minbuf.compute: schedule deadlocked");
  (* After one period every channel must return to its initial occupancy. *)
  for e = 0 to Graph.num_edges g - 1 do
    if Latest_first.tokens walker e <> Graph.delay g e then
      raise
        (Graph.Invalid_graph
           (Printf.sprintf
              "Minbuf.compute: channel %d not balanced after one period" e))
  done;
  (* A channel that never held a token still needs capacity for transit. *)
  let capacity =
    Array.init (Graph.num_edges g) (fun e ->
        Stdlib.max (Latest_first.peak walker e) (Graph.push g e))
  in
  { capacity; schedule }

let feasible g a ~capacities =
  let _, complete, _ = period ~capacities g a ~record:false in
  complete

let total g t ~subset =
  List.fold_left
    (fun acc e ->
      if subset (Graph.src g e) && subset (Graph.dst g e) then
        acc + t.capacity.(e)
      else acc)
    0 (Graph.edges g)
