type t = { capacity : int array; schedule : Graph.node list }

(* One period of a latest-first demand-driven schedule.  A module is enabled
   when every input channel holds at least [pop] tokens and it still has
   firings remaining in the period.  Among enabled modules we fire the one
   with the greatest topological rank, so tokens are consumed as soon as
   they are produced and occupancies stay near the per-edge minimum. *)
let compute g (a : Rates.analysis) =
  let remaining = Array.copy a.repetition in
  let tokens = Array.init (Graph.num_edges g) (fun e -> Graph.delay g e) in
  let peak = Array.copy tokens in
  let total_fires = Array.fold_left ( + ) 0 remaining in
  let schedule = ref [] in
  let ready v =
    List.for_all (fun e -> tokens.(e) >= Graph.pop g e) (Graph.in_edges g v)
  in
  let fire v =
    List.iter
      (fun e -> tokens.(e) <- tokens.(e) - Graph.pop g e)
      (Graph.in_edges g v);
    List.iter
      (fun e ->
        tokens.(e) <- tokens.(e) + Graph.push g e;
        if tokens.(e) > peak.(e) then peak.(e) <- tokens.(e))
      (Graph.out_edges g v);
    schedule := v :: !schedule
  in
  let fired =
    Latest_first.run (Latest_first.create g) ~remaining
      ~candidates:(Graph.nodes g) ~ready ~fire
  in
  if fired < total_fires then
    raise (Graph.Invalid_graph "Minbuf.compute: schedule deadlocked");
  (* After one period every channel must return to its initial occupancy. *)
  Array.iteri
    (fun e occ ->
      if occ <> Graph.delay g e then
        raise
          (Graph.Invalid_graph
             (Printf.sprintf
                "Minbuf.compute: channel %d not balanced after one period" e)))
    tokens;
  (* A channel that never held a token still needs capacity for transit. *)
  let capacity =
    Array.mapi (fun e p -> Stdlib.max p (Graph.push g e)) peak
  in
  { capacity; schedule = List.rev !schedule }

(* The same latest-first run with bounded channels: a module is also
   blocked while an output lacks room for its push. *)
let feasible g (a : Rates.analysis) ~capacities =
  let remaining = Array.copy a.repetition in
  let tokens = Array.init (Graph.num_edges g) (fun e -> Graph.delay g e) in
  let total_fires = Array.fold_left ( + ) 0 remaining in
  let ready v =
    List.for_all (fun e -> tokens.(e) >= Graph.pop g e) (Graph.in_edges g v)
    && List.for_all
         (fun e -> capacities.(e) - tokens.(e) >= Graph.push g e)
         (Graph.out_edges g v)
  in
  let fire v =
    List.iter
      (fun e -> tokens.(e) <- tokens.(e) - Graph.pop g e)
      (Graph.in_edges g v);
    List.iter
      (fun e -> tokens.(e) <- tokens.(e) + Graph.push g e)
      (Graph.out_edges g v)
  in
  Latest_first.run (Latest_first.create g) ~remaining
    ~candidates:(Graph.nodes g) ~ready ~fire
  = total_fires

let tighten g a ?capacities () =
  let caps =
    match capacities with
    | Some c -> Array.copy c
    | None -> (compute g a).capacity
  in
  Array.iteri
    (fun e cap ->
      let floor_cap = max (Graph.push g e) (Graph.pop g e) in
      (* Binary search the smallest feasible capacity for edge e, all
         other edges held at their current values. *)
      let lo = ref floor_cap and hi = ref cap in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        caps.(e) <- mid;
        if feasible g a ~capacities:caps then hi := mid else lo := mid + 1
      done;
      caps.(e) <- !lo)
    (Array.copy caps);
  caps

let closed_form_bound g e =
  let pu = Graph.push g e and po = Graph.pop g e in
  pu + po - Rational.gcd pu po + Graph.delay g e

let total g t ~subset =
  List.fold_left
    (fun acc e ->
      if subset (Graph.src g e) && subset (Graph.dst g e) then
        acc + t.capacity.(e)
      else acc)
    0 (Graph.edges g)
