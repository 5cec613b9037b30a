module Graph = Ccs_sdf.Graph
module Rates = Ccs_sdf.Rates

let check_states g ~bound ~what =
  List.iter
    (fun v ->
      if Graph.state g v > bound then
        invalid_arg
          (Printf.sprintf "%s: module %s has state %d > bound %d" what
             (Graph.node_name g v) (Graph.state g v) bound))
    (Graph.nodes g)

let interval g ~order ~bound =
  check_states g ~bound ~what:"Dag.interval";
  let n = Graph.num_nodes g in
  if Array.length order <> n then
    invalid_arg "Dag.interval: order length mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then
        invalid_arg "Dag.interval: order is not a permutation";
      seen.(v) <- true)
    order;
  let a = Array.make n 0 in
  let comp = ref 0 and acc = ref 0 in
  Array.iter
    (fun v ->
      let s = Graph.state g v in
      if !acc + s > bound && !acc > 0 then begin
        incr comp;
        acc := 0
      end;
      acc := !acc + s;
      a.(v) <- !comp)
    order;
  Spec.of_assignment g a

(* Depth-first topological order: Kahn's algorithm with a LIFO worklist, so
   a module's successors are emitted right after it whenever possible.
   Keeps producer/consumer pairs adjacent, which interval chunking turns
   into internal edges.  Successors that become ready together are pushed
   in increasing [key] of the connecting edge (a stable sort, so a
   constant key keeps adjacency order): the one reached through the
   heaviest edge is popped first, leaving light edges for chunk
   boundaries. *)
let dfs_order g key =
  let n = Graph.num_nodes g in
  let indeg = Array.make n 0 in
  List.iter
    (fun v -> indeg.(v) <- List.length (Graph.in_edges g v))
    (Graph.nodes g);
  let stack = Stack.create () in
  List.iter (fun v -> if indeg.(v) = 0 then Stack.push v stack) (Graph.nodes g);
  let order = Array.make n (-1) in
  let count = ref 0 in
  while not (Stack.is_empty stack) do
    let v = Stack.pop stack in
    order.(!count) <- v;
    incr count;
    List.filter_map
      (fun e ->
        let w = Graph.dst g e in
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Some (key e, w) else None)
      (Graph.out_edges g v)
    |> List.stable_sort (fun (k1, _) (k2, _) -> Int.compare k1 k2)
    |> List.iter (fun (_, w) -> Stack.push w stack)
  done;
  assert (!count = n);
  order

let greedy g ~bound = interval g ~order:(dfs_order g (fun _ -> 0)) ~bound

let candidate_orders g (analysis : Rates.analysis) =
  [
    dfs_order g (fun _ -> 0);
    (* breadth-first: Kahn with a FIFO *)
    Graph.topological_order g;
    dfs_order g (fun e -> analysis.period_tokens.(e));
  ]

let order_dp g analysis ~order ~bound ?max_degree ?(pinned = fun _ -> false)
    () =
  check_states g ~bound ~what:"Dag.order_dp";
  let n = Graph.num_nodes g in
  if Array.length order <> n then
    invalid_arg "Dag.order_dp: order length mismatch";
  let pos = Array.make n (-1) in
  Array.iteri
    (fun i v ->
      if v < 0 || v >= n || pos.(v) >= 0 then
        invalid_arg "Dag.order_dp: order is not a permutation";
      pos.(v) <- i)
    order;
  List.iter
    (fun e ->
      if pos.(Graph.src g e) >= pos.(Graph.dst g e) then
        invalid_arg "Dag.order_dp: order is not topological")
    (Graph.edges g);
  (* dp.(i) = min period bandwidth chunking of order[0..i-1], max_int if
     there is none; when segment [j..i] closes we pay the period tokens of
     edges leaving it rightwards (edges entering it were paid by their
     source's segment). *)
  let tokens = analysis.Rates.period_tokens in
  let dp = Array.make (n + 1) max_int in
  let choice = Array.make (n + 1) (-1) in
  dp.(0) <- 0;
  for i = 1 to n do
    let hi = i - 1 in
    (* Scan segment starts j = hi downto 0, maintaining the segment's
       state, outgoing tokens past position hi, and cross-edge degree. *)
    let state = ref 0 in
    let outgo = ref 0 in
    let degree = ref 0 in
    let j = ref hi in
    let feasible = ref true in
    let has_pinned = ref false in
    while !feasible && !j >= 0 do
      let v = order.(!j) in
      state := !state + Graph.state g v;
      (* Out-edges of v: those past hi add tokens and degree; those inside
         [j+1..hi] are internal (they were never counted). *)
      List.iter
        (fun e ->
          let d = pos.(Graph.dst g e) in
          if d > hi then begin
            outgo := !outgo + tokens.(e);
            incr degree
          end)
        (Graph.out_edges g v);
      (* In-edges of v: every source sits before position j in a
         topological order, i.e. outside the segment, so each in-edge adds
         one to the degree now; if its source later joins the segment, the
         source's out-edge scan below decrements it back (internal). *)
      List.iter (fun _ -> incr degree) (Graph.in_edges g v);
      (* Edges from v to segment members [j+1..hi] were counted as "source
         before j" when their destinations were added; now internal. *)
      List.iter
        (fun e ->
          let d = pos.(Graph.dst g e) in
          if d > !j && d <= hi then decr degree)
        (Graph.out_edges g v);
      has_pinned := !has_pinned || pinned v;
      if !state > bound then feasible := false
      else if !has_pinned && !j < hi then
        (* A pinned module may only stand alone; every segment of two or
           more nodes containing one is inadmissible, and extending further
           cannot help. *)
        feasible := false
      else begin
        (* The degree cap is soft for single-node segments: a node whose
           own degree exceeds the cap (a wide splitter or joiner) cannot be
           split further, and the paper's degree-limited hypothesis simply
           fails for such graphs — we still produce the best partition we
           can. *)
        let degree_ok =
          match max_degree with
          | None -> true
          | Some d -> !degree <= d || !j = hi
        in
        (* The strict [<] keeps the latest-starting segment among equal costs.
           Rates keeps every sum of period tokens below max_int. *)
        (if degree_ok && dp.(!j) < max_int then
           let total = dp.(!j) + !outgo in
           if total < dp.(i) then begin
             dp.(i) <- total;
             choice.(i) <- !j
           end);
        decr j
      end
    done
  done;
  if dp.(n) = max_int then
    invalid_arg "Dag.order_dp: no feasible chunking (degree cap too strict?)";
  let a = Array.make n 0 in
  let comp = ref 0 in
  let stop = ref n in
  while !stop > 0 do
    let start = choice.(!stop) in
    for p = start to !stop - 1 do
      a.(order.(p)) <- !comp
    done;
    incr comp;
    stop := start
  done;
  Spec.of_assignment g a

(* Refinement stops after this many passes even if the last one moved. *)
let refine_passes = 8

(* Each candidate move is scored from [v]'s own edges: bandwidth in
   period tokens; state, size and cross degree kept per
   component, so only the source and target components change.  Only a
   move that passes all that builds the candidate [Spec.t] for the O(n+m)
   well-ordered check, and an accepted one renumbers the components. *)
let refine g analysis ~bound ?max_degree spec =
  let n = Graph.num_nodes g and m = Graph.num_edges g in
  let tokens = analysis.Rates.period_tokens in
  let current = ref spec in
  let comp = Spec.assignment spec in
  (* Component ids stay below n. *)
  let state = Array.make n 0 and size = Array.make n 0 in
  let degree = Array.make n 0 in
  let over_bound st = if st > bound then 1 else 0 in
  let too_wide deg sz =
    match max_degree with
    | Some d when deg > d && sz > 1 -> 1
    | _ -> 0
  in
  (* Components over the state bound, and multi-module components over
     the degree cap (the soft cap of [order_dp]). *)
  let n_over = ref 0 and n_wide = ref 0 in
  let recount () =
    Array.fill state 0 n 0;
    Array.fill size 0 n 0;
    Array.fill degree 0 n 0;
    Array.iteri
      (fun v c ->
        state.(c) <- state.(c) + Graph.state g v;
        size.(c) <- size.(c) + 1)
      comp;
    for e = 0 to m - 1 do
      let s = comp.(Graph.src g e) and d = comp.(Graph.dst g e) in
      if s <> d then begin
        degree.(s) <- degree.(s) + 1;
        degree.(d) <- degree.(d) + 1
      end
    done;
    n_over := 0;
    n_wide := 0;
    for c = 0 to Spec.num_components !current - 1 do
      n_over := !n_over + over_bound state.(c);
      n_wide := !n_wide + too_wide degree.(c) size.(c)
    done
  in
  recount ();
  (* Move [v] from component [c] to [t] if that keeps the partition
     well-ordered, bounded and degree-capped and strictly lowers its
     bandwidth. *)
  let try_move v c t =
    t >= 0
    && t < Spec.num_components !current
    && t <> c
    &&
    let gain = ref 0 and deg_c = ref degree.(c) and deg_t = ref degree.(t) in
    let visit e u =
      let x = comp.(u) in
      if x = c then begin
        (* internal to c, becomes a c-t cross edge *)
        gain := !gain + tokens.(e);
        incr deg_c;
        incr deg_t
      end
      else if x = t then begin
        (* a c-t cross edge, becomes internal to t *)
        gain := !gain - tokens.(e);
        decr deg_c;
        decr deg_t
      end
      else begin
        decr deg_c;
        incr deg_t
      end
    in
    List.iter (fun e -> visit e (Graph.src g e)) (Graph.in_edges g v);
    List.iter (fun e -> visit e (Graph.dst g e)) (Graph.out_edges g v);
    let s = Graph.state g v in
    let over =
      !n_over - over_bound state.(c) - over_bound state.(t)
      + over_bound (state.(c) - s)
      + over_bound (state.(t) + s)
    and wide =
      !n_wide - too_wide degree.(c) size.(c) - too_wide degree.(t) size.(t)
      + too_wide !deg_c (size.(c) - 1)
      + too_wide !deg_t (size.(t) + 1)
    in
    !gain < 0 && over = 0 && wide = 0
    &&
    (comp.(v) <- t;
     let candidate = Spec.of_assignment g comp in
     if Spec.is_well_ordered candidate then begin
       current := candidate;
       Array.blit (Spec.assignment candidate) 0 comp 0 n;
       recount ();
       true
     end
     else begin
       comp.(v) <- c;
       false
     end)
  in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < refine_passes do
    improved := false;
    incr passes;
    for v = 0 to n - 1 do
      let c = comp.(v) in
      (* After an accepted move to c - 1, renumbering leaves v in c - 1
         (ids follow first appearance along the topological order, and
         no component before c changes its first member), so c + 1 is
         tried only when c - 1 was not taken. *)
      if try_move v c (c - 1) || try_move v c (c + 1) then improved := true
    done
  done;
  !current

let best g analysis ~bound ?max_degree ?pinned () =
  let candidates =
    List.filter_map
      (fun order ->
        match order_dp g analysis ~order ~bound ?max_degree ?pinned () with
        | sp -> Some sp
        | exception Invalid_argument _ -> (
            (* Degree cap infeasible for this order: fall back to plain
               first-fit chunking (no cap). *)
            match interval g ~order ~bound with
            | sp -> Some sp
            | exception Invalid_argument _ -> None))
      (candidate_orders g analysis)
  in
  let pick_best = function
    | [] -> invalid_arg "Dag.best: no feasible partition (bound too small?)"
    | first :: rest ->
        List.fold_left
          (fun acc sp ->
            if
              Spec.period_bandwidth sp analysis
              < Spec.period_bandwidth acc analysis
            then sp
            else acc)
          first rest
  in
  let refined = refine g analysis ~bound ?max_degree (pick_best candidates) in
  (* Refinement moves could merge a pinned module into a neighbour; reject
     the refinement for such modules by keeping the pre-refine result. *)
  match pinned with
  | None -> refined
  | Some p ->
      let ok =
        List.for_all
          (fun v ->
            (not (p v))
            || List.compare_length_with
                 (Spec.members refined (Spec.component_of refined v))
                 1
               = 0)
          (Graph.nodes g)
      in
      if ok then refined else pick_best candidates

(* --- Exact search over order ideals ------------------------------------- *)

let exact g analysis ~bound ?(max_nodes = 20) () =
  let n = Graph.num_nodes g in
  if n > max_nodes then None
  else if List.exists (fun v -> Graph.state g v > bound) (Graph.nodes g) then
    None
  else begin
    let full = (1 lsl n) - 1 in
    let state_of = Array.init n (fun v -> Graph.state g v) in
    let pred_mask = Array.make n 0 in
    List.iter
      (fun e ->
        let s = Graph.src g e and d = Graph.dst g e in
        pred_mask.(d) <- pred_mask.(d) lor (1 lsl s))
      (Graph.edges g);
    (* Each module's out-edges as (destination, period tokens). *)
    let out =
      Array.init n (fun v ->
          Array.of_list
            (List.map
               (fun e -> (Graph.dst g e, analysis.Rates.period_tokens.(e)))
               (Graph.out_edges g v)))
    in
    (* f(ideal) = (min period bandwidth to peel the remaining nodes, the
       component masks peeled from this ideal to completion); memoized. *)
    let memo : (int, int * int list) Hashtbl.t = Hashtbl.create 4096 in
    let cost_of_component ideal s_mask =
      (* Tokens of edges from S to nodes outside ideal ∪ S. *)
      let outside = full land lnot (ideal lor s_mask) in
      let cost = ref 0 in
      for v = 0 to n - 1 do
        if (s_mask lsr v) land 1 = 1 then
          Array.iter
            (fun (d, tokens) ->
              if (outside lsr d) land 1 = 1 then cost := !cost + tokens)
            out.(v)
      done;
      !cost
    in
    let rec solve ideal =
      if ideal = full then (0, [])
      else
        match Hashtbl.find_opt memo ideal with
        | Some r -> r
        | None ->
            (* A single ready node always fits, since states are
               individually <= bound, so some component sets [best]. *)
            let best = ref (max_int, []) in
            (* Enumerate candidate next components S: grow from the ready
               frontier, deduplicating by mask. *)
            let seen = Hashtbl.create 64 in
            let ready_from mask =
              (* Nodes not in [mask] whose predecessors are all in [mask]. *)
              let r = ref [] in
              for v = 0 to n - 1 do
                if
                  (mask lsr v) land 1 = 0
                  && pred_mask.(v) land lnot mask = 0
                then r := v :: !r
              done;
              !r
            in
            let consider s_mask =
              let cost = cost_of_component ideal s_mask in
              let sub_cost, sub_trail = solve (ideal lor s_mask) in
              let total = cost + sub_cost in
              if total < fst !best then best := (total, s_mask :: sub_trail)
            in
            let rec grow s_mask s_state =
              if not (Hashtbl.mem seen s_mask) then begin
                Hashtbl.add seen s_mask ();
                if s_mask <> 0 then consider s_mask;
                List.iter
                  (fun v ->
                    let st = s_state + state_of.(v) in
                    if st <= bound then grow (s_mask lor (1 lsl v)) st)
                  (ready_from (ideal lor s_mask))
              end
            in
            grow 0 0;
            Hashtbl.add memo ideal !best;
            !best
    in
    let _, trail = solve 0 in
    let a = Array.make n 0 in
    List.iteri
      (fun i mask ->
        for v = 0 to n - 1 do
          if (mask lsr v) land 1 = 1 then a.(v) <- i
        done)
      trail;
    Some (Spec.of_assignment g a)
  end
