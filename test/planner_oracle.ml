(* The planner's hot loops as they were before they became incremental,
   kept verbatim as the oracle of the differential tests: the rescanning
   [Dag.refine], [Minbuf.compute] and [Minbuf.feasible], the rational
   [Pipeline.optimal_dp] and the per-component [Partitioned.batch]. *)

module Graph = Ccs.Graph
module Rates = Ccs.Rates
module Q = Ccs.Rational
module Spec = Ccs.Spec
module Schedule = Ccs.Schedule
module Plan = Ccs.Plan

module Dag = struct
  let refine g analysis ~bound ?max_degree ?(max_passes = 8) spec =
    let n = Graph.num_nodes g in
    let current = ref spec in
    let improved = ref true in
    let passes = ref 0 in
    while !improved && !passes < max_passes do
      improved := false;
      incr passes;
      for v = 0 to n - 1 do
        let sp = !current in
        let c = Spec.component_of sp v in
        let k = Spec.num_components sp in
        let try_move target =
          if target >= 0 && target < k && target <> c then begin
            let a = Spec.assignment sp in
            a.(v) <- target;
            let candidate = Spec.of_assignment g a in
            let degree_ok =
              match max_degree with
              | None -> true
              | Some d ->
                  (* Soft cap, as in order_dp: unavoidably wide single-node
                     components are tolerated. *)
                  let ok = ref true in
                  for c = 0 to Spec.num_components candidate - 1 do
                    if
                      Spec.component_degree candidate c > d
                      && List.compare_length_with (Spec.members candidate c) 1
                         > 0
                    then ok := false
                  done;
                  !ok
            in
            if
              degree_ok
              && Spec.is_well_ordered candidate
              && Sdf_oracle.is_c_bounded candidate ~bound
              && Q.compare
                   (Spec.bandwidth candidate analysis)
                   (Spec.bandwidth sp analysis)
                 < 0
            then begin
              current := candidate;
              improved := true
            end
          end
        in
        try_move (c - 1);
        if Spec.component_of !current v = c then try_move (c + 1)
      done
    done;
    !current

end

module Minbuf = struct
    type t = Ccs.Minbuf.t = { capacity : int array; schedule : Graph.node list }

  let compute g (a : Rates.analysis) =
    let n = Graph.num_nodes g and m = Graph.num_edges g in
    let remaining = Array.copy a.repetition in
    let tokens = Array.init m (fun e -> Graph.delay g e) in
    let peak = Array.copy tokens in
    let rank = Graph.topo_rank g in
    let enabled v =
      remaining.(v) > 0
      && List.for_all
           (fun e -> tokens.(e) >= Graph.pop g e)
           (Graph.in_edges g v)
    in
    let total_fires = Array.fold_left ( + ) 0 remaining in
    let schedule = ref [] in
    let fired = ref 0 in
    let progress = ref true in
    while !fired < total_fires && !progress do
      (* Pick the enabled module with the largest topological rank. *)
      let best = ref (-1) in
      for v = 0 to n - 1 do
        if enabled v && (!best = -1 || rank.(v) > rank.(!best)) then best := v
      done;
      match !best with
      | -1 -> progress := false
      | v ->
          List.iter
            (fun e -> tokens.(e) <- tokens.(e) - Graph.pop g e)
            (Graph.in_edges g v);
          List.iter
            (fun e ->
              tokens.(e) <- tokens.(e) + Graph.push g e;
              if tokens.(e) > peak.(e) then peak.(e) <- tokens.(e))
            (Graph.out_edges g v);
          remaining.(v) <- remaining.(v) - 1;
          schedule := v :: !schedule;
          incr fired
    done;
    if !fired < total_fires then
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

  let feasible g (a : Rates.analysis) ~capacities =
    let n = Graph.num_nodes g in
    let remaining = Array.copy a.repetition in
    let tokens = Array.init (Graph.num_edges g) (fun e -> Graph.delay g e) in
    let rank = Graph.topo_rank g in
    let enabled v =
      remaining.(v) > 0
      && List.for_all
           (fun e -> tokens.(e) >= Graph.pop g e)
           (Graph.in_edges g v)
      && List.for_all
           (fun e -> capacities.(e) - tokens.(e) >= Graph.push g e)
           (Graph.out_edges g v)
    in
    let total_fires = Array.fold_left ( + ) 0 remaining in
    let fired = ref 0 in
    let stuck = ref false in
    while !fired < total_fires && not !stuck do
      let best = ref (-1) in
      for v = 0 to n - 1 do
        if enabled v && (!best = -1 || rank.(v) > rank.(!best)) then best := v
      done;
      match !best with
      | -1 -> stuck := true
      | v ->
          List.iter
            (fun e -> tokens.(e) <- tokens.(e) - Graph.pop g e)
            (Graph.in_edges g v);
          List.iter
            (fun e -> tokens.(e) <- tokens.(e) + Graph.push g e)
            (Graph.out_edges g v);
          remaining.(v) <- remaining.(v) - 1;
          incr fired
    done;
    not !stuck

end

module Pipeline = struct
    let chain_order = Ccs.Pipeline_partition.chain_order

  (* The unique edge out of [chain.(i)] (towards [chain.(i+1)]). *)
  let edge_after g chain i =
    match Graph.out_edges g chain.(i) with
    | [ e ] -> e
    | _ -> invalid_arg "Pipeline: broken chain"

  (* Partition a chain given the set of cut edges: component id increments
     after each cut.  Cut positions are found through a node -> chain-position
     index, so the cost is O(n + cuts) rather than a full chain rescan per
     cut edge (which made 10k-stage segmentations quadratic). *)
  let of_cuts g chain cuts =
    let pos = Array.make (Graph.num_nodes g) (-1) in
    Array.iteri (fun i v -> pos.(v) <- i) chain;
    let cut_after = Array.make (Array.length chain) false in
    List.iter (fun e -> cut_after.(pos.(Graph.src g e)) <- true) cuts;
    let a = Array.make (Graph.num_nodes g) 0 in
    let comp = ref 0 in
    Array.iteri
      (fun i v ->
        a.(v) <- !comp;
        if cut_after.(i) then incr comp)
      chain;
    Spec.of_assignment g a

  let optimal_dp g analysis ~bound =
    let chain = chain_order g in
    let n = Array.length chain in
    Array.iter
      (fun v ->
        if Graph.state g v > bound then
          invalid_arg
            (Printf.sprintf
               "Pipeline.optimal_dp: module %s has state %d > bound=%d"
               (Graph.node_name g v) (Graph.state g v) bound))
      chain;
    (* dp.(i) = minimum total cut gain for partitioning chain[0..i-1] into
       segments of state <= bound; cut cost before position j (j > 0) is the
       gain of the edge chain[j-1] -> chain[j]. *)
    let dp = Array.make (n + 1) None in
    let choice = Array.make (n + 1) (-1) in
    dp.(0) <- Some (Q.of_int 0);
    for i = 1 to n do
      (* Last segment is chain[j .. i-1]; iterate j from i-1 down while the
         segment still fits. *)
      let seg_state = ref 0 in
      let j = ref (i - 1) in
      let continue_scan = ref true in
      while !continue_scan && !j >= 0 do
        seg_state := !seg_state + Graph.state g chain.(!j);
        if !seg_state > bound then continue_scan := false
        else begin
          let cost_before =
            if !j = 0 then Some (Q.of_int 0)
            else
              match dp.(!j) with
              | None -> None
              | Some c ->
                  Some
                    (Q.add c
                       (Sdf_oracle.edge_gain analysis
                          (edge_after g chain (!j - 1))))
          in
          (match cost_before with
          | Some c
            when dp.(i) = None || Q.compare c (Option.get dp.(i)) < 0 ->
              dp.(i) <- Some c;
              choice.(i) <- !j
          | _ -> ());
          decr j
        end
      done
    done;
    (match dp.(n) with
    | None -> invalid_arg "Pipeline.optimal_dp: no feasible segmentation"
    | Some _ -> ());
    (* Reconstruct cuts. *)
    let cuts = ref [] in
    let pos = ref n in
    while !pos > 0 do
      let j = choice.(!pos) in
      if j > 0 then cuts := edge_after g chain (j - 1) :: !cuts;
      pos := j
    done;
    of_cuts g chain !cuts
end

module Partitioned = struct
  (* Local repetition vector of a component: the smallest positive integral
     vector proportional to the members' gains. *)
  let local_repetition (a : Rates.analysis) members =
    let denoms =
      List.fold_left (fun acc v -> Q.lcm acc (Q.den a.node_gain.(v))) 1 members
    in
    let ints =
      List.map (fun v -> (v, Q.to_int_exn (Q.mul_int a.node_gain.(v) denoms)))
        members
    in
    let g = List.fold_left (fun acc (_, x) -> Q.gcd acc x) 0 ints in
    List.map (fun (v, x) -> (v, x / g)) ints

  (* Latest-first simulation of one local period of component [c]: internal
     edges are token-tracked from their delays; cross edges are treated as
     unbounded supply/void.  Returns the firing order and internal peaks. *)
  let local_period g (a : Rates.analysis) spec c =
    let members = Spec.members spec c in
    let local_rep = local_repetition a members in
    let remaining = Hashtbl.create 16 in
    List.iter (fun (v, k) -> Hashtbl.replace remaining v k) local_rep;
    let m = Graph.num_edges g in
    let internal e =
      Spec.component_of spec (Graph.src g e) = c
      && Spec.component_of spec (Graph.dst g e) = c
    in
    let tokens = Array.make m 0 in
    let peaks = Array.make m 0 in
    List.iter
      (fun e ->
        if internal e then begin
          tokens.(e) <- Graph.delay g e;
          peaks.(e) <- Graph.delay g e
        end)
      (Graph.edges g);
    let rank = Graph.topo_rank g in
    let enabled v =
      Hashtbl.find remaining v > 0
      && List.for_all
           (fun e -> (not (internal e)) || tokens.(e) >= Graph.pop g e)
           (Graph.in_edges g v)
    in
    let total = List.fold_left (fun acc (_, k) -> acc + k) 0 local_rep in
    let order = ref [] in
    let fired = ref 0 in
    while !fired < total do
      let best = ref (-1) in
      List.iter
        (fun v -> if enabled v && (!best = -1 || rank.(v) > rank.(!best)) then best := v)
        members;
      (match !best with
      | -1 ->
          raise
            (Graph.Invalid_graph
               (Printf.sprintf "Partitioned.local_period: component %d deadlocked"
                  c))
      | v ->
          List.iter
            (fun e -> if internal e then tokens.(e) <- tokens.(e) - Graph.pop g e)
            (Graph.in_edges g v);
          List.iter
            (fun e ->
              if internal e then begin
                tokens.(e) <- tokens.(e) + Graph.push g e;
                if tokens.(e) > peaks.(e) then peaks.(e) <- tokens.(e)
              end)
            (Graph.out_edges g v);
          Hashtbl.replace remaining v (Hashtbl.find remaining v - 1);
          order := v :: !order;
          incr fired)
    done;
    (List.rev !order, peaks)

  let batch g (a : Rates.analysis) spec ~t =
    if not (Spec.is_well_ordered spec) then
      invalid_arg "Partitioned.batch: partition is not well-ordered";
    let base = Rates.granularity g a ~at_least:1 in
    if t < 1 || t mod base <> 0 then
      invalid_arg
        (Printf.sprintf
           "Partitioned.batch: t=%d is not a positive multiple of the \
            granularity %d"
           t base);
    let m = Graph.num_edges g in
    let capacities = Array.make m 0 in
    (* Cross edges hold a whole batch (plus initial tokens). *)
    List.iter
      (fun e ->
        capacities.(e) <- Rates.tokens_per_batch a ~t e + Graph.delay g e)
      (Spec.cross_edges spec);
    let order = Spec.component_topo_order spec in
    let component_schedules =
      Array.to_list order
      |> List.map (fun c ->
             let firing_order, peaks = local_period g a spec c in
             (* Internal capacities: the local period's peak occupancies. *)
             Array.iteri
               (fun e p -> if p > 0 then capacities.(e) <- max capacities.(e) p)
               peaks;
             (* Internal edges must at least admit a single push/pop even if
                the peak analysis yields less (e.g. zero-delay tight loops). *)
             List.iter
               (fun e ->
                 if
                   Spec.component_of spec (Graph.src g e) = c
                   && Spec.component_of spec (Graph.dst g e) = c
                 then
                   capacities.(e) <-
                     max capacities.(e) (max (Graph.push g e) (Graph.pop g e)))
               (Graph.edges g);
             (* Repeat count: firings per batch divided by the local period. *)
             let v0 =
               match Spec.members spec c with
               | v :: _ -> v
               | [] -> assert false
             in
             let local_rep = local_repetition a (Spec.members spec c) in
             let p0 = List.assoc v0 local_rep in
             let n0 = Rates.firings_per_batch a ~t v0 in
             assert (n0 mod p0 = 0);
             Schedule.repeat (n0 / p0) (Schedule.of_list firing_order))
    in
    let period = Schedule.seq component_schedules in
    Plan.of_period
      ~name:(Printf.sprintf "partitioned-batch-T%d" t)
      ~capacities period

end

(* The partitioners as they were while they compared rational gains:
   the gain-weighted depth-first order, [order_dp], [best]'s pick,
   [exact] and [Auto.partition], and the [Analysis] bounds over them,
   verbatim.  Their [Spec.bandwidth] is a local fold of rational
   cross-edge gains, so nothing here goes through the integer
   [Spec.period_bandwidth]; [refine] and [optimal_dp] are the rescanning
   originals above. *)
module Rational_partition = struct
  module Spec = struct
    include Ccs.Spec

    let bandwidth t analysis =
      List.fold_left
        (fun acc e -> Q.add acc (Sdf_oracle.edge_gain analysis e))
        (Q.of_int 0) (cross_edges t)
  end

  module Dag = struct
    let refine g analysis ~bound ?max_degree spec =
      Dag.refine g analysis ~bound ?max_degree spec

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
       into internal edges. *)
    let dfs_topo_order g =
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
        List.iter
          (fun e ->
            let w = Graph.dst g e in
            indeg.(w) <- indeg.(w) - 1;
            if indeg.(w) = 0 then Stack.push w stack)
          (Graph.out_edges g v)
      done;
      assert (!count = n);
      order

    (* Breadth-first topological order (Kahn with a FIFO). *)
    let bfs_topo_order g = Graph.topological_order g

    (* Gain-weighted depth-first order: like dfs_topo_order, but when a node's
       successors become ready they are pushed so that the successor reached
       through the highest-gain edge is popped first — heavy edges stay
       adjacent in the order, leaving cheap edges for chunk boundaries. *)
    let weighted_dfs_topo_order g analysis =
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
        (* Collect newly-ready successors with the gain of the connecting
           edge; push in increasing gain so the heaviest is on top. *)
        let ready =
          List.filter_map
            (fun e ->
              let w = Graph.dst g e in
              indeg.(w) <- indeg.(w) - 1;
              if indeg.(w) = 0 then Some (Sdf_oracle.edge_gain analysis e, w)
              else None)
            (Graph.out_edges g v)
        in
        List.sort (fun (g1, _) (g2, _) -> Q.compare g1 g2) ready
        |> List.iter (fun (_, w) -> Stack.push w stack)
      done;
      assert (!count = n);
      order

    let candidate_orders g analysis =
      [ dfs_topo_order g; bfs_topo_order g; weighted_dfs_topo_order g analysis ]

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
      (* dp.(i) = min bandwidth chunking of order[0..i-1]; when segment [j..i]
         closes we pay the gains of edges leaving it rightwards (edges entering
         it were paid by their source's segment). *)
      let dp = Array.make (n + 1) None in
      let choice = Array.make (n + 1) (-1) in
      dp.(0) <- Some (Q.of_int 0);
      for i = 1 to n do
        let hi = i - 1 in
        (* Scan segment starts j = hi downto 0, maintaining the segment's
           state, outgoing gain past position hi, and cross-edge degree. *)
        let state = ref 0 in
        let outgo = ref (Q.of_int 0) in
        let degree = ref 0 in
        let j = ref hi in
        let feasible = ref true in
        let has_pinned = ref false in
        while !feasible && !j >= 0 do
          let v = order.(!j) in
          state := !state + Graph.state g v;
          (* Out-edges of v: those past hi add gain and degree; those inside
             [j+1..hi] are internal (they were never counted). *)
          List.iter
            (fun e ->
              let d = pos.(Graph.dst g e) in
              if d > hi then begin
                outgo := Q.add !outgo (Sdf_oracle.edge_gain analysis e);
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
            (if degree_ok then
               match dp.(!j) with
               | Some c ->
                   let total = Q.add c !outgo in
                   (match dp.(i) with
                   | Some best when Q.compare best total <= 0 -> ()
                   | _ ->
                       dp.(i) <- Some total;
                       choice.(i) <- !j)
               | None -> ());
            decr j
          end
        done
      done;
      (match dp.(n) with
      | None ->
          invalid_arg
            "Dag.order_dp: no feasible chunking (degree cap too strict?)"
      | Some _ -> ());
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
                  Q.compare (Spec.bandwidth sp analysis)
                    (Spec.bandwidth acc analysis)
                  < 0
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
        let edges =
          List.map
            (fun e ->
              let s = Graph.src g e and d = Graph.dst g e in
              pred_mask.(d) <- pred_mask.(d) lor (1 lsl s);
              (s, d, Sdf_oracle.edge_gain analysis e))
            (Graph.edges g)
        in
        (* f(ideal) = min bandwidth to peel the remaining nodes; memoized. *)
        let memo : (int, Q.t * (int * int) list) Hashtbl.t = Hashtbl.create 4096 in
        (* Stored value: (cost, trail) where trail lists (component_mask, _)
           choices from this ideal to completion. *)
        let cost_of_component ideal s_mask =
          (* Gains of edges from S to nodes outside ideal ∪ S. *)
          let outside = full land lnot (ideal lor s_mask) in
          List.fold_left
            (fun acc (s, d, gain) ->
              if (s_mask lsr s) land 1 = 1 && (outside lsr d) land 1 = 1 then
                Q.add acc gain
              else acc)
            (Q.of_int 0) edges
        in
        let rec solve ideal =
          if ideal = full then ((Q.of_int 0), [])
          else
            match Hashtbl.find_opt memo ideal with
            | Some r -> r
            | None ->
                let best = ref None in
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
                let consider s_mask s_state =
                  if s_mask <> 0 then begin
                    let cost = cost_of_component ideal s_mask in
                    let sub_cost, sub_trail = solve (ideal lor s_mask) in
                    let total = Q.add cost sub_cost in
                    match !best with
                    | Some (b, _) when Q.compare total b >= 0 -> ()
                    | _ -> best := Some (total, (s_mask, s_state) :: sub_trail)
                  end
                in
                let rec grow s_mask s_state =
                  if not (Hashtbl.mem seen s_mask) then begin
                    Hashtbl.add seen s_mask ();
                    if s_mask <> 0 then consider s_mask s_state;
                    List.iter
                      (fun v ->
                        let st = s_state + state_of.(v) in
                        if st <= bound then grow (s_mask lor (1 lsl v)) st)
                      (ready_from (ideal lor s_mask))
                  end
                in
                grow 0 0;
                let r =
                  match !best with
                  | Some r -> r
                  | None ->
                      (* Unreachable: a single ready node always fits since
                         states are individually <= bound. *)
                      assert false
                in
                Hashtbl.add memo ideal r;
                r
        in
        let _, trail = solve 0 in
        let a = Array.make n 0 in
        List.iteri
          (fun i (mask, _) ->
            for v = 0 to n - 1 do
              if (mask lsr v) land 1 = 1 then a.(v) <- i
            done)
          trail;
        Some (Spec.of_assignment g a)
      end

    let min_bandwidth g analysis ~bound ?max_nodes () =
      Option.map
        (fun sp -> Spec.bandwidth sp analysis)
        (exact g analysis ~bound ?max_nodes ())

  end

  module Pipeline = struct
    let chain_order = Pipeline.chain_order
    let edge_after = Pipeline.edge_after
    let optimal_dp = Pipeline.optimal_dp

    let gain_minimizing_edge g analysis chain ~lo ~hi =
      if lo >= hi then
        invalid_arg "Pipeline.gain_minimizing_edge: segment has no internal edge";
      let best = ref (edge_after g chain lo) in
      for i = lo + 1 to hi - 1 do
        let e = edge_after g chain i in
        let gain = Sdf_oracle.edge_gain analysis in
        if Q.compare (gain e) (gain !best) < 0 then best := e
      done;
      !best

  end

  module Analysis = struct
    let pipeline_lower_bound g a ~m ~b =
      let chain = Pipeline.chain_order g in
      let n = Array.length chain in
      (* Carve maximal disjoint segments of state >= 2m, greedily from the
         head; each contributes the gain of its gain-minimizing edge. *)
      let total = ref (Q.of_int 0) in
      let lo = ref 0 in
      let acc = ref 0 in
      for i = 0 to n - 1 do
        acc := !acc + Graph.state g chain.(i);
        if !acc >= 2 * m then begin
          if !lo < i then begin
            let e = Pipeline.gain_minimizing_edge g a chain ~lo:!lo ~hi:i in
            total := Q.add !total (Sdf_oracle.edge_gain a e)
          end;
          lo := i + 1;
          acc := 0
        end
      done;
      Q.to_float !total /. float_of_int b

    let dag_lower_bound g a ~m ~b ?max_nodes () =
      if Graph.total_state g <= 3 * m then Some 0.
      else
        Option.map
          (fun bw -> Q.to_float bw /. float_of_int b)
          (Dag.min_bandwidth g a ~bound:(3 * m) ?max_nodes ())

    let bandwidth_per_input spec a = Q.to_float (Spec.bandwidth spec a)

    let partition_cost_prediction spec a ~b ~t =
      let state_loads = ref 0. in
      for c = 0 to Spec.num_components spec - 1 do
        state_loads :=
          !state_loads +. (float_of_int (Spec.component_state spec c) /. float_of_int t)
      done;
      (* Each cross-edge token is written once by the producing component and
         read once by the consuming one: two block-streamed touches. *)
      ((2. *. bandwidth_per_input spec a) +. !state_loads) /. float_of_int b

  end

  module Auto = struct
    module Config = Ccs.Config
    module Minbuf = Ccs.Minbuf

    (* The paper's upper bounds run a cM-bounded partition on an O(cM) cache
       (constant-factor augmentation).  Auto targets the machine the user
       actually configured, so components get at most half the real cache —
       the other half absorbs internal buffers and one streaming block per
       cross edge — except when a single module is bigger than that, in which
       case we must allow it (the paper's s(v) <= M assumption in the tightest
       form the machine permits). *)
    let fitting_bound g cfg =
      let max_state =
        List.fold_left (fun acc v -> max acc (Graph.state g v)) 1 (Graph.nodes g)
      in
      max (cfg.Config.cache_words / 2) max_state

    let partition g analysis cfg =
      let bound = fitting_bound g cfg in
      (* Cache footprint of running the whole graph resident: module states
         rounded up to whole blocks (they are block-aligned), one block of
         slack for boundary sharing, and the packed minimum buffers, sized
         only when the rest fits (every buffer holds at least one token). *)
      let bw = cfg.Config.block_words and cache = cfg.Config.cache_words in
      let rest =
        List.fold_left
          (fun acc v -> acc + ((Graph.state g v + bw - 1) / bw * bw))
          bw (Graph.nodes g)
      in
      if
        rest <= cache
        && rest + Array.fold_left ( + ) 0 (Minbuf.compute g analysis).capacity
           <= cache
      then
        (* Everything — state and minimum buffers — fits at once: the whole
           graph is a single component and no tokens ever cross a partition
           boundary. *)
        Spec.whole g
      else if Graph.is_pipeline g then Pipeline.optimal_dp g analysis ~bound
      else begin
        (* Lemma 8 needs degree-limited components: one resident cache block
           per cross edge must fit next to the component's state (at most half
           the cache), so cap the degree at a quarter of the cache in blocks. *)
        let max_degree =
          max 2 (cfg.Config.cache_words / (4 * cfg.Config.block_words))
        in
        let heuristic () = Dag.best g analysis ~bound ~max_degree () in
        if Graph.num_nodes g <= 16 then
          match Dag.exact g analysis ~bound ~max_nodes:16 () with
          | Some spec when Spec.is_degree_limited spec ~bound:max_degree -> spec
          | Some spec ->
              (* Exact minimizes bandwidth but ignores degree; prefer it only
                 if the heuristic cannot do better under the cap. *)
              let h = heuristic () in
              if
                Ccs_sdf.Rational.compare
                  (Spec.bandwidth h analysis)
                  (Spec.bandwidth spec analysis)
                <= 0
              then h
              else spec
          | None -> heuristic ()
        else heuristic ()
      end

  end
end
