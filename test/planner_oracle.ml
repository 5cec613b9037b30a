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
              && Spec.is_c_bounded candidate ~bound
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
    dp.(0) <- Some Q.zero;
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
            if !j = 0 then Some Q.zero
            else
              match dp.(!j) with
              | None -> None
              | Some c ->
                  Some (Q.add c (Rates.edge_gain analysis (edge_after g chain (!j - 1))))
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
