module Graph = Ccs_sdf.Graph
module Rates = Ccs_sdf.Rates
module Minbuf = Ccs_sdf.Minbuf
module Latest_first = Ccs_sdf.Latest_first
module Spec = Ccs_partition.Spec
module Machine = Ccs_exec.Machine

(* Members (in topological order) and internal edges of every component,
   in one pass over the nodes and one over the edges. *)
let components g spec =
  let k = Spec.num_components spec in
  let members = Array.make k [] and internal = Array.make k [] in
  let topo = Graph.topological_order g in
  for i = Array.length topo - 1 downto 0 do
    let v = topo.(i) in
    let c = Spec.component_of spec v in
    members.(c) <- v :: members.(c)
  done;
  for e = Graph.num_edges g - 1 downto 0 do
    let c = Spec.component_of spec (Graph.src g e) in
    if c = Spec.component_of spec (Graph.dst g e) then
      internal.(c) <- e :: internal.(c)
  done;
  (members, internal)

(* [pos.(order.(i)) = i]. *)
let positions order =
  let pos = Array.make (Array.length order) 0 in
  Array.iteri (fun i c -> pos.(c) <- i) order;
  pos

(* Latest-first simulation of one local period of component [c] (each
   member [v] fires [local_rep]'s count for it) on [driver]: internal
   edges are tracked from their delays, and their peaks are left in the
   driver; cross edges are unbounded supply/void.  [remaining] must be
   zero outside the component, and is zero everywhere again on return.
   Returns the firing order. *)
let run_local_period driver ~remaining c ~internal ~local_rep =
  List.iter (fun (v, k) -> remaining.(v) <- k) local_rep;
  let fired, order =
    Latest_first.run driver ~remaining ~candidates:(List.map fst local_rep)
      ~channels:internal ~record:true
  in
  if fired < List.fold_left (fun acc (_, k) -> acc + k) 0 local_rep then
    raise
      (Graph.Invalid_graph
         (Printf.sprintf "Partitioned.local_period: component %d deadlocked"
            c));
  order

let local_period g (a : Rates.analysis) spec c =
  let members, internal = components g spec in
  let driver = Latest_first.create g in
  let order =
    run_local_period driver
      ~remaining:(Array.make (Graph.num_nodes g) 0)
      c ~internal:internal.(c)
      ~local_rep:(Rates.local_repetition a members.(c))
  in
  let peaks = Array.make (Graph.num_edges g) 0 in
  List.iter (fun e -> peaks.(e) <- Latest_first.peak driver e) internal.(c);
  (order, peaks)

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
  let members, internal = components g spec in
  let driver = Latest_first.create g in
  let remaining = Array.make (Graph.num_nodes g) 0 in
  let component_schedules =
    Array.to_list (Spec.component_topo_order spec)
    |> List.map (fun c ->
           let local_rep = Rates.local_repetition a members.(c) in
           let firing_order =
             run_local_period driver ~remaining c ~internal:internal.(c)
               ~local_rep
           in
           (* Internal capacities: the local period's peak occupancies,
              and at least a single push/pop even if the peak analysis
              yields less (e.g. zero-delay tight loops). *)
           List.iter
             (fun e ->
               capacities.(e) <-
                 max
                   (Latest_first.peak driver e)
                   (max (Graph.push g e) (Graph.pop g e)))
             internal.(c);
           (* Repeat count: firings per batch divided by the local period. *)
           let v0, p0 =
             match local_rep with x :: _ -> x | [] -> assert false
           in
           let n0 = Rates.firings_per_batch a ~t v0 in
           assert (n0 mod p0 = 0);
           Schedule.repeat (n0 / p0) (Schedule.of_list firing_order))
  in
  let period = Schedule.seq component_schedules in
  Plan.of_period
    ~name:(Printf.sprintf "partitioned-batch-T%d" t)
    ~capacities period

let homogeneous g a spec ~m_tokens =
  if not (Graph.is_homogeneous g) then
    invalid_arg "Partitioned.homogeneous: graph is not homogeneous";
  let plan = batch g a spec ~t:m_tokens in
  { plan with Plan.name = Printf.sprintf "partitioned-homog-M%d" m_tokens }

(* --- Dynamic homogeneous-DAG schedule ------------------------------------ *)

let dag_dynamic g (a : Rates.analysis) spec ~m_tokens =
  if not (Graph.is_homogeneous g) then
    invalid_arg "Partitioned.dag_dynamic: graph is not homogeneous";
  if List.exists (fun e -> Graph.delay g e > 0) (Graph.edges g) then
    invalid_arg "Partitioned.dag_dynamic: channel delays are not supported";
  if not (Spec.is_well_ordered spec) then
    invalid_arg "Partitioned.dag_dynamic: partition is not well-ordered";
  let mb = Minbuf.compute g a in
  let m = Graph.num_edges g in
  let capacities =
    Array.init m (fun e ->
        if Spec.is_cross spec e then m_tokens else mb.Minbuf.capacity.(e))
  in
  let order = Spec.component_topo_order spec in
  let k = Array.length order in
  let members = Array.map (Array.get (fst (components g spec))) order in
  let pos = positions order in
  let in_cross = Array.make k [] and out_cross = Array.make k [] in
  List.iter
    (fun e ->
      if Spec.is_cross spec e then begin
        let i = pos.(Spec.component_of spec (Graph.src g e))
        and j = pos.(Spec.component_of spec (Graph.dst g e)) in
        out_cross.(i) <- e :: out_cross.(i);
        in_cross.(j) <- e :: in_cross.(j)
      end)
    (Graph.edges g);
  let drive machine ~target_outputs =
    let schedulable i =
      List.for_all
        (fun e -> Machine.tokens machine e >= m_tokens)
        in_cross.(i)
      && List.for_all (fun e -> Machine.tokens machine e = 0) out_cross.(i)
    in
    (* Prefer the latest schedulable component so tokens drain towards the
       sink and outputs appear as early as possible. *)
    let pick () =
      let rec scan i =
        if i < 0 then None else if schedulable i then Some i else scan (i - 1)
      in
      scan (k - 1)
    in
    let execute i =
      (* Each member fires m_tokens times: one topological pass of the
         component, repeated (the paper's low-level schedule for
         homogeneous graphs). *)
      for _ = 1 to m_tokens do
        List.iter (Machine.fire machine) members.(i)
      done
    in
    while Machine.sink_outputs machine < target_outputs do
      match pick () with
      | Some i -> execute i
      | None ->
          raise
            (Graph.Invalid_graph
               "Partitioned.dag_dynamic: no schedulable component")
    done
  in
  Plan.dynamic
    ~name:(Printf.sprintf "partitioned-dag-dyn-M%d" m_tokens)
    ~capacities drive

(* --- Dynamic pipeline schedule ------------------------------------------ *)

let pipeline_dynamic g (a : Rates.analysis) spec ~m_tokens =
  if not (Graph.is_pipeline g) then
    invalid_arg "Partitioned.pipeline_dynamic: graph is not a pipeline";
  if not (Spec.is_well_ordered spec) then
    invalid_arg "Partitioned.pipeline_dynamic: partition is not well-ordered";
  let mb = Minbuf.compute g a in
  let m = Graph.num_edges g in
  let capacities = Array.make m 0 in
  List.iter
    (fun e ->
      capacities.(e) <-
        (if Spec.is_cross spec e then
           max (2 * m_tokens)
             (2 * max (Graph.push g e) (Graph.pop g e) + Graph.delay g e)
         else mb.Minbuf.capacity.(e)))
    (Graph.edges g);
  let order = Spec.component_topo_order spec in
  let k = Array.length order in
  (* For a pipeline segmentation, component [order.(i)] has at most one
     outgoing cross edge. *)
  let out_cross = Array.make k None in
  let pos = positions order in
  List.iter
    (fun e ->
      if Spec.is_cross spec e then
        out_cross.(pos.(Spec.component_of spec (Graph.src g e))) <- Some e)
    (Graph.edges g);
  let members = Array.map (Array.get (fst (components g spec))) order in
  let rank = Graph.topo_rank g in
  let drive machine ~target_outputs =
    let half e = capacities.(e) / 2 in
    let output_at_most_half i =
      match out_cross.(i) with
      | None -> true (* last segment: the sink always drains *)
      | Some e -> Machine.tokens machine e <= half e
    in
    (* Paper's continuity scan: the first segment (in topological order)
       whose output cross edge is at most half full is schedulable — every
       earlier segment's output, which is this segment's input, is more
       than half full by construction of the scan. *)
    let pick () =
      let rec scan i =
        if i >= k then None
        else if output_at_most_half i then Some i
        else scan (i + 1)
      in
      scan 0
    in
    let execute i =
      (* Run the segment until nothing in it can fire (input exhausted or
         output full), latest-first to drain internal buffers. *)
      let progressed = ref false in
      let rec go () =
        let best = ref (-1) in
        List.iter
          (fun v ->
            if
              Machine.can_fire machine v
              && (!best = -1 || rank.(v) > rank.(!best))
            then best := v)
          members.(i);
        if !best >= 0 then begin
          Machine.fire machine !best;
          progressed := true;
          if Machine.sink_outputs machine < target_outputs then go ()
        end
      in
      go ();
      !progressed
    in
    while Machine.sink_outputs machine < target_outputs do
      match pick () with
      | Some i ->
          if not (execute i) then
            raise
              (Graph.Invalid_graph
                 "Partitioned.pipeline_dynamic: schedulable segment could \
                  not fire")
      | None ->
          raise
            (Graph.Invalid_graph
               "Partitioned.pipeline_dynamic: no schedulable segment")
    done
  in
  Plan.dynamic
    ~name:(Printf.sprintf "partitioned-pipeline-M%d" m_tokens)
    ~capacities drive
