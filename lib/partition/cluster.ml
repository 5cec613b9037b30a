module Graph = Ccs_sdf.Graph
module Rates = Ccs_sdf.Rates
module Minbuf = Ccs_sdf.Minbuf

type mapping = {
  graph : Graph.t;
  node_of_component : int array;
  component_of_node : int array;
  edge_of_cross : (Graph.edge * Graph.edge) list;
}

let contract g a spec =
  if not (Spec.is_well_ordered spec) then
    invalid_arg "Cluster.contract: partition is not well-ordered";
  let k = Spec.num_components spec in
  let mb = Minbuf.compute g a in
  let b = Graph.Builder.create ~name:(Graph.name g ^ "-fused") () in
  (* Fused state: member states plus internal minimum buffers. *)
  let local_rep = Array.make k [] in
  let node_of_component = Array.make k (-1) in
  for c = 0 to k - 1 do
    let members = Spec.members spec c in
    local_rep.(c) <- Rates.local_repetition a members;
    let state =
      List.fold_left (fun acc v -> acc + Graph.state g v) 0 members
    in
    let internal_buf =
      Minbuf.total g mb ~subset:(fun v -> Spec.component_of spec v = c)
    in
    let name =
      match members with
      | [ v ] -> Graph.node_name g v
      | v :: _ ->
          Printf.sprintf "fused-%s+%d" (Graph.node_name g v)
            (List.length members - 1)
      | [] -> assert false
    in
    node_of_component.(c) <-
      Graph.Builder.add_module b ~state:(state + internal_buf) name
  done;
  (* Cross edges: rates scale by the endpoint's local repetition count. *)
  let edge_of_cross =
    List.filter_map
      (fun e ->
        let cs = Spec.component_of spec (Graph.src g e)
        and cd = Spec.component_of spec (Graph.dst g e) in
        if cs = cd then None
        else begin
          let p_src = List.assoc (Graph.src g e) local_rep.(cs) in
          let p_dst = List.assoc (Graph.dst g e) local_rep.(cd) in
          let e' =
            Graph.Builder.add_channel b ~delay:(Graph.delay g e)
              ~src:node_of_component.(cs) ~dst:node_of_component.(cd)
              ~push:(p_src * Graph.push g e)
              ~pop:(p_dst * Graph.pop g e)
              ()
          in
          Some (e, e')
        end)
      (Graph.edges g)
  in
  let graph = Graph.Builder.build b in
  let component_of_node = Array.make k (-1) in
  Array.iteri (fun c n -> component_of_node.(n) <- c) node_of_component;
  { graph; node_of_component; component_of_node; edge_of_cross }

let hierarchical g a ~bound ?(coarsen_to = 8) ?max_degree () =
  let max_state =
    List.fold_left (fun acc v -> max acc (Graph.state g v)) 1 (Graph.nodes g)
  in
  let cluster_bound = max max_state (bound / max 1 coarsen_to) in
  let coarse_spec = Dag.greedy g ~bound:cluster_bound in
  let m = contract g a coarse_spec in
  let cg = m.graph in
  let ca = Rates.analyze_exn cg in
  let coarse_partition =
    if Graph.num_nodes cg <= 20 then
      match Dag.exact cg ca ~bound ~max_nodes:20 () with
      | Some sp -> sp
      | None -> Dag.best cg ca ~bound ?max_degree ()
    else Dag.best cg ca ~bound ?max_degree ()
  in
  (* Project: an original module's component is the component of the
     contracted node holding its cluster. *)
  let assignment =
    Array.init (Graph.num_nodes g) (fun v ->
        let cluster = Spec.component_of coarse_spec v in
        Spec.component_of coarse_partition m.node_of_component.(cluster))
  in
  Spec.of_assignment g assignment
