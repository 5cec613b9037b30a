module Graph = Ccs_sdf.Graph
module Rates = Ccs_sdf.Rates

type t = {
  graph : Graph.t;
  component : int array; (* normalized: dense, first-appearance order along topo *)
  num_components : int;
}

let of_assignment g a =
  let n = Graph.num_nodes g in
  if Array.length a <> n then
    invalid_arg "Spec.of_assignment: assignment length mismatch";
  (* Renumber densely in order of first appearance along topological order. *)
  let remap = Hashtbl.create 16 in
  let next = ref 0 in
  let topo = Graph.topological_order g in
  Array.iter
    (fun v ->
      let c = a.(v) in
      if not (Hashtbl.mem remap c) then begin
        Hashtbl.add remap c !next;
        incr next
      end)
    topo;
  let component = Array.map (fun c -> Hashtbl.find remap c) a in
  { graph = g; component; num_components = !next }

let whole g = of_assignment g (Array.make (Graph.num_nodes g) 0)
let num_components t = t.num_components
let component_of t v = t.component.(v)

let members t c =
  let topo = Graph.topological_order t.graph in
  Array.to_list topo |> List.filter (fun v -> t.component.(v) = c)

let assignment t = Array.copy t.component

let is_cross t e =
  t.component.(Graph.src t.graph e) <> t.component.(Graph.dst t.graph e)

let cross_edges t = List.filter (is_cross t) (Graph.edges t.graph)
let internal_edges t =
  List.filter (fun e -> not (is_cross t e)) (Graph.edges t.graph)

let component_state t c =
  List.fold_left (fun acc v -> acc + Graph.state t.graph v) 0 (members t c)

let max_component_state t =
  let best = ref 0 in
  for c = 0 to t.num_components - 1 do
    best := max !best (component_state t c)
  done;
  !best

let component_degree t c =
  List.fold_left
    (fun acc e ->
      let s = t.component.(Graph.src t.graph e)
      and d = t.component.(Graph.dst t.graph e) in
      if s <> d && (s = c || d = c) then acc + 1 else acc)
    0 (Graph.edges t.graph)

let max_component_degree t =
  let best = ref 0 in
  for c = 0 to t.num_components - 1 do
    best := max !best (component_degree t c)
  done;
  !best

(* Kahn on the contracted multigraph. *)
let contracted_topo t =
  let k = t.num_components in
  let indeg = Array.make k 0 in
  let succs = Array.make k [] in
  List.iter
    (fun e ->
      let s = t.component.(Graph.src t.graph e)
      and d = t.component.(Graph.dst t.graph e) in
      if s <> d then begin
        indeg.(d) <- indeg.(d) + 1;
        succs.(s) <- d :: succs.(s)
      end)
    (Graph.edges t.graph);
  let queue = Queue.create () in
  for c = 0 to k - 1 do
    if indeg.(c) = 0 then Queue.add c queue
  done;
  let order = Array.make k (-1) in
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    order.(!count) <- c;
    incr count;
    List.iter
      (fun d ->
        indeg.(d) <- indeg.(d) - 1;
        if indeg.(d) = 0 then Queue.add d queue)
      succs.(c)
  done;
  if !count = k then Some order else None

let is_well_ordered t = contracted_topo t <> None

let component_topo_order t =
  match contracted_topo t with
  | Some order -> order
  | None -> invalid_arg "Spec.component_topo_order: partition not well-ordered"

let is_degree_limited t ~bound =
  let ok = ref true in
  for c = 0 to t.num_components - 1 do
    if component_degree t c > bound then ok := false
  done;
  !ok

(* Witness for a non-well-ordered partition: a cycle of components in the
   contracted multigraph, found by DFS over cross edges. *)
let component_cycle t =
  let g = t.graph in
  let k = t.num_components in
  let succs = Array.make k [] in
  List.iter
    (fun e ->
      let s = t.component.(Graph.src g e) and d = t.component.(Graph.dst g e) in
      if s <> d then succs.(s) <- (e, d) :: succs.(s))
    (Graph.edges g);
  let color = Array.make k 0 in
  let cycle = ref None in
  let rec dfs path c =
    color.(c) <- 1;
    List.iter
      (fun (e, d) ->
        if !cycle = None then
          if color.(d) = 1 then begin
            let rec take acc = function
              | [] -> acc
              | (e', s') :: _ when s' = d -> (e', s') :: acc
              | x :: rest -> take (x :: acc) rest
            in
            cycle := Some (take [] ((e, c) :: path))
          end
          else if color.(d) = 0 then dfs ((e, c) :: path) d)
      succs.(c);
    if !cycle = None then color.(c) <- 2
  in
  let c = ref 0 in
  while !cycle = None && !c < k do
    if color.(!c) = 0 then dfs [] !c;
    incr c
  done;
  !cycle

let validate ?bound ?degree_bound t =
  let errs = ref [] in
  let add e = errs := e :: !errs in
  (if not (is_well_ordered t) then
     match component_cycle t with
     | Some steps ->
         let components = List.map snd steps in
         let witness =
           match steps with
           | (e, _) :: _ -> Graph.edge_name t.graph e
           | [] -> "?"
         in
         add (Ccs_sdf.Error.Not_well_ordered { components; witness })
     | None -> assert false);
  (match bound with
  | None -> ()
  | Some bound ->
      for c = 0 to t.num_components - 1 do
        let state = component_state t c in
        if state > bound then
          add
            (Ccs_sdf.Error.Component_overflow
               {
                 component = c;
                 state;
                 bound;
                 members = List.map (Graph.node_name t.graph) (members t c);
               })
      done);
  (match degree_bound with
  | None -> ()
  | Some bound ->
      for c = 0 to t.num_components - 1 do
        let degree = component_degree t c in
        if degree > bound then
          add (Ccs_sdf.Error.Degree_exceeded { component = c; degree; bound })
      done);
  List.rev !errs

let period_bandwidth t (analysis : Rates.analysis) =
  let total = ref 0 in
  for e = 0 to Graph.num_edges t.graph - 1 do
    if is_cross t e then total := !total + analysis.period_tokens.(e)
  done;
  !total

let bandwidth t analysis =
  Ccs_sdf.Rational.make (period_bandwidth t analysis) analysis.period_inputs

let equal a b = a.graph == b.graph && a.component = b.component

let pp fmt t =
  Format.fprintf fmt "@[<v>partition with %d components@," t.num_components;
  for c = 0 to t.num_components - 1 do
    Format.fprintf fmt "  C%d (state %d): %s@," c (component_state t c)
      (String.concat ", "
         (List.map (Graph.node_name t.graph) (members t c)))
  done;
  Format.fprintf fmt "@]"

let to_dot t =
  let g = t.graph in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n" (Graph.name g));
  for c = 0 to t.num_components - 1 do
    Buffer.add_string buf (Printf.sprintf "  subgraph cluster_%d {\n" c);
    Buffer.add_string buf
      (Printf.sprintf "    label=\"C%d (%d words)\";\n" c (component_state t c));
    List.iter
      (fun v ->
        Buffer.add_string buf
          (Printf.sprintf "    n%d [label=\"%s (%d)\"];\n" v
             (Graph.node_name g v) (Graph.state g v)))
      (members t c);
    Buffer.add_string buf "  }\n"
  done;
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%d/%d\"%s];\n" (Graph.src g e)
           (Graph.dst g e) (Graph.push g e) (Graph.pop g e)
           (if is_cross t e then ", style=bold" else "")))
    (Graph.edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
