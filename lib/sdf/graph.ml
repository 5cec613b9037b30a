type node = int
type edge = int

exception Invalid_graph of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid_graph s)) fmt

type t = {
  name : string;
  node_names : string array;
  state : int array;
  edge_src : node array;
  edge_dst : node array;
  push : int array;
  pop : int array;
  delay : int array;
  in_edges : edge list array;
  out_edges : edge list array;
  topo : node array;
  rank : int array;
}

module Builder = struct
  type b = {
    bname : string;
    mutable names : string list;
    mutable states : int list;
    mutable nnodes : int;
    mutable chans : (node * node * int * int * int) list; (* src,dst,push,pop,delay *)
    mutable nedges : int;
  }

  type t = b

  let create ?(name = "graph") () =
    { bname = name; names = []; states = []; nnodes = 0; chans = []; nedges = 0 }

  let add_module b ?(state = 1) name =
    if state < 0 then invalid "module %s: negative state size %d" name state;
    let id = b.nnodes in
    b.names <- name :: b.names;
    b.states <- state :: b.states;
    b.nnodes <- id + 1;
    id

  let add_channel b ?(delay = 0) ~src ~dst ~push ~pop () =
    if push <= 0 || pop <= 0 then
      invalid "channel %d->%d: rates must be positive (push=%d pop=%d)" src dst
        push pop;
    if delay < 0 then invalid "channel %d->%d: negative delay" src dst;
    let id = b.nedges in
    b.chans <- (src, dst, push, pop, delay) :: b.chans;
    b.nedges <- id + 1;
    id

  (* Channels in insertion order: (src, dst, push, pop, delay). *)
  let channels b = Array.of_list (List.rev b.chans)

  (* Kahn's algorithm; [None] if a cycle remains. *)
  let topo_sort n in_edges out_edges edge_dst =
    let indeg = Array.make n 0 in
    for v = 0 to n - 1 do
      indeg.(v) <- List.length in_edges.(v)
    done;
    let queue = Queue.create () in
    for v = 0 to n - 1 do
      if indeg.(v) = 0 then Queue.add v queue
    done;
    let order = Array.make n (-1) in
    let count = ref 0 in
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      order.(!count) <- v;
      incr count;
      let relax e =
        let w = edge_dst.(e) in
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue
      in
      List.iter relax out_edges.(v)
    done;
    if !count <> n then None else Some order

  (* Find a directed cycle (as an edge list) among edges with in-range
     endpoints; used only after topo_sort failed, so one exists. *)
  let find_cycle n chans =
    let out = Array.make n [] in
    Array.iteri
      (fun e (s, d, _, _, _) ->
        if s >= 0 && s < n && d >= 0 && d < n then out.(s) <- (e, d) :: out.(s))
      chans;
    let color = Array.make n 0 in
    (* 0 white, 1 on stack, 2 done *)
    let cycle = ref None in
    let rec dfs path v =
      color.(v) <- 1;
      List.iter
        (fun (e, w) ->
          if !cycle = None then
            if color.(w) = 1 then begin
              (* Unwind [path] (edges, most recent first) back to [w]. *)
              let rec take acc = function
                | [] -> acc
                | (e', s') :: _ when s' = w -> e' :: acc
                | (e', _) :: rest -> take (e' :: acc) rest
              in
              cycle := Some (take [] ((e, v) :: path))
            end
            else if color.(w) = 0 then dfs ((e, v) :: path) w)
        out.(v);
      if !cycle = None then color.(v) <- 2
    in
    let v = ref 0 in
    while !cycle = None && !v < n do
      if color.(!v) = 0 then dfs [] !v;
      incr v
    done;
    !cycle

  (* Every defect of the builder's contents and, when there is none, the
     graph: validation and construction share the channel arrays, the
     adjacency lists and the topological sort. *)
  let analyse b =
    let n = b.nnodes in
    let names = Array.of_list (List.rev b.names) in
    let states = Array.of_list (List.rev b.states) in
    let chans = channels b in
    let errs = ref [] in
    let add e = errs := e :: !errs in
    if n = 0 then add Error.Empty_graph;
    Array.iteri
      (fun v st -> if st < 0 then add (Error.Negative_state { node = names.(v); state = st }))
      states;
    let dangling = ref false in
    Array.iteri
      (fun e (s, d, pu, po, de) ->
        let name v = if v >= 0 && v < n then names.(v) else string_of_int v in
        if s < 0 || s >= n then begin
          dangling := true;
          add (Error.Dangling_edge { edge = e; endpoint = s; num_nodes = n })
        end;
        if d < 0 || d >= n then begin
          dangling := true;
          add (Error.Dangling_edge { edge = e; endpoint = d; num_nodes = n })
        end;
        if s = d && s >= 0 && s < n then
          add (Error.Degenerate_edge { edge = e; node = names.(s) });
        if pu <= 0 || po <= 0 then
          add
            (Error.Nonpositive_rate
               { edge = e; src = name s; dst = name d; push = pu; pop = po });
        if de < 0 then
          add
            (Error.Negative_delay
               { edge = e; src = name s; dst = name d; delay = de }))
      chans;
    let graph = ref None in
    (* Cycle analysis only when every endpoint resolves (self-loops are
       already reported as degenerate edges, so skip them here). *)
    if (not !dangling) && n > 0 then begin
      let acyclic_chans =
        if Array.exists (fun (s, d, _, _, _) -> s = d) chans then
          Array.of_list
            (List.filter (fun (s, d, _, _, _) -> s <> d) (Array.to_list chans))
        else chans
      in
      let m = Array.length acyclic_chans in
      let edge_src = Array.map (fun (s, _, _, _, _) -> s) acyclic_chans in
      let edge_dst = Array.map (fun (_, d, _, _, _) -> d) acyclic_chans in
      (* Adjacency lists in increasing edge order. *)
      let out_edges = Array.make n [] and in_edges = Array.make n [] in
      for e = m - 1 downto 0 do
        out_edges.(edge_src.(e)) <- e :: out_edges.(edge_src.(e));
        in_edges.(edge_dst.(e)) <- e :: in_edges.(edge_dst.(e))
      done;
      match topo_sort n in_edges out_edges edge_dst with
      | Some topo ->
          if !errs = [] then begin
            let rank = Array.make n 0 in
            Array.iteri (fun i v -> rank.(v) <- i) topo;
            graph :=
              Some
                {
                  name = b.bname;
                  node_names = names;
                  state = states;
                  edge_src;
                  edge_dst;
                  push = Array.map (fun (_, _, pu, _, _) -> pu) chans;
                  pop = Array.map (fun (_, _, _, po, _) -> po) chans;
                  delay = Array.map (fun (_, _, _, _, de) -> de) chans;
                  in_edges;
                  out_edges;
                  topo;
                  rank;
                }
          end
      | None -> (
          match find_cycle n acyclic_chans with
          | None -> ()
          | Some edges ->
              let cycle =
                List.map
                  (fun e ->
                    let s, _, _, _, _ = acyclic_chans.(e) in
                    names.(s))
                  edges
              in
              let total_delay =
                List.fold_left
                  (fun acc e ->
                    let _, _, _, _, de = acyclic_chans.(e) in
                    acc + de)
                  0 edges
              in
              add (Error.Deadlock_cycle { cycle; total_delay }))
    end;
    (List.rev !errs, !graph)

  let check b = fst (analyse b)

  let build_result b =
    match analyse b with
    | [], Some g -> Ok g
    | errs, _ -> Result.error errs

  let build b =
    match build_result b with
    | Ok g -> g
    | Error (e :: _) -> invalid "%s" (Error.to_string e)
    | Error [] -> assert false
end

let name g = g.name
let num_nodes g = Array.length g.state
let num_edges g = Array.length g.push

let check_node g v =
  if v < 0 || v >= num_nodes g then invalid "node %d out of range" v

let check_edge g e =
  if e < 0 || e >= num_edges g then invalid "edge %d out of range" e

let node_name g v = check_node g v; g.node_names.(v)

let node_of_name g s =
  let n = num_nodes g in
  let rec find i =
    if i >= n then raise Not_found
    else if String.equal g.node_names.(i) s then i
    else find (i + 1)
  in
  find 0

let edge_name g e =
  check_edge g e;
  Printf.sprintf "%s->%s#%d"
    g.node_names.(g.edge_src.(e))
    g.node_names.(g.edge_dst.(e))
    e

let state g v = check_node g v; g.state.(v)
let total_state g = Array.fold_left ( + ) 0 g.state
let in_edges g v = check_node g v; g.in_edges.(v)
let out_edges g v = check_node g v; g.out_edges.(v)
let src g e = check_edge g e; g.edge_src.(e)
let dst g e = check_edge g e; g.edge_dst.(e)
let push g e = check_edge g e; g.push.(e)
let pop g e = check_edge g e; g.pop.(e)
let delay g e = check_edge g e; g.delay.(e)
let nodes g = List.init (num_nodes g) Fun.id
let edges g = List.init (num_edges g) Fun.id
let sources g = List.filter (fun v -> g.in_edges.(v) = []) (nodes g)
let sinks g = List.filter (fun v -> g.out_edges.(v) = []) (nodes g)

let source g =
  match sources g with
  | [ s ] -> s
  | l -> invalid "expected a unique source, found %d" (List.length l)

let sink g =
  match sinks g with
  | [ t ] -> t
  | l -> invalid "expected a unique sink, found %d" (List.length l)

let topological_order g = Array.copy g.topo
let topo_rank g = Array.copy g.rank

let is_pipeline g =
  let n = num_nodes g in
  num_edges g = n - 1
  && List.for_all
       (fun v ->
         List.length g.in_edges.(v) <= 1 && List.length g.out_edges.(v) <= 1)
       (nodes g)
  && List.length (sources g) = 1
  && List.length (sinks g) = 1

let is_homogeneous g =
  let ok = ref true in
  Array.iteri (fun e pu -> if pu <> 1 || g.pop.(e) <> 1 then ok := false) g.push;
  !ok

let is_connected g =
  let n = num_nodes g in
  if n = 0 then true
  else begin
    let seen = Array.make n false in
    let stack = Stack.create () in
    Stack.push 0 stack;
    seen.(0) <- true;
    let count = ref 1 in
    while not (Stack.is_empty stack) do
      let v = Stack.pop stack in
      let visit w =
        if not seen.(w) then begin
          seen.(w) <- true;
          incr count;
          Stack.push w stack
        end
      in
      List.iter (fun e -> visit g.edge_dst.(e)) g.out_edges.(v);
      List.iter (fun e -> visit g.edge_src.(e)) g.in_edges.(v)
    done;
    !count = n
  end

let pp fmt g =
  Format.fprintf fmt "@[<v>graph %s (%d modules, %d channels)@," g.name
    (num_nodes g) (num_edges g);
  List.iter
    (fun v ->
      Format.fprintf fmt "  module %d %s state=%d@," v g.node_names.(v)
        g.state.(v))
    (nodes g);
  List.iter
    (fun e ->
      Format.fprintf fmt "  channel %d: %s -%d/%d-> %s delay=%d@," e
        g.node_names.(g.edge_src.(e))
        g.push.(e) g.pop.(e)
        g.node_names.(g.edge_dst.(e))
        g.delay.(e))
    (edges g);
  Format.fprintf fmt "@]"
