(* Unit tests for the SDF graph substrate. *)

module G = Ccs.Graph
module B = G.Builder

(* source -1/1-> a -2/3-> b -1/1-> sink *)
let sample () =
  let b = B.create ~name:"sample" () in
  let source = B.add_module b ~state:2 "source" in
  let a = B.add_module b ~state:10 "a" in
  let bb = B.add_module b ~state:20 "b" in
  let sink = B.add_module b ~state:2 "sink" in
  let e0 = B.add_channel b ~src:source ~dst:a ~push:1 ~pop:1 () in
  let e1 = B.add_channel b ~src:a ~dst:bb ~push:2 ~pop:3 () in
  let e2 = B.add_channel b ~src:bb ~dst:sink ~push:1 ~pop:1 () in
  (B.build b, source, a, bb, sink, e0, e1, e2)

let test_basic_accessors () =
  let g, source, a, bb, sink, e0, e1, e2 = sample () in
  Alcotest.(check int) "nodes" 4 (G.num_nodes g);
  Alcotest.(check int) "edges" 3 (G.num_edges g);
  Alcotest.(check string) "name" "sample" (G.name g);
  Alcotest.(check string) "node name" "a" (G.node_name g a);
  Alcotest.(check int) "node_of_name" bb (G.node_of_name g "b");
  Alcotest.(check int) "state a" 10 (G.state g a);
  Alcotest.(check int) "total state" 34 (G.total_state g);
  Alcotest.(check int) "src e1" a (G.src g e1);
  Alcotest.(check int) "dst e1" bb (G.dst g e1);
  Alcotest.(check int) "push e1" 2 (G.push g e1);
  Alcotest.(check int) "pop e1" 3 (G.pop g e1);
  Alcotest.(check int) "delay e1" 0 (G.delay g e1);
  Alcotest.(check (list int)) "out a" [ e1 ] (G.out_edges g a);
  Alcotest.(check (list int)) "in a" [ e0 ] (G.in_edges g a);
  Alcotest.(check int) "source" source (G.source g);
  Alcotest.(check int) "sink" sink (G.sink g);
  Alcotest.(check (list int)) "edges" [ e0; e1; e2 ] (G.edges g)

let test_node_of_name_missing () =
  let g, _, _, _, _, _, _, _ = sample () in
  Alcotest.check_raises "unknown module" Not_found (fun () ->
      ignore (G.node_of_name g "nope"))

let test_cycle_rejected () =
  let b = B.create () in
  let x = B.add_module b "x" in
  let y = B.add_module b "y" in
  ignore (B.add_channel b ~src:x ~dst:y ~push:1 ~pop:1 ());
  ignore (B.add_channel b ~src:y ~dst:x ~push:1 ~pop:1 ());
  match B.build b with
  | _ -> Alcotest.fail "cycle should be rejected"
  | exception G.Invalid_graph _ -> ()

let test_empty_rejected () =
  let b = B.create () in
  match B.build b with
  | _ -> Alcotest.fail "empty graph should be rejected"
  | exception G.Invalid_graph _ -> ()

let test_bad_rates_rejected () =
  let b = B.create () in
  let x = B.add_module b "x" in
  let y = B.add_module b "y" in
  (match B.add_channel b ~src:x ~dst:y ~push:0 ~pop:1 () with
  | _ -> Alcotest.fail "zero push should be rejected"
  | exception G.Invalid_graph _ -> ());
  match B.add_channel b ~src:x ~dst:y ~push:1 ~pop:(-1) () with
  | _ -> Alcotest.fail "negative pop should be rejected"
  | exception G.Invalid_graph _ -> ()

let test_negative_state_rejected () =
  let b = B.create () in
  match B.add_module b ~state:(-1) "x" with
  | _ -> Alcotest.fail "negative state should be rejected"
  | exception G.Invalid_graph _ -> ()

let test_topological_order () =
  let g, source, a, bb, sink, _, _, _ = sample () in
  Alcotest.(check (array int))
    "topo order" [| source; a; bb; sink |] (G.topological_order g);
  let rank = G.topo_rank g in
  Alcotest.(check int) "rank source" 0 rank.(source);
  Alcotest.(check int) "rank sink" 3 rank.(sink)

let test_precedes () =
  let g, source, a, bb, sink, _, _, _ = sample () in
  Alcotest.(check bool) "source ≺ sink" true
    (Sdf_oracle.precedes g source sink);
  Alcotest.(check bool) "a ≺ b" true (Sdf_oracle.precedes g a bb);
  Alcotest.(check bool) "reflexive" true (Sdf_oracle.precedes g a a);
  Alcotest.(check bool) "not b ≺ a" false (Sdf_oracle.precedes g bb a)

let test_precedes_diamond () =
  (* s -> {x, y} -> t: x and y are incomparable. *)
  let b = B.create () in
  let s = B.add_module b "s" in
  let x = B.add_module b "x" in
  let y = B.add_module b "y" in
  let t = B.add_module b "t" in
  List.iter
    (fun (u, v) -> ignore (B.add_channel b ~src:u ~dst:v ~push:1 ~pop:1 ()))
    [ (s, x); (s, y); (x, t); (y, t) ];
  let g = B.build b in
  Alcotest.(check bool) "x not ≺ y" false (Sdf_oracle.precedes g x y);
  Alcotest.(check bool) "y not ≺ x" false (Sdf_oracle.precedes g y x);
  Alcotest.(check bool) "s ≺ t" true (Sdf_oracle.precedes g s t)

let test_classification () =
  let g, _, _, _, _, _, _, _ = sample () in
  Alcotest.(check bool) "pipeline" true (G.is_pipeline g);
  Alcotest.(check bool) "not homogeneous" false (G.is_homogeneous g);
  Alcotest.(check bool) "connected" true (G.is_connected g);
  let h = Ccs.Generators.uniform_pipeline ~n:5 ~state:1 () in
  Alcotest.(check bool) "uniform pipeline homogeneous" true
    (G.is_homogeneous h);
  let d = Ccs.Generators.split_join ~branches:3 ~depth:1 ~state:1 () in
  Alcotest.(check bool) "diamond not pipeline" false (G.is_pipeline d)

let test_disconnected () =
  let b = B.create () in
  let _ = B.add_module b "x" in
  let _ = B.add_module b "y" in
  let g = B.build b in
  Alcotest.(check bool) "two isolated nodes" false (G.is_connected g)

let test_multigraph_edges () =
  (* Two parallel channels between the same pair are distinct. *)
  let b = B.create () in
  let x = B.add_module b "x" in
  let y = B.add_module b "y" in
  let e0 = B.add_channel b ~src:x ~dst:y ~push:1 ~pop:1 () in
  let e1 = B.add_channel b ~src:x ~dst:y ~push:2 ~pop:2 () in
  let g = B.build b in
  Alcotest.(check int) "two edges" 2 (G.num_edges g);
  Alcotest.(check (list int)) "both out of x" [ e0; e1 ] (G.out_edges g x);
  Alcotest.(check int) "distinct rates" 2 (G.push g e1)

let test_delay_recorded () =
  let b = B.create () in
  let x = B.add_module b "x" in
  let y = B.add_module b "y" in
  let e = B.add_channel b ~delay:5 ~src:x ~dst:y ~push:1 ~pop:1 () in
  let g = B.build b in
  Alcotest.(check int) "delay" 5 (G.delay g e)

let test_multi_source_sink () =
  let b = B.create () in
  let s1 = B.add_module b "s1" in
  let s2 = B.add_module b "s2" in
  let t = B.add_module b "t" in
  ignore (B.add_channel b ~src:s1 ~dst:t ~push:1 ~pop:1 ());
  ignore (B.add_channel b ~src:s2 ~dst:t ~push:1 ~pop:1 ());
  let g = B.build b in
  Alcotest.(check (list int)) "sources" [ s1; s2 ] (G.sources g);
  Alcotest.(check (list int)) "sinks" [ t ] (G.sinks g);
  Alcotest.check_raises "no unique source"
    (G.Invalid_graph "expected a unique source, found 2") (fun () ->
      ignore (G.source g))

(* Plans depend on the exact topological order, so pin it: adjacency lists
   in increasing edge order, and Kahn's algorithm with a FIFO over them. *)
let prop_canonical_order =
  QCheck2.Test.make ~name:"adjacency and topological order are canonical"
    ~count:300
    QCheck2.Gen.(
      pair (int_range 1 30)
        (list_size (int_range 0 80)
           (triple (int_range 0 29) (int_range 0 29) (int_range 1 3))))
    (fun (n, raw) ->
      let b = B.create () in
      for v = 0 to n - 1 do
        ignore (B.add_module b (Printf.sprintf "v%d" v))
      done;
      let chans =
        List.filter_map
          (fun (x, y, r) ->
            let s = min x y mod n and d = max x y mod n in
            if s < d then Some (s, d, r) else None)
          raw
      in
      List.iter
        (fun (src, dst, r) ->
          ignore (B.add_channel b ~src ~dst ~push:r ~pop:r ()))
        chans;
      let g = B.build b in
      let m = List.length chans in
      let with_end f v =
        List.filter (fun e -> f g e = v) (List.init m Fun.id)
      in
      let indeg = Array.init n (fun v -> List.length (with_end G.dst v)) in
      let queue = Queue.create () in
      Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
      let order = ref [] in
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        order := v :: !order;
        List.iter
          (fun e ->
            let w = G.dst g e in
            indeg.(w) <- indeg.(w) - 1;
            if indeg.(w) = 0 then Queue.add w queue)
          (with_end G.src v)
      done;
      List.for_all
        (fun v ->
          G.in_edges g v = with_end G.dst v
          && G.out_edges g v = with_end G.src v)
        (G.nodes g)
      && Array.to_list (G.topological_order g) = List.rev !order)

let () =
  Alcotest.run "graph"
    [
      ( "unit",
        [
          Alcotest.test_case "accessors" `Quick test_basic_accessors;
          Alcotest.test_case "node_of_name missing" `Quick
            test_node_of_name_missing;
          Alcotest.test_case "cycle rejected" `Quick test_cycle_rejected;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
          Alcotest.test_case "bad rates rejected" `Quick
            test_bad_rates_rejected;
          Alcotest.test_case "negative state rejected" `Quick
            test_negative_state_rejected;
          Alcotest.test_case "topological order" `Quick test_topological_order;
          Alcotest.test_case "precedes" `Quick test_precedes;
          Alcotest.test_case "precedes diamond" `Quick test_precedes_diamond;
          Alcotest.test_case "classification" `Quick test_classification;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "multigraph" `Quick test_multigraph_edges;
          Alcotest.test_case "delay" `Quick test_delay_recorded;
          Alcotest.test_case "multi source/sink" `Quick test_multi_source_sink;
          QCheck_alcotest.to_alcotest prop_canonical_order;
        ] );
    ]
