(* Tests for partition representation and the paper's Definition 2/3
   properties: well-orderedness, c-boundedness, bandwidth, degree. *)

module G = Ccs.Graph
module R = Ccs.Rates
module S = Ccs.Spec
module Q = Ccs.Rational

let q = Alcotest.testable (fun fmt x -> Q.pp fmt x) Q.equal

let chain6 () = Ccs.Generators.uniform_pipeline ~n:6 ~state:10 ()

let diamond4 () =
  let b = G.Builder.create () in
  let s = G.Builder.add_module b "s" in
  let x = G.Builder.add_module b "x" in
  let y = G.Builder.add_module b "y" in
  let t = G.Builder.add_module b "t" in
  List.iter
    (fun (u, v) ->
      ignore (G.Builder.add_channel b ~src:u ~dst:v ~push:1 ~pop:1 ()))
    [ (s, x); (s, y); (x, t); (y, t) ];
  (G.Builder.build b, s, x, y, t)

let test_of_assignment_normalizes () =
  let g = chain6 () in
  (* Sparse, unordered ids get renumbered densely along topo order. *)
  let sp = S.of_assignment g [| 7; 7; 3; 3; 9; 9 |] in
  Alcotest.(check int) "three components" 3 (S.num_components sp);
  Alcotest.(check int) "first is 0" 0 (S.component_of sp 0);
  Alcotest.(check int) "second is 1" 1 (S.component_of sp 2);
  Alcotest.(check int) "third is 2" 2 (S.component_of sp 4);
  Alcotest.(check (list int)) "members 1" [ 2; 3 ] (S.members sp 1)

let test_length_mismatch () =
  let g = chain6 () in
  Alcotest.check_raises "bad length"
    (Invalid_argument "Spec.of_assignment: assignment length mismatch")
    (fun () -> ignore (S.of_assignment g [| 0; 0 |]))

let test_singletons_whole () =
  let g = chain6 () in
  let s = Sdf_oracle.singletons g in
  Alcotest.(check int) "singletons" 6 (S.num_components s);
  Alcotest.(check int) "all edges cross" 5 (List.length (S.cross_edges s));
  let w = S.whole g in
  Alcotest.(check int) "whole" 1 (S.num_components w);
  Alcotest.(check int) "no cross edges" 0 (List.length (S.cross_edges w));
  Alcotest.(check int) "all internal" 5 (List.length (S.internal_edges w))

let test_component_state () =
  let g = chain6 () in
  let sp = S.of_assignment g [| 0; 0; 0; 1; 1; 1 |] in
  Alcotest.(check int) "state 0" 30 (S.component_state sp 0);
  Alcotest.(check int) "max" 30 (S.max_component_state sp);
  Alcotest.(check bool) "30-bounded" true
    (Sdf_oracle.is_c_bounded sp ~bound:30);
  Alcotest.(check bool) "not 29-bounded" false
    (Sdf_oracle.is_c_bounded sp ~bound:29)

let test_well_ordered_chain () =
  let g = chain6 () in
  (* Contiguous segments are well-ordered... *)
  Alcotest.(check bool) "segments ok" true
    (S.is_well_ordered (S.of_assignment g [| 0; 0; 1; 1; 2; 2 |]));
  (* ...but interleaved assignments create a 2-cycle between components. *)
  Alcotest.(check bool) "interleaved not ok" false
    (S.is_well_ordered (S.of_assignment g [| 0; 1; 0; 1; 2; 2 |]))

let test_well_ordered_diamond () =
  let g, s, x, y, t = diamond4 () in
  let assign pairs =
    let a = Array.make 4 0 in
    List.iter (fun (v, c) -> a.(v) <- c) pairs;
    S.of_assignment g a
  in
  (* x and y in different components: parallel components, still a DAG. *)
  Alcotest.(check bool) "parallel branches ok" true
    (S.is_well_ordered
       (assign [ (s, 0); (x, 1); (y, 2); (t, 3) ]));
  (* {s,t} together vs {x}: cycle s->x->t=s. *)
  Alcotest.(check bool) "endpoints together not ok" false
    (S.is_well_ordered (assign [ (s, 0); (t, 0); (x, 1); (y, 1) ]))

let test_bandwidth_homogeneous () =
  let g = chain6 () in
  let a = R.analyze_exn g in
  let sp = S.of_assignment g [| 0; 0; 1; 1; 2; 2 |] in
  (* Homogeneous: bandwidth = number of cross edges. *)
  Alcotest.check q "bandwidth 2" (Q.of_int 2) (S.bandwidth sp a)

let test_bandwidth_with_gains () =
  (* src -2/1-> a -1/1-> sink: cutting after src costs gain 2; cutting
     after a costs gain 2 as well (edge gain = gain(a)*push = 2*1). *)
  let g =
    Ccs.Generators.pipeline ~n:3
      ~state:(fun _ -> 1)
      ~rates:(fun i -> [| (2, 1); (1, 1) |].(i))
      ()
  in
  let a = R.analyze_exn g in
  let cut_first = S.of_assignment g [| 0; 1; 1 |] in
  Alcotest.check q "cut after src" (Q.of_int 2) (S.bandwidth cut_first a);
  let cut_second = S.of_assignment g [| 0; 0; 1 |] in
  Alcotest.check q "cut after a" (Q.of_int 2) (S.bandwidth cut_second a)

let test_fractional_bandwidth () =
  (* src -1/4-> a: edge gain 1... cutting it costs 1; but a -1/1-> sink
     edge has gain 1/4. *)
  let g =
    Ccs.Generators.pipeline ~n:3
      ~state:(fun _ -> 1)
      ~rates:(fun i -> [| (1, 4); (1, 1) |].(i))
      ()
  in
  let a = R.analyze_exn g in
  let cut_late = S.of_assignment g [| 0; 0; 1 |] in
  Alcotest.check q "late cut costs 1/4" (Q.make 1 4)
    (S.bandwidth cut_late a)

let test_component_degree () =
  let g, s, x, y, t = diamond4 () in
  let a = Array.make 4 0 in
  a.(s) <- 0;
  a.(x) <- 1;
  a.(y) <- 1;
  a.(t) <- 2;
  let sp = S.of_assignment g a in
  Alcotest.(check int) "degree of {s}" 2 (S.component_degree sp 0);
  Alcotest.(check int) "degree of {x,y}" 4 (S.component_degree sp 1);
  Alcotest.(check int) "max degree" 4 (S.max_component_degree sp);
  Alcotest.(check bool) "degree limited at 4" true
    (S.is_degree_limited sp ~bound:4);
  Alcotest.(check bool) "not at 3" false (S.is_degree_limited sp ~bound:3)

let test_component_topo_order () =
  let g = chain6 () in
  let sp = S.of_assignment g [| 0; 0; 1; 1; 2; 2 |] in
  Alcotest.(check (array int)) "topo order" [| 0; 1; 2 |]
    (S.component_topo_order sp);
  let bad = S.of_assignment g [| 0; 1; 0; 1; 2; 2 |] in
  Alcotest.check_raises "not well-ordered"
    (Invalid_argument "Spec.component_topo_order: partition not well-ordered")
    (fun () -> ignore (S.component_topo_order bad))

let test_is_cross () =
  let g = chain6 () in
  let sp = S.of_assignment g [| 0; 0; 0; 1; 1; 1 |] in
  Alcotest.(check bool) "edge 2 crosses" true (S.is_cross sp 2);
  Alcotest.(check bool) "edge 0 internal" false (S.is_cross sp 0)

let test_equal () =
  let g = chain6 () in
  let a = S.of_assignment g [| 0; 0; 1; 1; 2; 2 |] in
  let b = S.of_assignment g [| 5; 5; 9; 9; 1; 1 |] in
  (* Same partition, different raw labels: normalization makes them equal. *)
  Alcotest.(check bool) "normalized equal" true (S.equal a b);
  let c = S.of_assignment g [| 0; 0; 0; 1; 2; 2 |] in
  Alcotest.(check bool) "different partition" false (S.equal a c)

let () =
  Alcotest.run "spec"
    [
      ( "unit",
        [
          Alcotest.test_case "normalization" `Quick
            test_of_assignment_normalizes;
          Alcotest.test_case "length mismatch" `Quick test_length_mismatch;
          Alcotest.test_case "singletons/whole" `Quick test_singletons_whole;
          Alcotest.test_case "component state" `Quick test_component_state;
          Alcotest.test_case "well-ordered chain" `Quick
            test_well_ordered_chain;
          Alcotest.test_case "well-ordered diamond" `Quick
            test_well_ordered_diamond;
          Alcotest.test_case "bandwidth homogeneous" `Quick
            test_bandwidth_homogeneous;
          Alcotest.test_case "bandwidth with gains" `Quick
            test_bandwidth_with_gains;
          Alcotest.test_case "fractional bandwidth" `Quick
            test_fractional_bandwidth;
          Alcotest.test_case "component degree" `Quick test_component_degree;
          Alcotest.test_case "component topo order" `Quick
            test_component_topo_order;
          Alcotest.test_case "is_cross" `Quick test_is_cross;
          Alcotest.test_case "equal" `Quick test_equal;
        ] );
    ]
