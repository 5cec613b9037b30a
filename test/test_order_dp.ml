(* Tests for the order-DP DAG partitioner, its degree cap, pinned modules,
   and the multi-order `best` wrapper; plus the dynamic DAG scheduler that
   consumes its partitions. *)

module G = Ccs.Graph
module R = Ccs.Rates
module Sp = Ccs.Spec
module D = Ccs.Dag_partition
module Q = Ccs.Rational

let q = Alcotest.testable (fun fmt x -> Q.pp fmt x) Q.equal

let test_order_dp_optimal_on_chain () =
  (* On a pipeline with the natural order, order_dp must equal the
     pipeline DP exactly. *)
  for seed = 0 to 7 do
    let g =
      Ccs.Generators.random_pipeline ~seed ~n:14 ~max_state:8 ~max_rate:4 ()
    in
    let a = R.analyze_exn g in
    let bound = 24 in
    let dp = Ccs.Pipeline_partition.optimal_dp g a ~bound in
    let odp = D.order_dp g a ~order:(G.topological_order g) ~bound () in
    Alcotest.check q
      (Printf.sprintf "seed %d same bandwidth" seed)
      (Sp.bandwidth dp a) (Sp.bandwidth odp a)
  done

let test_order_dp_beats_first_fit () =
  (* The DP can never be worse than first-fit interval chunking of the
     same order. *)
  for seed = 0 to 7 do
    let g =
      Ccs.Generators.layered ~seed ~layers:4 ~width:4
        ~state:(fun k -> 2 + (k mod 5))
        ~edge_prob:0.35 ()
    in
    let a = R.analyze_exn g in
    let order = G.topological_order g in
    let bound = max 12 (G.total_state g / 4) in
    let ff = D.interval g ~order ~bound in
    let dp = D.order_dp g a ~order ~bound () in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d dp <= first-fit" seed)
      true
      (Q.compare (Sp.bandwidth dp a) (Sp.bandwidth ff a) <= 0)
  done

let test_order_dp_validates_order () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:2 () in
  let a = R.analyze_exn g in
  (* Reversed order is not topological. *)
  match D.order_dp g a ~order:[| 3; 2; 1; 0 |] ~bound:10 () with
  | _ -> Alcotest.fail "non-topological order must be rejected"
  | exception Invalid_argument _ -> ()

let test_order_dp_degree_cap () =
  let g = Ccs.Generators.split_join ~branches:6 ~depth:2 ~state:4 () in
  let a = R.analyze_exn g in
  let sp = D.order_dp g a ~order:(G.topological_order g) ~bound:24 ~max_degree:6 () in
  for c = 0 to Sp.num_components sp - 1 do
    let single = List.compare_length_with (Sp.members sp c) 1 = 0 in
    Alcotest.(check bool)
      (Printf.sprintf "component %d capped or singleton" c)
      true
      (single || Sp.component_degree sp c <= 6)
  done

let test_order_dp_pinned () =
  let g = Ccs.Generators.uniform_pipeline ~n:8 ~state:4 () in
  let a = R.analyze_exn g in
  let pinned v = v = 3 in
  let sp =
    D.order_dp g a ~order:(G.topological_order g) ~bound:100 ~pinned ()
  in
  let c = Sp.component_of sp 3 in
  Alcotest.(check (list int)) "pinned module isolated" [ 3 ] (Sp.members sp c);
  Alcotest.(check bool) "still well ordered" true (Sp.is_well_ordered sp)

let test_order_dp_pinned_multiple () =
  let g = Ccs_apps.Mp3.graph ~bands:8 () in
  let a = R.analyze_exn g in
  let huff = G.node_of_name g "huffman-decode" in
  let window = G.node_of_name g "polyphase-window" in
  let pinned v = v = huff || v = window in
  let sp =
    D.best g a ~bound:(max 600 (G.total_state g / 2)) ~pinned ()
  in
  List.iter
    (fun v ->
      Alcotest.(check (list int))
        (G.node_name g v ^ " isolated")
        [ v ]
        (Sp.members sp (Sp.component_of sp v)))
    [ huff; window ]

let test_best_never_worse_than_greedy () =
  for seed = 0 to 9 do
    let g =
      Ccs.Generators.layered ~seed ~layers:4 ~width:4
        ~state:(fun k -> 2 + (k mod 5))
        ~edge_prob:0.35 ()
    in
    let a = R.analyze_exn g in
    let bound = max 12 (G.total_state g / 4) in
    let gr = D.greedy g ~bound in
    let bs = D.best g a ~bound () in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d best <= greedy" seed)
      true
      (Q.compare (Sp.bandwidth bs a) (Sp.bandwidth gr a) <= 0);
    Alcotest.(check bool) "well ordered" true (Sp.is_well_ordered bs);
    Alcotest.(check bool) "bounded" true (Sdf_oracle.is_c_bounded bs ~bound)
  done

let test_candidate_orders_topological () =
  let g = Ccs_apps.Beamformer.graph ~channels:2 ~beams:2 ~taps:4 () in
  let a = R.analyze_exn g in
  List.iter
    (fun order ->
      let pos = Array.make (G.num_nodes g) (-1) in
      Array.iteri (fun i v -> pos.(v) <- i) order;
      List.iter
        (fun e ->
          Alcotest.(check bool) "edge respects order" true
            (pos.(G.src g e) < pos.(G.dst g e)))
        (G.edges g))
    (D.candidate_orders g a)

(* --- dynamic DAG scheduler ------------------------------------------------ *)

let test_dag_dynamic_runs () =
  let g = Ccs.Generators.split_join ~branches:4 ~depth:4 ~state:32 () in
  let a = R.analyze_exn g in
  let m = 256 in
  let spec = D.best g a ~bound:(m / 2) ~max_degree:(m / 64) () in
  let plan = Ccs.Partitioned.dag_dynamic g a spec ~m_tokens:m in
  let r, machine =
    Must.ok
      (Ccs.Runner.run ~graph:g
         ~cache:(Ccs.Cache.config ~size_words:m ~block_words:16 ())
         ~plan ~outputs:1000 ())
  in
  Alcotest.(check bool) "reached target" true (r.Ccs.Runner.outputs >= 1000);
  List.iter
    (fun e ->
      Alcotest.(check int)
        (Printf.sprintf "edge %d conserved" e)
        (Ccs.Machine.produced machine e - Ccs.Machine.consumed machine e)
        (Ccs.Machine.tokens machine e))
    (G.edges g)

let test_dag_dynamic_matches_static_cost () =
  (* The dynamic rule executes the same component-batches as the static
     schedule, so costs should be close. *)
  let g = Ccs.Generators.split_join ~branches:4 ~depth:4 ~state:48 () in
  let a = R.analyze_exn g in
  let m = 256 in
  let cache = Ccs.Cache.config ~size_words:m ~block_words:16 () in
  let spec = D.best g a ~bound:(m / 2) ~max_degree:4 () in
  let run plan =
    let r, _ =
      Must.ok (Ccs.Runner.run ~graph:g ~cache ~plan ~outputs:2000 ())
    in
    r.Ccs.Runner.misses_per_input
  in
  let dyn = run (Ccs.Partitioned.dag_dynamic g a spec ~m_tokens:m) in
  let stat = run (Ccs.Partitioned.homogeneous g a spec ~m_tokens:m) in
  Alcotest.(check bool)
    (Printf.sprintf "dynamic %.3f within 2x of static %.3f" dyn stat)
    true
    (dyn <= 2. *. stat +. 0.1)

let test_dag_dynamic_rejects_multirate () =
  let g = Ccs_apps.Filterbank.graph ~bands:2 ~taps:4 () in
  let a = R.analyze_exn g in
  match Ccs.Partitioned.dag_dynamic g a (Sp.whole g) ~m_tokens:64 with
  | _ -> Alcotest.fail "multirate must be rejected"
  | exception Invalid_argument _ -> ()

let test_dag_dynamic_rejects_delays () =
  let b = G.Builder.create () in
  let x = G.Builder.add_module b "x" in
  let y = G.Builder.add_module b "y" in
  ignore (G.Builder.add_channel b ~delay:1 ~src:x ~dst:y ~push:1 ~pop:1 ());
  let g = G.Builder.build b in
  let a = R.analyze_exn g in
  match Ccs.Partitioned.dag_dynamic g a (Sp.whole g) ~m_tokens:16 with
  | _ -> Alcotest.fail "delays must be rejected"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "order-dp"
    [
      ( "order_dp",
        [
          Alcotest.test_case "optimal on chains" `Quick
            test_order_dp_optimal_on_chain;
          Alcotest.test_case "beats first-fit" `Quick
            test_order_dp_beats_first_fit;
          Alcotest.test_case "validates order" `Quick
            test_order_dp_validates_order;
          Alcotest.test_case "degree cap" `Quick test_order_dp_degree_cap;
          Alcotest.test_case "pinned" `Quick test_order_dp_pinned;
          Alcotest.test_case "pinned via best" `Quick
            test_order_dp_pinned_multiple;
          Alcotest.test_case "best <= greedy" `Quick
            test_best_never_worse_than_greedy;
          Alcotest.test_case "candidate orders topological" `Quick
            test_candidate_orders_topological;
        ] );
      ( "dag_dynamic",
        [
          Alcotest.test_case "runs and conserves" `Quick test_dag_dynamic_runs;
          Alcotest.test_case "matches static" `Quick
            test_dag_dynamic_matches_static_cost;
          Alcotest.test_case "rejects multirate" `Quick
            test_dag_dynamic_rejects_multirate;
          Alcotest.test_case "rejects delays" `Quick
            test_dag_dynamic_rejects_delays;
        ] );
    ]
