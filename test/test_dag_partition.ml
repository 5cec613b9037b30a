(* Tests for DAG partitioning: interval chunking, local refinement, and the
   exact order-ideal search. *)

module G = Ccs.Graph
module R = Ccs.Rates
module S = Ccs.Spec
module D = Ccs.Dag_partition
module Q = Ccs.Rational

let q = Alcotest.testable (fun fmt x -> Q.pp fmt x) Q.equal

let test_interval_always_valid () =
  let g =
    Ccs.Generators.layered ~seed:3 ~layers:3 ~width:4
      ~state:(fun _ -> 5)
      ~edge_prob:0.4 ()
  in
  let order = G.topological_order g in
  let sp = D.interval g ~order ~bound:20 in
  Alcotest.(check bool) "well ordered" true (S.is_well_ordered sp);
  Alcotest.(check bool) "bounded" true (S.is_c_bounded sp ~bound:20)

let test_interval_rejects_bad_order () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:1 () in
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Dag.interval: order is not a permutation") (fun () ->
      ignore (D.interval g ~order:[| 0; 0; 1; 2 |] ~bound:10))

let test_interval_rejects_oversized () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:50 () in
  match D.interval g ~order:(G.topological_order g) ~bound:10 with
  | _ -> Alcotest.fail "oversized module must be rejected"
  | exception Invalid_argument _ -> ()

let test_greedy_valid_on_suite () =
  List.iter
    (fun entry ->
      let g = entry.Ccs_apps.Suite.graph () in
      let max_state =
        List.fold_left (fun acc v -> max acc (G.state g v)) 1 (G.nodes g)
      in
      let bound = max max_state (max 64 (G.total_state g / 4)) in
      let sp = D.greedy g ~bound in
      Alcotest.(check bool)
        (entry.Ccs_apps.Suite.name ^ " well ordered")
        true (S.is_well_ordered sp);
      Alcotest.(check bool)
        (entry.Ccs_apps.Suite.name ^ " bounded")
        true
        (S.is_c_bounded sp ~bound))
    Ccs_apps.Suite.all

let test_greedy_dfs_locality () =
  (* On a chain, DFS order = chain order, so greedy = contiguous segments
     with minimal cuts for the bound. *)
  let g = Ccs.Generators.uniform_pipeline ~n:8 ~state:10 () in
  let sp = D.greedy g ~bound:40 in
  Alcotest.(check int) "two components" 2 (S.num_components sp);
  Alcotest.(check int) "cross edges" 1 (List.length (S.cross_edges sp))

let test_refine_improves_or_ties () =
  for seed = 0 to 7 do
    let g =
      Ccs.Generators.layered ~seed ~layers:3 ~width:3
        ~state:(fun _ -> 4)
        ~edge_prob:0.5 ()
    in
    let a = R.analyze_exn g in
    let bound = 16 in
    let sp = D.greedy g ~bound in
    let sp' = D.refine g a ~bound sp in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d still well-ordered" seed)
      true (S.is_well_ordered sp');
    Alcotest.(check bool)
      (Printf.sprintf "seed %d still bounded" seed)
      true
      (S.is_c_bounded sp' ~bound);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d no worse" seed)
      true
      (Q.compare (S.bandwidth sp' a) (S.bandwidth sp a) <= 0)
  done

let test_exact_structure () =
  let g = Ccs.Generators.split_join ~branches:2 ~depth:2 ~state:4 () in
  let a = R.analyze_exn g in
  match D.exact g a ~bound:16 () with
  | None -> Alcotest.fail "small graph should be solvable"
  | Some sp ->
      Alcotest.(check bool) "well ordered" true (S.is_well_ordered sp);
      Alcotest.(check bool) "bounded" true (S.is_c_bounded sp ~bound:16)

let test_exact_whole_graph_when_fits () =
  let g = Ccs.Generators.uniform_pipeline ~n:5 ~state:2 () in
  let a = R.analyze_exn g in
  match D.exact g a ~bound:100 () with
  | Some sp ->
      Alcotest.(check int) "single component" 1 (S.num_components sp);
      Alcotest.check q "zero bandwidth" Q.zero (S.bandwidth sp a)
  | None -> Alcotest.fail "should solve"

let test_exact_matches_pipeline_dp () =
  (* On pipelines, the exact DAG search must agree with the pipeline DP's
     optimal bandwidth. *)
  for seed = 0 to 5 do
    let g =
      Ccs.Generators.random_pipeline ~seed ~n:10 ~max_state:8 ~max_rate:4 ()
    in
    let a = R.analyze_exn g in
    let bound = 24 in
    let dp = Ccs.Pipeline_partition.optimal_dp g a ~bound in
    match D.exact g a ~bound () with
    | None -> Alcotest.fail "exact should handle 10 nodes"
    | Some ex ->
        Alcotest.check q
          (Printf.sprintf "seed %d same optimum" seed)
          (S.bandwidth dp a) (S.bandwidth ex a)
  done

let test_exact_beats_greedy_sometimes () =
  (* The exact optimum is never worse than greedy+refine; record that it is
     strictly better at least once over the seeds (otherwise the exact
     search would be pointless). *)
  let strictly_better = ref false in
  for seed = 0 to 9 do
    let g =
      Ccs.Generators.layered ~seed ~layers:3 ~width:3
        ~state:(fun _ -> 4)
        ~edge_prob:0.5 ()
    in
    let a = R.analyze_exn g in
    let bound = 16 in
    let heuristic = D.refine g a ~bound (D.greedy g ~bound) in
    match D.exact g a ~bound () with
    | None -> Alcotest.fail "11-node graph within exact range"
    | Some ex ->
        let c = Q.compare (S.bandwidth ex a) (S.bandwidth heuristic a) in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d exact <= heuristic" seed)
          true (c <= 0);
        if c < 0 then strictly_better := true
  done;
  Alcotest.(check bool) "exact strictly better at least once" true
    !strictly_better

let test_exact_refuses_large () =
  let g = Ccs.Generators.uniform_pipeline ~n:30 ~state:1 () in
  let a = R.analyze_exn g in
  Alcotest.(check bool) "None for 30 nodes" true
    (D.exact g a ~bound:10 () = None)

let test_exact_infeasible_bound () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:50 () in
  let a = R.analyze_exn g in
  Alcotest.(check bool) "None when a module exceeds bound" true
    (D.exact g a ~bound:10 () = None)

let test_min_bandwidth () =
  let g = Ccs.Generators.uniform_pipeline ~n:6 ~state:10 () in
  let a = R.analyze_exn g in
  (* bound 20: components of at most 2 modules; chain of 6 needs >= 2 cuts;
     optimal is exactly 2 cuts of gain 1 each. *)
  match D.min_bandwidth g a ~bound:20 () with
  | Some bw -> Alcotest.check q "minBW" (Q.of_int 2) bw
  | None -> Alcotest.fail "should solve"

(* Auto.plan on large layered DAGs with a 1024-word cache.  Refinement
   used to rescan the whole graph for every candidate move, so 32x32 did
   not finish in minutes; a planner that turns quadratic again shows up
   here as a timeout rather than a wrong answer. *)
let test_plan_layered k ~components ~bandwidth () =
  let g =
    Ccs.Generators.layered ~seed:1 ~layers:k ~width:k
      ~state:(fun i -> 8 + (i * 37 mod 89))
      ~edge_prob:0.2 ()
  in
  let cfg = Ccs.Config.make ~cache_words:1024 ~block_words:16 () in
  let c = Ccs.Auto.plan g cfg in
  let report =
    Ccs.Check.plan ~cache:(Ccs.Config.cache_config cfg) ~spec:c.partition g
      c.plan
  in
  Alcotest.(check bool)
    (Format.asprintf "Check.plan: %a" Ccs.Check.pp report)
    true (Ccs.Check.is_ok report);
  Alcotest.(check int) "components" components (S.num_components c.partition);
  Alcotest.check q "bandwidth" (Q.of_int bandwidth)
    (S.bandwidth c.partition c.analysis)

let () =
  Alcotest.run "dag-partition"
    [
      ( "unit",
        [
          Alcotest.test_case "interval valid" `Quick test_interval_always_valid;
          Alcotest.test_case "interval bad order" `Quick
            test_interval_rejects_bad_order;
          Alcotest.test_case "interval oversized" `Quick
            test_interval_rejects_oversized;
          Alcotest.test_case "greedy on suite" `Quick test_greedy_valid_on_suite;
          Alcotest.test_case "greedy locality" `Quick test_greedy_dfs_locality;
          Alcotest.test_case "refine improves" `Quick
            test_refine_improves_or_ties;
          Alcotest.test_case "exact structure" `Quick test_exact_structure;
          Alcotest.test_case "exact whole graph" `Quick
            test_exact_whole_graph_when_fits;
          Alcotest.test_case "exact = pipeline dp" `Quick
            test_exact_matches_pipeline_dp;
          Alcotest.test_case "exact <= heuristic" `Quick
            test_exact_beats_greedy_sometimes;
          Alcotest.test_case "exact refuses large" `Quick
            test_exact_refuses_large;
          Alcotest.test_case "exact infeasible" `Quick
            test_exact_infeasible_bound;
          Alcotest.test_case "min bandwidth" `Quick test_min_bandwidth;
        ] );
      ( "scale",
        [
          Alcotest.test_case "plan layered 32x32" `Quick
            (test_plan_layered 32 ~components:1013 ~bandwidth:6410);
          Alcotest.test_case "plan layered 64x64" `Quick
            (test_plan_layered 64 ~components:4098 ~bandwidth:51934);
        ] );
    ]
