(* End-to-end integration tests: the paper's quantitative claims exercised
   on the simulated machine, at small scale so they run in CI time. *)

module G = Ccs.Graph
module R = Ccs.Rates
module Sp = Ccs.Spec

let run_plan g cache plan outputs =
  let r, m = Must.ok (Ccs.Runner.run ~graph:g ~cache ~plan ~outputs ()) in
  (r.Ccs.Runner.misses_per_input, r, m)

(* Claim (Lemma 4): the partitioned pipeline schedule's misses/input track
   (2*bandwidth + state/T)/B within a small constant. *)
let test_lemma4_prediction_tracks_measurement () =
  List.iter
    (fun (n, state, m) ->
      let g = Ccs.Generators.uniform_pipeline ~n ~state () in
      let a = R.analyze_exn g in
      let b = 16 in
      let spec = Ccs.Pipeline_partition.optimal_dp g a ~bound:(m / 2) in
      let plan = Ccs.Partitioned.batch g a spec ~t:m in
      let measured, _, _ =
        run_plan g
          (Ccs.Cache.config ~size_words:m ~block_words:b ())
          plan (10 * m)
      in
      let predicted = Ccs.Analysis.partition_cost_prediction spec a ~b ~t:m in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d state=%d M=%d: %.3f vs %.3f" n state m measured
           predicted)
        true
        (measured <= 2.5 *. predicted))
    [ (16, 64, 256); (32, 64, 512); (24, 128, 1024) ]

(* Claim (Theorem 5 / Corollary 6): greedy partitioning is within a small
   constant of the DP optimum in *measured* misses, not just bandwidth. *)
let test_greedy_competitive_with_dp () =
  let g = Ccs.Generators.random_pipeline ~seed:11 ~n:24 ~max_state:48 ~max_rate:3 () in
  let a = R.analyze_exn g in
  let m = 256 and b = 16 in
  let cache = Ccs.Cache.config ~size_words:m ~block_words:b () in
  let run spec =
    let plan = Ccs.Partitioned.batch g a spec ~t:(R.granularity g a ~at_least:m) in
    let mpi, _, _ = run_plan g cache plan 2000 in
    mpi
  in
  let max_state =
    List.fold_left (fun acc v -> max acc (G.state g v)) 1 (G.nodes g)
  in
  let greedy = Ccs.Pipeline_partition.greedy g a ~m:(max (m / 8) max_state) in
  let dp =
    Ccs.Pipeline_partition.optimal_dp g a
      ~bound:(max (m / 2) (Sp.max_component_state greedy))
  in
  let mg = run greedy and md = run dp in
  Alcotest.(check bool)
    (Printf.sprintf "greedy %.3f within 4x of dp %.3f" mg md)
    true (mg <= 4. *. md +. 0.5)

(* Claim (Theorem 7): no schedule beats the DAG lower bound. *)
let test_dag_lower_bound_respected () =
  let g =
    Ccs.Generators.layered ~seed:3 ~layers:3 ~width:3
      ~state:(fun _ -> 24)
      ~edge_prob:0.4 ()
  in
  let a = R.analyze_exn g in
  let m = 64 and b = 8 in
  let lb =
    match Ccs.Analysis.dag_lower_bound g a ~m ~b () with
    | Some lb -> lb
    | None -> Alcotest.fail "graph small enough for exact"
  in
  Alcotest.(check bool) "lb positive" true (lb > 0.);
  let cache = Ccs.Cache.config ~size_words:m ~block_words:b () in
  let cfg = Ccs.Config.make ~cache_words:m ~block_words:b () in
  List.iter
    (fun plan ->
      let mpi, r, _ = run_plan g cache plan 500 in
      ignore r;
      Alcotest.(check bool)
        (Printf.sprintf "%s %.3f >= lb %.3f" plan.Ccs.Plan.name mpi lb)
        true (mpi >= lb))
    (Ccs.Compare.standard_plans g a cfg)

(* Claim (Lemma 8): homogeneous DAG partitioned schedule beats baselines by
   a growing factor once state exceeds cache. *)
let test_lemma8_dag_win () =
  let g = Ccs.Generators.split_join ~branches:4 ~depth:4 ~state:48 () in
  let a = R.analyze_exn g in
  let m = 256 and b = 16 in
  let cache = Ccs.Cache.config ~size_words:m ~block_words:b () in
  let spec = Ccs.Dag_partition.greedy g ~bound:(m / 2) in
  Alcotest.(check bool) "well-ordered" true (Sp.is_well_ordered spec);
  let part = Ccs.Partitioned.homogeneous g a spec ~m_tokens:m in
  let mp, _, _ = run_plan g cache part 2000 in
  let mb, _, _ = run_plan g cache (Ccs.Baseline.round_robin g a) 2000 in
  Alcotest.(check bool)
    (Printf.sprintf "partitioned %.2f beats naive %.2f 5x" mp mb)
    true (mp *. 5. < mb)

(* Crossover: when the whole graph fits, Auto matches minimal-memory. *)
let test_crossover () =
  let cfg = Ccs.Config.make ~cache_words:4096 ~block_words:16 () in
  let g = Ccs.Generators.uniform_pipeline ~n:16 ~state:64 () in
  (* 1024 words of state: fits easily. *)
  let choice = Ccs.Auto.plan g cfg in
  Alcotest.(check int) "whole graph" 1 (Sp.num_components choice.Ccs.Auto.partition);
  let a = choice.Ccs.Auto.analysis in
  let cache = Ccs.Config.cache_config cfg in
  let mp, _, _ = run_plan g cache choice.Ccs.Auto.plan 2000 in
  let mm, _, _ = run_plan g cache (Ccs.Baseline.minimal_memory g a) 2000 in
  Alcotest.(check bool)
    (Printf.sprintf "auto %.4f within noise of minimal %.4f" mp mm)
    true
    (mp <= mm +. 0.05)

(* LRU vs OPT calibration: on a partitioned schedule's trace, LRU at 2M is
   within a small factor of OPT at M (Sleator–Tarjan in practice). *)
let test_lru_opt_calibration () =
  let g = Ccs.Generators.uniform_pipeline ~n:12 ~state:32 () in
  let a = R.analyze_exn g in
  let m = 128 and b = 8 in
  let spec = Ccs.Pipeline_partition.optimal_dp g a ~bound:(m / 2) in
  let plan = Ccs.Partitioned.batch g a spec ~t:m in
  let machine =
    Ccs.Machine.create ~record_trace:true ~graph:g
      ~cache:(Ccs.Cache.config ~size_words:(2 * m) ~block_words:b ())
      ~capacities:plan.Ccs.Plan.capacities ()
  in
  plan.Ccs.Plan.drive machine ~target_outputs:1000;
  let lru_2m = Ccs.Machine.misses machine in
  let trace = Ccs.Machine.trace machine in
  let block_trace = Ccs.Cache.Opt.block_trace ~block_words:b trace in
  let opt_m = Ccs.Cache.Opt.misses ~block_capacity:(m / b) block_trace in
  Alcotest.(check bool)
    (Printf.sprintf "LRU(2M)=%d <= 2*OPT(M)=%d + cold" lru_2m opt_m)
    true
    (lru_2m <= (2 * opt_m) + (2 * m / b))

(* Degree-limited ablation (Lemma 8's hypothesis): a star-like split-join
   with huge fanout produces components whose degree exceeds M/B, and the
   measured cost degrades relative to the bandwidth prediction. *)
let test_degree_limit_matters () =
  let g = Ccs.Generators.split_join ~branches:64 ~depth:1 ~state:4 () in
  let a = R.analyze_exn g in
  let m = 256 and b = 16 in
  (* Partition that isolates the splitter: its component has degree 64 >>
     M/B = 16. *)
  let assignment = Array.make (G.num_nodes g) 1 in
  let split = G.node_of_name g "split" in
  assignment.(G.source g) <- 0;
  assignment.(split) <- 0;
  let spec = Sp.of_assignment g assignment in
  Alcotest.(check bool) "degree exceeds M/B" true
    (Sp.max_component_degree spec > m / b);
  Alcotest.(check bool) "flagged by validator" false
    (Sp.is_degree_limited spec ~bound:(m / b));
  (* It still runs correctly — the cost guarantee, not safety, is lost. *)
  let plan = Ccs.Partitioned.homogeneous g a spec ~m_tokens:m in
  let r, _ =
    Must.ok
      (Ccs.Runner.run ~graph:g
         ~cache:(Ccs.Cache.config ~size_words:m ~block_words:b ())
         ~plan ~outputs:500 ())
  in
  Alcotest.(check bool) "runs" true (r.Ccs.Runner.outputs >= 500)

(* The three scheduling regimes of Section 3 agree on totals: static batch,
   homogeneous batch, and dynamic pipeline all produce identical outputs
   and conserve tokens. *)
let test_schedulers_agree_on_outputs () =
  let g = Ccs.Generators.uniform_pipeline ~n:8 ~state:32 () in
  let a = R.analyze_exn g in
  let m = 128 in
  let cache = Ccs.Cache.config ~size_words:m ~block_words:8 () in
  let spec = Ccs.Pipeline_partition.optimal_dp g a ~bound:(m / 2) in
  let outputs = 777 in
  List.iter
    (fun plan ->
      let r, _ = Must.ok (Ccs.Runner.run ~graph:g ~cache ~plan ~outputs ()) in
      Alcotest.(check bool)
        (plan.Ccs.Plan.name ^ " >= target")
        true
        (r.Ccs.Runner.outputs >= outputs))
    [
      Ccs.Partitioned.batch g a spec ~t:m;
      Ccs.Partitioned.homogeneous g a spec ~m_tokens:m;
      Ccs.Partitioned.pipeline_dynamic g a spec ~m_tokens:m;
    ]

(* The guarded driver changes nothing on a successful run: Runner.run and
   Profile.run report exactly what the bare path — a fresh machine driven
   by the plan's own driver — reports, down to the per-entity counters. *)
let test_guarded_runs_match_bare_drive () =
  let cfg = Ccs.Config.make ~cache_words:256 ~block_words:16 () in
  let cache = Ccs.Config.cache_config cfg in
  let outputs = 1000 in
  List.iter
    (fun entry ->
      let g = entry.Ccs_apps.Suite.graph () in
      let entities = G.num_nodes g + G.num_edges g in
      List.iter
        (fun dynamic ->
          let plan = (Ccs.Auto.plan ~dynamic g cfg).Ccs.Auto.plan in
          let check what expected actual =
            Alcotest.(check bool)
              (Printf.sprintf "%s %s: %s" entry.Ccs_apps.Suite.name
                 plan.Ccs.Plan.name what)
              true (expected = actual)
          in
          let c_bare = Ccs.Counters.create ~entities in
          let bare =
            Ccs.Machine.create ~counters:c_bare ~graph:g ~cache
              ~capacities:plan.Ccs.Plan.capacities ()
          in
          plan.Ccs.Plan.drive bare ~target_outputs:outputs;
          let expected = Ccs.Runner.result_of ~plan bare in
          let c_run = Ccs.Counters.create ~entities in
          let run, _ =
            Must.ok
              (Ccs.Runner.run ~counters:c_run ~graph:g ~cache ~plan ~outputs
                 ())
          in
          let profile =
            Must.ok (Ccs.Profile.run ~graph:g ~cache ~plan ~outputs ())
          in
          check "Runner.run result" expected run;
          check "Profile.run result" expected profile.Ccs.Profile.result;
          check "Runner.run counters" (Ccs.Counters.dump c_bare)
            (Ccs.Counters.dump c_run);
          check "Profile.run counters" (Ccs.Counters.dump c_bare)
            (Ccs.Counters.dump profile.Ccs.Profile.counters))
        [ false; true ])
    Ccs_apps.Suite.all

let () =
  Alcotest.run "integration"
    [
      ( "claims",
        [
          Alcotest.test_case "lemma 4 prediction" `Slow
            test_lemma4_prediction_tracks_measurement;
          Alcotest.test_case "greedy vs dp measured" `Slow
            test_greedy_competitive_with_dp;
          Alcotest.test_case "dag lower bound respected" `Slow
            test_dag_lower_bound_respected;
          Alcotest.test_case "lemma 8 dag win" `Slow test_lemma8_dag_win;
          Alcotest.test_case "crossover" `Slow test_crossover;
          Alcotest.test_case "lru vs opt" `Slow test_lru_opt_calibration;
          Alcotest.test_case "degree limit ablation" `Quick
            test_degree_limit_matters;
          Alcotest.test_case "schedulers agree" `Quick
            test_schedulers_agree_on_outputs;
          Alcotest.test_case "guarded runs match the bare drive" `Quick
            test_guarded_runs_match_bare_drive;
        ] );
    ]
