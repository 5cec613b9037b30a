(* Tests for the analytic bounds: Theorem 3's pipeline lower bound,
   Theorem 7's DAG lower bound via exact minBW, and the Lemma 4/8 cost
   prediction. *)

module G = Ccs.Graph
module R = Ccs.Rates
module A = Ccs.Analysis
module Sp = Ccs.Spec

let test_pipeline_lower_bound_zero_when_fits () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:4 () in
  let a = R.analyze_exn g in
  (* Total state 16 < 2m = 200: no segment qualifies. *)
  Alcotest.(check (float 1e-9)) "vacuous" 0.
    (A.pipeline_lower_bound g a ~m:100 ~b:8)

let test_pipeline_lower_bound_value () =
  (* 16 modules of state 10, m = 20: segments of >= 40 state = 4 modules
     each, 4 segments, each contributing gain 1: LB = 4/B. *)
  let g = Ccs.Generators.uniform_pipeline ~n:16 ~state:10 () in
  let a = R.analyze_exn g in
  Alcotest.(check (float 1e-9)) "4/8" 0.5 (A.pipeline_lower_bound g a ~m:20 ~b:8)

let test_pipeline_lower_bound_uses_gain_min () =
  (* A decimating module early in each segment makes later edges cheap;
     the LB must charge the cheap edge. 8 modules state 10, m=20 (2m=40):
     segments {0..3} {4..7}.  Module 1 decimates by 8 => edges 1.. carry
     gain 1/8. *)
  let g =
    Ccs.Generators.pipeline ~n:8
      ~state:(fun _ -> 10)
      ~rates:(fun i -> if i = 0 then (1, 8) else (1, 1))
      ()
  in
  let a = R.analyze_exn g in
  (* Both segments' gainMin = 1/8: LB = (1/8 + 1/8)/b. *)
  Alcotest.(check (float 1e-9)) "charges cheap edges" (0.25 /. 8.)
    (A.pipeline_lower_bound g a ~m:20 ~b:8)

let test_dag_lower_bound_vacuous () =
  let g = Ccs.Generators.split_join ~branches:2 ~depth:1 ~state:2 () in
  let a = R.analyze_exn g in
  match A.dag_lower_bound g a ~m:100 ~b:8 () with
  | Some lb -> Alcotest.(check (float 1e-9)) "vacuous" 0. lb
  | None -> Alcotest.fail "should be computable"

let test_dag_lower_bound_positive () =
  let g = Ccs.Generators.uniform_pipeline ~n:12 ~state:10 () in
  let a = R.analyze_exn g in
  (* total state 120 > 3m for m = 10; minBW over 30-state components. *)
  match A.dag_lower_bound g a ~m:10 ~b:8 () with
  | Some lb -> Alcotest.(check bool) "positive" true (lb > 0.)
  | None -> Alcotest.fail "12 nodes is within exact range"

let test_dag_lower_bound_large_graph_none () =
  let g = Ccs.Generators.uniform_pipeline ~n:40 ~state:10 () in
  let a = R.analyze_exn g in
  Alcotest.(check bool) "None for large graphs" true
    (A.dag_lower_bound g a ~m:10 ~b:8 ~max_nodes:16 () = None)

let test_lower_bound_below_any_schedule () =
  (* The point of a lower bound: no scheduler may beat it.  Run every
     scheduler on a state-heavy pipeline and compare. *)
  let g = Ccs.Generators.uniform_pipeline ~n:16 ~state:64 () in
  let a = R.analyze_exn g in
  let m = 256 and b = 16 in
  let lb = A.pipeline_lower_bound g a ~m ~b in
  Alcotest.(check bool) "lb positive here" true (lb > 0.);
  let cache = Ccs.Cache.config ~size_words:m ~block_words:b () in
  List.iter
    (fun plan ->
      let r, _ =
        Must.ok (Ccs.Runner.run ~graph:g ~cache ~plan ~outputs:4000 ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: measured %.3f >= lb %.3f" r.Ccs.Runner.plan_name
           r.Ccs.Runner.misses_per_input lb)
        true
        (r.Ccs.Runner.misses_per_input >= lb))
    (Ccs.Compare.standard_plans g a
       (Ccs.Config.make ~cache_words:m ~block_words:b ()))

let test_prediction_terms () =
  let g = Ccs.Generators.uniform_pipeline ~n:8 ~state:16 () in
  let a = R.analyze_exn g in
  let spec = Sp.of_assignment g [| 0; 0; 0; 0; 1; 1; 1; 1 |] in
  (* bandwidth 1, states 64+64, t=64, b=8:
     (2*1 + 128/64) / 8 = 0.5 *)
  Alcotest.(check (float 1e-9)) "formula" 0.5
    (A.partition_cost_prediction spec a ~b:8 ~t:64);
  Alcotest.(check (float 1e-9)) "bandwidth per input" 1.
    (A.bandwidth_per_input spec a)

let test_prediction_shrinks_with_t () =
  let g = Ccs.Generators.uniform_pipeline ~n:8 ~state:16 () in
  let a = R.analyze_exn g in
  let spec = Sp.of_assignment g [| 0; 0; 0; 0; 1; 1; 1; 1 |] in
  let p64 = A.partition_cost_prediction spec a ~b:8 ~t:64 in
  let p1024 = A.partition_cost_prediction spec a ~b:8 ~t:1024 in
  Alcotest.(check bool) "larger batches amortize state" true (p1024 < p64)

let test_latency_minimal_vs_batch () =
  let g = Ccs.Generators.uniform_pipeline ~n:8 ~state:32 () in
  let a = R.analyze_exn g in
  let m = 128 in
  let cache = Ccs.Cache.config ~size_words:m ~block_words:8 () in
  let run plan =
    let _, lat =
      Must.ok
        (Ccs.Runner.run_with_latency ~graph:g ~cache ~plan ~outputs:1000 ())
    in
    lat
  in
  let minimal = run (Ccs.Baseline.minimal_memory g a) in
  (* Homogeneous demand-driven chain: outputs keep up with inputs. *)
  Alcotest.(check int) "minimal-memory backlog 0" 0
    minimal.Ccs.Runner.max_inputs_behind;
  let spec = Ccs.Pipeline_partition.optimal_dp g a ~bound:(m / 2) in
  let batch = run (Ccs.Partitioned.batch g a spec ~t:m) in
  (* The batch schedule answers only after a whole batch: backlog T-1. *)
  Alcotest.(check int) "batch backlog T-1" (m - 1)
    batch.Ccs.Runner.max_inputs_behind;
  Alcotest.(check bool) "mean below max" true
    (batch.Ccs.Runner.mean_inputs_behind
    <= float_of_int batch.Ccs.Runner.max_inputs_behind)

let test_latency_multirate () =
  (* Multirate chain: the necessary-inputs conversion uses 1/gain(sink). *)
  let g =
    Ccs.Generators.pipeline ~n:3
      ~state:(fun _ -> 8)
      ~rates:(fun i -> [| (1, 2); (1, 1) |].(i))
      ()
  in
  let a = R.analyze_exn g in
  let plan = Ccs.Baseline.minimal_memory g a in
  let _, lat =
    Must.ok
      (Ccs.Runner.run_with_latency ~graph:g
         ~cache:(Ccs.Cache.config ~size_words:64 ~block_words:8 ())
         ~plan ~outputs:100 ())
  in
  (* Every output needs 2 inputs; demand-driven keeps backlog at 0. *)
  Alcotest.(check int) "backlog 0" 0 lat.Ccs.Runner.max_inputs_behind

let () =
  Alcotest.run "analysis"
    [
      ( "unit",
        [
          Alcotest.test_case "pipeline LB vacuous" `Quick
            test_pipeline_lower_bound_zero_when_fits;
          Alcotest.test_case "pipeline LB value" `Quick
            test_pipeline_lower_bound_value;
          Alcotest.test_case "pipeline LB gainMin" `Quick
            test_pipeline_lower_bound_uses_gain_min;
          Alcotest.test_case "dag LB vacuous" `Quick test_dag_lower_bound_vacuous;
          Alcotest.test_case "dag LB positive" `Quick
            test_dag_lower_bound_positive;
          Alcotest.test_case "dag LB large none" `Quick
            test_dag_lower_bound_large_graph_none;
          Alcotest.test_case "LB below every schedule" `Slow
            test_lower_bound_below_any_schedule;
          Alcotest.test_case "prediction formula" `Quick test_prediction_terms;
          Alcotest.test_case "prediction vs T" `Quick
            test_prediction_shrinks_with_t;
          Alcotest.test_case "latency minimal vs batch" `Quick
            test_latency_minimal_vs_batch;
          Alcotest.test_case "latency multirate" `Quick test_latency_multirate;
        ] );
    ]
