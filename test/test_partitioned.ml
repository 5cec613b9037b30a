(* Tests for the paper's partition schedulers (Section 3): legality,
   batching structure, and the cache behaviour the theorems promise. *)

module G = Ccs.Graph
module R = Ccs.Rates
module S = Ccs.Schedule
module Sp = Ccs.Spec
module P = Ccs.Plan
module Pt = Ccs.Partitioned

let segments g k =
  (* Split a chain of n into k equal contiguous segments. *)
  let n = G.num_nodes g in
  Sp.of_assignment g (Array.init n (fun v -> v * k / n))

let test_local_period_chain () =
  let g = Ccs.Generators.uniform_pipeline ~n:6 ~state:4 () in
  let a = R.analyze_exn g in
  let spec = segments g 2 in
  let order, peaks = Pt.local_period g a spec 0 in
  Alcotest.(check (list int)) "one firing each, drained latest-first"
    [ 0; 1; 2 ] order;
  (* Internal edges 0,1 peak at one token; cross/external edges at 0. *)
  Alcotest.(check int) "peak e0" 1 peaks.(0);
  Alcotest.(check int) "peak e1" 1 peaks.(1);
  Alcotest.(check int) "cross edge not tracked" 0 peaks.(2)

let test_local_period_multirate () =
  (* Chain src -1/1-> up -3/1-> down(pop 3): component {up, down}: local
     repetition up=1, down=3. *)
  let g =
    Ccs.Generators.pipeline ~n:4
      ~state:(fun _ -> 2)
      ~rates:(fun i -> [| (1, 1); (3, 1); (1, 1) |].(i))
      ()
  in
  let a = R.analyze_exn g in
  let spec = Sp.of_assignment g [| 0; 1; 1; 2 |] in
  let order, peaks = Pt.local_period g a spec 1 in
  let counts = Array.make 4 0 in
  List.iter (fun v -> counts.(v) <- counts.(v) + 1) order;
  Alcotest.(check int) "up fires once" 1 counts.(1);
  Alcotest.(check int) "down fires three times" 3 counts.(2);
  Alcotest.(check bool) "internal peak at most 3" true (peaks.(1) <= 3)

let test_batch_rejects_bad_t () =
  let g =
    Ccs.Generators.pipeline ~n:3
      ~state:(fun _ -> 2)
      ~rates:(fun i -> [| (1, 1); (1, 3) |].(i))
      ()
  in
  let a = R.analyze_exn g in
  let spec = Sp.whole g in
  match Pt.batch g a spec ~t:2 with
  | _ -> Alcotest.fail "t=2 is not a granularity multiple"
  | exception Invalid_argument _ -> ()

let test_batch_rejects_non_well_ordered () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:2 () in
  let a = R.analyze_exn g in
  let spec = Sp.of_assignment g [| 0; 1; 0; 1 |] in
  match Pt.batch g a spec ~t:8 with
  | _ -> Alcotest.fail "non-well-ordered partition must be rejected"
  | exception Invalid_argument _ -> ()

let test_batch_period_is_t_inputs () =
  let g = Ccs.Generators.uniform_pipeline ~n:8 ~state:4 () in
  let a = R.analyze_exn g in
  let spec = segments g 2 in
  let plan = Pt.batch g a spec ~t:64 in
  let period = Option.get plan.P.period in
  let counts = S.fire_counts ~num_nodes:8 period in
  Array.iter
    (fun c -> Alcotest.(check int) "each homogeneous module fires T times" 64 c)
    counts

let test_batch_legal_and_periodic_on_suite () =
  List.iter
    (fun entry ->
      let g = entry.Ccs_apps.Suite.graph () in
      let a = R.analyze_exn g in
      let bound = max 256 (G.total_state g / 3) in
      let bound =
        List.fold_left (fun acc v -> max acc (G.state g v)) bound (G.nodes g)
      in
      let spec = Ccs.Dag_partition.greedy g ~bound in
      let t = R.granularity g a ~at_least:128 in
      let plan = Pt.batch g a spec ~t in
      Alcotest.(check bool)
        (entry.Ccs_apps.Suite.name ^ " legal and periodic")
        true
        (Option.is_some plan.P.period && P.validate g plan = Ok ()))
    Ccs_apps.Suite.all

let test_batch_loads_each_component_once () =
  (* The high-level invariant: within one batch, each component's firings
     form one contiguous block (the component is "loaded exactly once per T
     inputs"). *)
  let g = Ccs.Generators.uniform_pipeline ~n:9 ~state:4 () in
  let a = R.analyze_exn g in
  let spec = segments g 3 in
  let plan = Pt.batch g a spec ~t:16 in
  let period = Option.get plan.P.period in
  let seen_done = Hashtbl.create 8 in
  let current = ref (-1) in
  S.iter period ~f:(fun v ->
      let c = Sp.component_of spec v in
      if c <> !current then begin
        if Hashtbl.mem seen_done c then
          Alcotest.failf "component %d scheduled in two pieces" c;
        if !current >= 0 then Hashtbl.replace seen_done !current ();
        current := c
      end)

let test_homogeneous_matches_batch () =
  let g = Ccs.Generators.split_join ~branches:3 ~depth:2 ~state:8 () in
  let a = R.analyze_exn g in
  let spec = Ccs.Dag_partition.greedy g ~bound:32 in
  let hom = Pt.homogeneous g a spec ~m_tokens:64 in
  let bat = Pt.batch g a spec ~t:64 in
  Alcotest.(check (array int)) "same capacities" bat.P.capacities
    hom.P.capacities;
  Alcotest.(check int) "same period length"
    (S.length (Option.get bat.P.period))
    (S.length (Option.get hom.P.period))

let test_homogeneous_rejects_multirate () =
  let g =
    Ccs.Generators.pipeline ~n:3
      ~state:(fun _ -> 2)
      ~rates:(fun _ -> (2, 2))
      ()
  in
  let a = R.analyze_exn g in
  match Pt.homogeneous g a (Sp.whole g) ~m_tokens:16 with
  | _ -> Alcotest.fail "non-homogeneous graph must be rejected"
  | exception Invalid_argument _ -> ()

let test_cross_capacity_holds_batch () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:4 () in
  let a = R.analyze_exn g in
  let spec = segments g 2 in
  let plan = Pt.batch g a spec ~t:32 in
  List.iter
    (fun e ->
      if Sp.is_cross spec e then
        Alcotest.(check int) "cross capacity = T tokens" 32
          plan.P.capacities.(e))
    (G.edges g)

let test_amortization_on_machine () =
  (* The heart of Lemma 4/8: with components fitting in cache, misses per
     input approach (2*bandwidth + state/T)/B instead of state/B. *)
  let g = Ccs.Generators.uniform_pipeline ~n:16 ~state:64 () in
  let a = R.analyze_exn g in
  let m = 256 and b = 16 in
  let spec = Ccs.Pipeline_partition.optimal_dp g a ~bound:(m / 2) in
  let plan = Pt.batch g a spec ~t:m in
  let r, _ =
    Must.ok
      (Ccs.Runner.run ~graph:g
         ~cache:(Ccs.Cache.config ~size_words:m ~block_words:b ())
         ~plan ~outputs:(20 * m) ())
  in
  let predicted =
    Ccs.Analysis.partition_cost_prediction spec a ~b ~t:m
  in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.3f within 2x of predicted %.3f"
       r.Ccs.Runner.misses_per_input predicted)
    true
    (r.Ccs.Runner.misses_per_input <= 2. *. predicted
    && r.Ccs.Runner.misses_per_input >= predicted /. 4.)

let test_pipeline_dynamic_runs () =
  let g = Ccs.Generators.random_pipeline ~seed:5 ~n:12 ~max_state:32 ~max_rate:3 () in
  let a = R.analyze_exn g in
  let spec = Ccs.Pipeline_partition.optimal_dp g a ~bound:64 in
  let plan = Pt.pipeline_dynamic g a spec ~m_tokens:128 in
  let r, machine =
    Must.ok
      (Ccs.Runner.run ~graph:g
         ~cache:(Ccs.Cache.config ~size_words:256 ~block_words:8 ())
         ~plan ~outputs:500 ())
  in
  Alcotest.(check bool) "reached target" true (r.Ccs.Runner.outputs >= 500);
  (* Token conservation on every channel. *)
  List.iter
    (fun e ->
      Alcotest.(check int)
        (Printf.sprintf "edge %d conserved" e)
        (Ccs.Machine.produced machine e - Ccs.Machine.consumed machine e)
        (Ccs.Machine.tokens machine e))
    (G.edges g)

let test_pipeline_dynamic_rejects_dag () =
  let g = Ccs.Generators.split_join ~branches:2 ~depth:1 ~state:2 () in
  let a = R.analyze_exn g in
  match Pt.pipeline_dynamic g a (Sp.whole g) ~m_tokens:16 with
  | _ -> Alcotest.fail "diamond is not a pipeline"
  | exception Invalid_argument _ -> ()

let test_pipeline_dynamic_beats_naive () =
  let g = Ccs.Generators.uniform_pipeline ~n:16 ~state:64 () in
  let a = R.analyze_exn g in
  let m = 256 in
  let cache = Ccs.Cache.config ~size_words:m ~block_words:16 () in
  let run plan =
    let r, _ =
      Must.ok (Ccs.Runner.run ~graph:g ~cache ~plan ~outputs:4000 ())
    in
    r.Ccs.Runner.misses_per_input
  in
  let spec = Ccs.Pipeline_partition.optimal_dp g a ~bound:(m / 2) in
  let dyn = run (Pt.pipeline_dynamic g a spec ~m_tokens:m) in
  let naive = run (Ccs.Baseline.round_robin g a) in
  Alcotest.(check bool)
    (Printf.sprintf "dynamic %.2f << naive %.2f" dyn naive)
    true (dyn < naive /. 10.)

let test_batch_multirate_machine_run () =
  (* End-to-end legality of the inhomogeneous scheduler on every app. *)
  List.iter
    (fun entry ->
      let g = entry.Ccs_apps.Suite.graph () in
      let a = R.analyze_exn g in
      let bound =
        List.fold_left
          (fun acc v -> max acc (G.state g v))
          (max 512 (G.total_state g / 3))
          (G.nodes g)
      in
      let spec = Ccs.Dag_partition.greedy g ~bound in
      let t = R.granularity g a ~at_least:256 in
      let plan = Pt.batch g a spec ~t in
      let r, _ =
        Must.ok
          (Ccs.Runner.run ~graph:g
             ~cache:(Ccs.Cache.config ~size_words:2048 ~block_words:16 ())
             ~plan ~outputs:50 ())
      in
      Alcotest.(check bool)
        (entry.Ccs_apps.Suite.name ^ " ran")
        true
        (r.Ccs.Runner.outputs >= 50))
    Ccs_apps.Suite.all

let () =
  Alcotest.run "partitioned"
    [
      ( "structure",
        [
          Alcotest.test_case "local period chain" `Quick test_local_period_chain;
          Alcotest.test_case "local period multirate" `Quick
            test_local_period_multirate;
          Alcotest.test_case "bad t rejected" `Quick test_batch_rejects_bad_t;
          Alcotest.test_case "non-well-ordered rejected" `Quick
            test_batch_rejects_non_well_ordered;
          Alcotest.test_case "period fires T inputs" `Quick
            test_batch_period_is_t_inputs;
          Alcotest.test_case "legal+periodic on suite" `Quick
            test_batch_legal_and_periodic_on_suite;
          Alcotest.test_case "components load once" `Quick
            test_batch_loads_each_component_once;
          Alcotest.test_case "homogeneous = batch" `Quick
            test_homogeneous_matches_batch;
          Alcotest.test_case "homogeneous rejects multirate" `Quick
            test_homogeneous_rejects_multirate;
          Alcotest.test_case "cross capacity" `Quick
            test_cross_capacity_holds_batch;
        ] );
      ( "machine",
        [
          Alcotest.test_case "amortization" `Quick test_amortization_on_machine;
          Alcotest.test_case "pipeline dynamic runs" `Quick
            test_pipeline_dynamic_runs;
          Alcotest.test_case "pipeline dynamic rejects dag" `Quick
            test_pipeline_dynamic_rejects_dag;
          Alcotest.test_case "dynamic beats naive" `Quick
            test_pipeline_dynamic_beats_naive;
          Alcotest.test_case "multirate suite run" `Quick
            test_batch_multirate_machine_run;
        ] );
    ]
