(* Edge-case coverage for paths the main suites exercise only implicitly. *)

module G = Ccs.Graph
module R = Ccs.Rates
module C = Ccs.Cache

let test_machine_unaligned_layout () =
  (* align_to_block:false packs state regions; misses can only go down or
     stay equal versus the aligned layout on the same schedule, and token
     accounting is unaffected. *)
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:5 () in
  let cache = C.config ~size_words:64 ~block_words:8 () in
  let run aligned =
    let m =
      Ccs.Machine.create ~align_to_block:aligned ~graph:g ~cache
        ~capacities:[| 2; 2; 2 |] ()
    in
    for _ = 1 to 20 do
      List.iter (Ccs.Machine.fire m) [ 0; 1; 2; 3 ]
    done;
    (Ccs.Machine.misses m, Ccs.Machine.sink_outputs m,
     Ccs.Machine.address_space_words m)
  in
  let m_aligned, out_a, space_a = run true in
  let m_packed, out_p, space_p = run false in
  Alcotest.(check int) "same outputs" out_a out_p;
  Alcotest.(check bool) "packed layout no bigger" true (space_p <= space_a);
  Alcotest.(check bool) "misses sane" true (m_packed >= 0 && m_aligned >= 0)

let test_cache_ways_clamped () =
  (* More ways than blocks must not crash: clamp to capacity. *)
  let c =
    C.create (C.config ~policy:(C.Set_associative 64) ~size_words:16 ~block_words:8 ())
  in
  ignore (C.touch c 0);
  ignore (C.touch c 8);
  ignore (C.touch c 0);
  Alcotest.(check int) "behaves like full LRU" 2 (C.misses c)

let test_cache_flush_counter () =
  let c = C.create (C.config ~size_words:16 ~block_words:8 ()) in
  C.flush c;
  C.flush c;
  Alcotest.(check int) "two flushes" 2 (C.flushes c)

let test_rates_source_not_node_zero () =
  (* Build a graph whose source has the highest id; analysis must still
     normalize gains at the source. *)
  let b = G.Builder.create () in
  let snk = G.Builder.add_module b ~state:1 "snk" in
  let mid = G.Builder.add_module b ~state:1 "mid" in
  let src = G.Builder.add_module b ~state:1 "src" in
  ignore (G.Builder.add_channel b ~src:mid ~dst:snk ~push:1 ~pop:2 ());
  ignore (G.Builder.add_channel b ~src ~dst:mid ~push:1 ~pop:1 ());
  let g = G.Builder.build b in
  let a = R.analyze_exn g in
  Alcotest.(check bool) "source gain 1" true
    (Ccs.Rational.equal (R.gain a src) Ccs.Rational.one);
  Alcotest.(check int) "period inputs" 2 a.R.period_inputs

let test_pipeline_dynamic_with_delay () =
  let g =
    Ccs.Generators.pipeline ~n:6
      ~state:(fun _ -> 16)
      ~rates:(fun _ -> (1, 1))
      ()
  in
  (* Inject a delayed edge by rebuilding: use builder directly. *)
  let b = G.Builder.create () in
  let ids =
    Array.init 6 (fun i -> G.Builder.add_module b ~state:16 (string_of_int i))
  in
  for i = 0 to 4 do
    ignore
      (G.Builder.add_channel b
         ~delay:(if i = 2 then 3 else 0)
         ~src:ids.(i) ~dst:ids.(i + 1) ~push:1 ~pop:1 ())
  done;
  let g' = G.Builder.build b in
  ignore g;
  let a = R.analyze_exn g' in
  let spec = Ccs.Spec.of_assignment g' [| 0; 0; 0; 1; 1; 1 |] in
  let plan = Ccs.Partitioned.pipeline_dynamic g' a spec ~m_tokens:32 in
  let r, _ =
    Must.ok
      (Ccs.Runner.run ~graph:g'
         ~cache:(C.config ~size_words:64 ~block_words:8 ())
         ~plan ~outputs:200 ())
  in
  Alcotest.(check bool) "runs with delays" true (r.Ccs.Runner.outputs >= 200)

let test_engine_capacity_mismatch () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:4 () in
  let a = R.analyze_exn g in
  let plan = Ccs.Baseline.minimal_memory g a in
  let program = Ccs.Program.create g (Ccs.Codegen.codegen_semantics g) in
  let engine =
    Must.ok
      (Ccs.Engine.create ~program
         ~cache:(C.config ~size_words:64 ~block_words:8 ())
         ~capacities:[| 5; 5 |] ())
  in
  match Ccs.Engine.run_plan engine plan ~outputs:5 with
  | Error (Ccs.Error.Plan_invalid _) -> ()
  | Ok _ -> Alcotest.fail "capacity mismatch must be rejected"
  | Error e -> Alcotest.fail ("expected Plan_invalid: " ^ Ccs.Error.to_string e)

let test_codegen_rejects_illegal_plan () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:4 () in
  (* Hand-built plan whose period underflows. *)
  let plan =
    Ccs.Plan.of_period ~name:"broken" ~capacities:[| 4; 4 |]
      (Ccs.Schedule.of_list [ 1; 0; 2 ])
  in
  match Ccs.Codegen.emit g ~plan with
  | _ -> Alcotest.fail "illegal plan must be rejected"
  | exception Ccs.Error.Error _ ->
      (* The lowering rejects it with a structured finding (PR 7);
         previously emit raised a stringly Invalid_argument. *)
      ()

let test_granularity_overflow_guard () =
  (* Many distinct prime-ish denominators: granularity grows but stays
     exact (rational lcm with overflow checking). *)
  let g =
    Ccs.Generators.pipeline ~n:6
      ~state:(fun _ -> 1)
      ~rates:(fun i -> [| (1, 2); (1, 3); (1, 5); (1, 7); (1, 11) |].(i))
      ()
  in
  let a = R.analyze_exn g in
  Alcotest.(check int) "lcm of downsamplings" (2 * 3 * 5 * 7 * 11)
    (R.granularity g a ~at_least:1)

let test_intvec () =
  let v = Ccs_exec.Intvec.create ~initial_capacity:2 () in
  for i = 0 to 99 do
    Ccs_exec.Intvec.push v i
  done;
  Alcotest.(check (array int)) "every push, in order" (Array.init 100 Fun.id)
    (Ccs_exec.Intvec.to_array v)

let test_single_module_graph () =
  (* A one-module graph (source = sink) is degenerate but must not crash
     the analysis path. *)
  let b = G.Builder.create () in
  let _ = G.Builder.add_module b ~state:4 "only" in
  let g = G.Builder.build b in
  let a = R.analyze_exn g in
  Alcotest.(check (array int)) "repetition" [| 1 |] a.R.repetition;
  let mb = Ccs.Minbuf.compute g a in
  Alcotest.(check int) "no channels" 0 (Array.length mb.Ccs.Minbuf.capacity)

let test_zero_state_module () =
  let b = G.Builder.create () in
  let x = G.Builder.add_module b ~state:0 "stateless" in
  let y = G.Builder.add_module b ~state:4 "sink" in
  ignore (G.Builder.add_channel b ~src:x ~dst:y ~push:1 ~pop:1 ());
  let g = G.Builder.build b in
  let m =
    Ccs.Machine.create ~graph:g
      ~cache:(C.config ~size_words:64 ~block_words:8 ())
      ~capacities:[| 2 |] ()
  in
  Ccs.Machine.fire m x;
  Ccs.Machine.fire m y;
  Alcotest.(check int) "ran" 2 (Ccs.Machine.total_fires m)

let () =
  Alcotest.run "edge-cases"
    [
      ( "unit",
        [
          Alcotest.test_case "unaligned layout" `Quick
            test_machine_unaligned_layout;
          Alcotest.test_case "ways clamped" `Quick test_cache_ways_clamped;
          Alcotest.test_case "flush counter" `Quick test_cache_flush_counter;
          Alcotest.test_case "late source id" `Quick
            test_rates_source_not_node_zero;
          Alcotest.test_case "dynamic pipeline with delay" `Quick
            test_pipeline_dynamic_with_delay;
          Alcotest.test_case "engine capacity mismatch" `Quick
            test_engine_capacity_mismatch;
          Alcotest.test_case "codegen illegal plan" `Quick
            test_codegen_rejects_illegal_plan;
          Alcotest.test_case "granularity lcm" `Quick
            test_granularity_overflow_guard;
          Alcotest.test_case "intvec" `Quick test_intvec;
          Alcotest.test_case "single module" `Quick test_single_module_graph;
          Alcotest.test_case "zero state" `Quick test_zero_state_module;
        ] );
    ]
