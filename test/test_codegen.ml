(* Tests for the code generator: the emitted standalone OCaml program must
   compute exactly what the in-process engine computes (differential
   testing through the real `ocaml` interpreter). *)

module G = Ccs.Graph
module R = Ccs.Rates

let run_generated code ~periods =
  let path = Filename.temp_file "ccsgen" ".ml" in
  let oc = open_out path in
  output_string oc code;
  close_out oc;
  let out_path = Filename.temp_file "ccsgen" ".out" in
  let rc =
    Sys.command
      (Printf.sprintf "ocaml %s %d > %s 2>/dev/null" (Filename.quote path)
         periods
         (Filename.quote out_path))
  in
  let ic = open_in out_path in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  Sys.remove path;
  Sys.remove out_path;
  if rc <> 0 then Alcotest.failf "generated program exited with %d" rc;
  Scanf.sscanf line "outputs=%d checksum=%f" (fun o c -> (o, c))

let engine_reference g plan ~outputs =
  let program = Ccs.Program.create g (Ccs.Codegen.codegen_semantics g) in
  let engine =
    Ccs.Engine.of_plan ~program
      ~cache:(Ccs.Cache.config ~size_words:4096 ~block_words:16 ())
      ~plan ()
  in
  let r = Must.ok (Ccs.Engine.run_plan engine plan ~outputs) in
  let sink = G.sink g in
  (r.Ccs.Runner.outputs, (Ccs.Engine.state engine sink).(0))

let differential g plan ~periods =
  let period_outputs =
    let counts =
      Ccs.Schedule.fire_counts ~num_nodes:(G.num_nodes g)
        (Option.get plan.Ccs.Plan.period)
    in
    counts.(G.sink g)
  in
  let gen_outputs, gen_checksum =
    run_generated (Ccs.Codegen.emit g ~plan) ~periods
  in
  let eng_outputs, eng_checksum =
    engine_reference g plan ~outputs:(periods * period_outputs)
  in
  Alcotest.(check int) "same outputs" eng_outputs gen_outputs;
  Alcotest.(check (float 1e-6)) "same checksum" eng_checksum gen_checksum

let test_pipeline_batch () =
  let g = Ccs.Generators.uniform_pipeline ~n:6 ~state:8 () in
  let a = R.analyze_exn g in
  let spec = Ccs.Spec.of_assignment g [| 0; 0; 0; 1; 1; 1 |] in
  differential g (Ccs.Partitioned.batch g a spec ~t:8) ~periods:5

let test_multirate_chain () =
  let g =
    Ccs.Generators.pipeline ~n:4
      ~state:(fun _ -> 4)
      ~rates:(fun i -> [| (2, 1); (1, 4); (3, 1) |].(i))
      ()
  in
  let a = R.analyze_exn g in
  differential g (Ccs.Baseline.minimal_memory g a) ~periods:7

let test_split_join () =
  let g = Ccs.Generators.split_join ~branches:3 ~depth:2 ~state:4 () in
  let a = R.analyze_exn g in
  let spec = Ccs.Dag_partition.greedy g ~bound:16 in
  differential g (Ccs.Partitioned.homogeneous g a spec ~m_tokens:4) ~periods:3

let test_app_beamformer () =
  let g = Ccs_apps.Beamformer.graph ~channels:2 ~beams:2 ~taps:4 () in
  let a = R.analyze_exn g in
  differential g (Ccs.Baseline.single_appearance g a) ~periods:4

let test_delays_respected () =
  let b = G.Builder.create ~name:"delayed" () in
  let x = G.Builder.add_module b ~state:2 "x" in
  let y = G.Builder.add_module b ~state:2 "y" in
  let z = G.Builder.add_module b ~state:2 "z" in
  ignore (G.Builder.add_channel b ~src:x ~dst:y ~push:1 ~pop:1 ());
  ignore (G.Builder.add_channel b ~delay:2 ~src:y ~dst:z ~push:1 ~pop:1 ());
  let g = G.Builder.build b in
  let a = R.analyze_exn g in
  differential g (Ccs.Baseline.minimal_memory g a) ~periods:6

let test_rejects_dynamic () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:8 () in
  let a = R.analyze_exn g in
  let spec = Ccs.Spec.of_assignment g [| 0; 0; 1; 1 |] in
  let plan = Ccs.Partitioned.pipeline_dynamic g a spec ~m_tokens:16 in
  match Ccs.Codegen.emit g ~plan with
  | _ -> Alcotest.fail "dynamic plan must be rejected"
  | exception Invalid_argument _ -> ()

(* --- regression: zero-state sources must keep counting -------------
   The kernel used to restart at [float_of_int k] every firing while the
   emitted code kept a persistent counter, so checksums diverged. *)
let test_zero_state_source () =
  let b = G.Builder.create ~name:"zsrc" () in
  let s = G.Builder.add_module b ~state:0 "src" in
  let m = G.Builder.add_module b ~state:2 "mid" in
  let k = G.Builder.add_module b ~state:2 "snk" in
  ignore (G.Builder.add_channel b ~src:s ~dst:m ~push:2 ~pop:1 ());
  ignore (G.Builder.add_channel b ~src:m ~dst:k ~push:1 ~pop:2 ());
  let g = G.Builder.build b in
  let a = R.analyze_exn g in
  differential g (Ccs.Baseline.minimal_memory g a) ~periods:5

(* --- regression: empty pop window must not divide by zero ----------
   The interior kernel's mixing function indexed [consumed.(k mod n)]
   with [n = 0] when fired with no input tokens; it now emits the
   constant fill 0.25. *)
let test_empty_window_fill () =
  let b = G.Builder.create ~name:"mix" () in
  let s = G.Builder.add_module b ~state:1 "src" in
  let m = G.Builder.add_module b ~state:1 "mid" in
  let k = G.Builder.add_module b ~state:1 "snk" in
  ignore (G.Builder.add_channel b ~src:s ~dst:m ~push:1 ~pop:1 ());
  ignore (G.Builder.add_channel b ~src:m ~dst:k ~push:3 ~pop:3 ());
  let g = G.Builder.build b in
  let kernel = Ccs.Codegen.codegen_semantics g m in
  let out = Array.make 3 nan in
  (* Fire the interior kernel directly with an empty window — the graph
     itself can never produce this (rates are positive), but a kernel is
     plain code and must be total. *)
  kernel.Ccs.Kernel.fire ~state:[| 0. |] ~inputs:[| [||] |]
    ~outputs:[| out |];
  Array.iter (fun x -> Alcotest.(check (float 0.)) "constant fill" 0.25 x) out

(* --- regression: multi-sink graphs are valid emit targets ----------
   The final report used to call [Graph.sink] (unique sink) and raised
   [Invalid_graph]; it now sums checksums across [Graph.sinks]. *)
let test_multi_sink () =
  let b = G.Builder.create ~name:"fanout" () in
  let s = G.Builder.add_module b ~state:2 "src" in
  let a = G.Builder.add_module b ~state:2 "snk_a" in
  let c = G.Builder.add_module b ~state:2 "snk_b" in
  ignore (G.Builder.add_channel b ~src:s ~dst:a ~push:1 ~pop:1 ());
  ignore (G.Builder.add_channel b ~src:s ~dst:c ~push:2 ~pop:2 ());
  let g = G.Builder.build b in
  let an = R.analyze_exn g in
  let plan = Ccs.Baseline.minimal_memory g an in
  let periods = 4 in
  let gen_outputs, gen_checksum =
    run_generated (Ccs.Codegen.emit g ~plan) ~periods
  in
  (* Reference: drive an engine for the same whole periods (multi-sink
     graphs cannot be driven by output count) and sum both sinks. *)
  let program = Ccs.Program.create g (Ccs.Codegen.codegen_semantics g) in
  let engine =
    Ccs.Engine.of_plan ~program
      ~cache:(Ccs.Cache.config ~size_words:4096 ~block_words:16 ())
      ~plan ()
  in
  let m = Ccs.Engine.machine engine in
  let period = Option.get plan.Ccs.Plan.period in
  for _ = 1 to periods do
    Ccs.Schedule.run m period
  done;
  let sinks = G.sinks g in
  let eng_outputs =
    List.fold_left (fun acc v -> acc + Ccs.Machine.fires m v) 0 sinks
  in
  let eng_checksum =
    List.fold_left
      (fun acc v -> acc +. (Ccs.Engine.state engine v).(0))
      0. sinks
  in
  Alcotest.(check int) "outputs across sinks" eng_outputs gen_outputs;
  Alcotest.(check (float 1e-6)) "summed checksum" eng_checksum gen_checksum

(* --- regression: zero-capacity channels are a structured error -----
   They used to be clamped to 1-slot rings whose pushes overwrite. *)
let test_zero_capacity_rejected () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:4 () in
  let a = R.analyze_exn g in
  let good = Ccs.Baseline.minimal_memory g a in
  let caps = Array.copy good.Ccs.Plan.capacities in
  caps.(0) <- 0;
  let plan =
    Ccs.Plan.of_period ~name:"zero-cap" ~capacities:caps
      (Option.get good.Ccs.Plan.period)
  in
  match Ccs.Codegen.emit g ~plan with
  | _ -> Alcotest.fail "zero-capacity plan must be rejected"
  | exception Ccs.Error.Error (Ccs.Error.Plan_invalid _) -> ()

(* --- regression: bad argv is a usage error, not a crash ------------ *)
let test_argv_guard () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:4 () in
  let a = R.analyze_exn g in
  let code = Ccs.Codegen.emit g ~plan:(Ccs.Baseline.minimal_memory g a) in
  let path = Filename.temp_file "ccsgen" ".ml" in
  let oc = open_out path in
  output_string oc code;
  close_out oc;
  let rc =
    Sys.command
      (Printf.sprintf "ocaml %s not-a-number >/dev/null 2>/dev/null"
         (Filename.quote path))
  in
  Sys.remove path;
  Alcotest.(check int) "usage exit code" 2 rc

let test_deterministic () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:4 () in
  let a = R.analyze_exn g in
  let plan = Ccs.Baseline.minimal_memory g a in
  Alcotest.(check string) "same text twice" (Ccs.Codegen.emit g ~plan)
    (Ccs.Codegen.emit g ~plan)

let () =
  Alcotest.run "codegen"
    [
      ( "differential",
        [
          Alcotest.test_case "pipeline batch" `Quick test_pipeline_batch;
          Alcotest.test_case "multirate chain" `Quick test_multirate_chain;
          Alcotest.test_case "split-join" `Quick test_split_join;
          Alcotest.test_case "beamformer" `Quick test_app_beamformer;
          Alcotest.test_case "delays" `Quick test_delays_respected;
        ] );
      ( "unit",
        [
          Alcotest.test_case "rejects dynamic" `Quick test_rejects_dynamic;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "zero-state source counts" `Quick
            test_zero_state_source;
          Alcotest.test_case "empty window fills 0.25" `Quick
            test_empty_window_fill;
          Alcotest.test_case "multi-sink emit" `Quick test_multi_sink;
          Alcotest.test_case "zero capacity rejected" `Quick
            test_zero_capacity_rejected;
          Alcotest.test_case "argv usage guard" `Quick test_argv_guard;
        ] );
    ]
