(* Tests for the baseline schedulers: periodicity, legality, and their
   characteristic buffer footprints. *)

module G = Ccs.Graph
module R = Ccs.Rates
module S = Ccs.Schedule
module P = Ccs.Plan

let check_plan_sound g (plan : P.t) =
  (* The static period must be token-legal at the plan's capacities and
     leave the graph in its initial state; Plan.validate checks both. *)
  match plan.P.period with
  | None -> Alcotest.fail "baselines are static"
  | Some _ ->
      Alcotest.(check bool)
        (plan.P.name ^ " legal and periodic")
        true
        (P.validate g plan = Ok ())

let check_counts g a (plan : P.t) =
  match plan.P.period with
  | None -> ()
  | Some period ->
      Alcotest.(check (array int))
        (plan.P.name ^ " fires repetition vector")
        a.R.repetition
        (S.fire_counts ~num_nodes:(G.num_nodes g) period)

let suite_graphs () =
  List.map
    (fun e -> (e.Ccs_apps.Suite.name, e.Ccs_apps.Suite.graph ()))
    Ccs_apps.Suite.all

let test_single_appearance_sound () =
  List.iter
    (fun (name, g) ->
      ignore name;
      let a = R.analyze_exn g in
      let plan = Ccs.Baseline.single_appearance g a in
      check_plan_sound g plan;
      check_counts g a plan)
    (suite_graphs ())

let test_single_appearance_is_single_appearance () =
  (* Each module appears in exactly one consecutive run. *)
  let g = Ccs_apps.Mp3.graph ~bands:4 () in
  let a = R.analyze_exn g in
  let plan = Ccs.Baseline.single_appearance g a in
  let period = Option.get plan.P.period in
  let seen_done = Hashtbl.create 16 in
  let last = ref (-1) in
  S.iter period ~f:(fun v ->
      if v <> !last then begin
        if Hashtbl.mem seen_done v then
          Alcotest.failf "module %d appears in two separate runs" v;
        if !last >= 0 then Hashtbl.replace seen_done !last ();
        last := v
      end)

let test_minimal_memory_sound () =
  List.iter
    (fun (_, g) ->
      let a = R.analyze_exn g in
      let plan = Ccs.Baseline.minimal_memory g a in
      check_plan_sound g plan;
      check_counts g a plan)
    (suite_graphs ())

let test_round_robin_sound () =
  List.iter
    (fun (_, g) ->
      let a = R.analyze_exn g in
      let plan = Ccs.Baseline.round_robin g a in
      check_plan_sound g plan;
      check_counts g a plan)
    (suite_graphs ())

let test_minimal_memory_smallest_buffers () =
  (* minimal-memory must not use more buffer space than single-appearance
     on rate-heavy graphs (that is its whole point). *)
  List.iter
    (fun (name, g) ->
      let a = R.analyze_exn g in
      let mm = Ccs.Baseline.minimal_memory g a in
      let sa = Ccs.Baseline.single_appearance g a in
      Alcotest.(check bool)
        (name ^ ": minimal <= single-appearance buffers")
        true
        (P.buffer_words mm <= P.buffer_words sa))
    (suite_graphs ())

let test_plan_drive_reaches_target () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:8 () in
  let a = R.analyze_exn g in
  let plan = Ccs.Baseline.round_robin g a in
  let result, machine =
    Ccs.Runner.run ~graph:g
      ~cache:(Ccs.Cache.config ~size_words:128 ~block_words:8 ())
      ~plan ~outputs:100 ()
  in
  Alcotest.(check bool) "reached target" true (result.Ccs.Runner.outputs >= 100);
  Alcotest.(check int) "machine agrees" result.Ccs.Runner.outputs
    (Ccs.Machine.sink_outputs machine)

let test_drive_resumable () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:2 () in
  let a = R.analyze_exn g in
  let plan = Ccs.Baseline.minimal_memory g a in
  let machine =
    Ccs.Machine.create ~graph:g
      ~cache:(Ccs.Cache.config ~size_words:64 ~block_words:8 ())
      ~capacities:plan.P.capacities ()
  in
  plan.P.drive machine ~target_outputs:10;
  let mid = Ccs.Machine.sink_outputs machine in
  plan.P.drive machine ~target_outputs:25;
  Alcotest.(check bool) "made progress in two calls" true
    (mid >= 10 && Ccs.Machine.sink_outputs machine >= 25)

let test_of_period_guards_sink () =
  (* A period that never fires the sink must be rejected by the driver. *)
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:2 () in
  let plan =
    P.of_period ~name:"broken" ~capacities:[| 5; 5 |] (S.of_list [ 0 ])
  in
  let machine =
    Ccs.Machine.create ~graph:g
      ~cache:(Ccs.Cache.config ~size_words:64 ~block_words:8 ())
      ~capacities:plan.P.capacities ()
  in
  match plan.P.drive machine ~target_outputs:1 with
  | () -> Alcotest.fail "must reject sink-less period"
  | exception Invalid_argument _ -> ()
  | exception Ccs.Machine.Not_fireable _ -> ()

let () =
  Alcotest.run "baseline"
    [
      ( "unit",
        [
          Alcotest.test_case "single-appearance sound" `Quick
            test_single_appearance_sound;
          Alcotest.test_case "single-appearance shape" `Quick
            test_single_appearance_is_single_appearance;
          Alcotest.test_case "minimal-memory sound" `Quick
            test_minimal_memory_sound;
          Alcotest.test_case "round-robin sound" `Quick test_round_robin_sound;
          Alcotest.test_case "minimal buffers smallest" `Quick
            test_minimal_memory_smallest_buffers;
          Alcotest.test_case "drive reaches target" `Quick
            test_plan_drive_reaches_target;
          Alcotest.test_case "drive resumable" `Quick test_drive_resumable;
          Alcotest.test_case "sink-less period rejected" `Quick
            test_of_period_guards_sink;
        ] );
    ]
