(* Tests for the guarded plan driver and fault containment.  Every path
   that runs a plan drives it through [Runner.drive], so a wedged,
   livelocked or early-returning plan must come back from each one as a
   diagnostic snapshot (not a hang or a raw exception), and every injected
   kernel fault class must be contained with the offending module named. *)

module G = Ccs.Graph
module B = G.Builder
module E = Ccs.Error

let cache = Ccs.Cache.config ~size_words:256 ~block_words:16 ()

(* Every way to run a plan, reduced to its error. *)
let drivers =
  [
    ( "Runner.run",
      fun g plan ~outputs ->
        Result.map ignore (Ccs.Runner.run ~graph:g ~cache ~plan ~outputs ())
    );
    ( "Profile.run",
      fun g plan ~outputs ->
        Result.map ignore (Ccs.Profile.run ~graph:g ~cache ~plan ~outputs ())
    );
    ( "Runner.run_with_latency",
      fun g plan ~outputs ->
        Result.map ignore
          (Ccs.Runner.run_with_latency ~graph:g ~cache ~plan ~outputs ()) );
    ( "Engine.run_plan",
      fun g plan ~outputs ->
        let program = Ccs.Program.create g (Ccs.Codegen.codegen_semantics g) in
        Result.bind
          (Ccs.Engine.create ~program ~cache
             ~capacities:plan.Ccs.Plan.capacities ())
          (fun engine ->
            Result.map ignore (Ccs.Engine.run_plan engine plan ~outputs)) );
  ]

(* Run a plan that must fail through every driver and check each error. *)
let through_every_driver g plan ~outputs check =
  List.iter
    (fun (name, run) ->
      match run g plan ~outputs with
      | Ok () -> Alcotest.failf "%s: stalled plan reported success" name
      | Error e -> check name e
      | exception exn ->
          Alcotest.failf "%s raised %s" name (Printexc.to_string exn))
    drivers

(* a -> c with push 2, pop 3: capacity 3 admits one firing of [a] (2
   tokens), after which neither endpoint can move — [a] would overflow,
   [c] is a token short. *)
let wedge_graph () =
  let b = B.create ~name:"wedge" () in
  let a = B.add_module b ~state:4 "a" in
  let c = B.add_module b ~state:4 "c" in
  ignore (B.add_channel b ~src:a ~dst:c ~push:2 ~pop:3 ());
  B.build b

let greedy_driver m ~target_outputs =
  let g = Ccs.Machine.graph m in
  let rec go () =
    if Ccs.Machine.sink_outputs m < target_outputs then (
      match List.find_opt (Ccs.Machine.can_fire m) (G.nodes g) with
      | Some v ->
          Ccs.Machine.fire m v;
          go ()
      | None ->
          (* Force the machine's own diagnostic instead of hanging. *)
          Ccs.Machine.fire m 0)
  in
  go ()

let test_deadlock_diagnostic () =
  let g = wedge_graph () in
  let plan =
    Ccs.Plan.dynamic ~name:"greedy" ~capacities:[| 3 |] greedy_driver
  in
  through_every_driver g plan ~outputs:5 (fun name -> function
    | E.Deadlocked { snapshot; detail; _ } ->
        Alcotest.(check int) (name ^ ": one firing happened") 1
          snapshot.E.fired;
        (match snapshot.E.channels with
        | [ ch ] ->
            Alcotest.(check int) (name ^ ": occupancy") 2 ch.E.occupied;
            Alcotest.(check int) (name ^ ": capacity") 3 ch.E.capacity
        | _ -> Alcotest.failf "%s: expected one channel in snapshot" name);
        Alcotest.(check int) (name ^ ": both modules blocked") 2
          (List.length snapshot.E.blocked);
        Alcotest.(check bool) (name ^ ": detail names a module") true
          (String.length detail > 0)
    | e -> Alcotest.failf "%s: expected Deadlocked, got %s" name (E.code e))

(* A driver that ignores its target and fires forever: the budget must cut
   it off with a diagnostic rather than letting it spin. *)
let spin_plan g =
  let spin m ~target_outputs:_ =
    let rec go () =
      match List.find_opt (Ccs.Machine.can_fire m) (G.nodes g) with
      | Some v ->
          Ccs.Machine.fire m v;
          go ()
      | None -> ()
    in
    go ()
  in
  Ccs.Plan.dynamic ~name:"spin" ~capacities:[| 4 |] spin

let test_budget_exhaustion () =
  let g = Ccs.Generators.uniform_pipeline ~n:2 ~state:4 () in
  let plan = spin_plan g in
  let exhausted name expected = function
    | E.Budget_exhausted { budget; snapshot; _ } ->
        Alcotest.(check int) (name ^ ": budget echoed") expected budget;
        Alcotest.(check int) (name ^ ": all firings spent") expected
          snapshot.E.fired
    | e ->
        Alcotest.failf "%s: expected Budget_exhausted, got %s" name (E.code e)
  in
  (* The default budget, through every driver... *)
  let default =
    Ccs.Runner.default_budget ~capacities:[| 4 |] g
      ~cache_words:cache.Ccs.Cache.size_words ~outputs:5
  in
  through_every_driver g plan ~outputs:5 (fun name -> exhausted name default);
  (* ...and an explicit one where a driver takes it. *)
  (match Ccs.Runner.run ~budget:100 ~graph:g ~cache ~plan ~outputs:5 () with
  | Error e -> exhausted "Runner.run ~budget" 100 e
  | Ok _ -> Alcotest.fail "runaway driver reported success");
  let program = Ccs.Program.create g (Ccs.Codegen.codegen_semantics g) in
  let engine = Ccs.Engine.of_plan ~program ~cache ~plan () in
  match Ccs.Engine.run_plan ~budget:100 engine plan ~outputs:5 with
  | Error e -> exhausted "Engine.run_plan ~budget" 100 e
  | Ok _ -> Alcotest.fail "runaway driver reported success"

let test_early_return_caught () =
  let g = Ccs.Generators.uniform_pipeline ~n:2 ~state:4 () in
  let lazy_driver _ ~target_outputs:_ = () in
  let plan = Ccs.Plan.dynamic ~name:"lazy" ~capacities:[| 4 |] lazy_driver in
  through_every_driver g plan ~outputs:5 (fun name -> function
    | E.Deadlocked { detail; snapshot; _ } ->
        Alcotest.(check bool) (name ^ ": reports shortfall") true
          (String.length detail > 0);
        Alcotest.(check int) (name ^ ": nothing fired") 0 snapshot.E.fired
    | e -> Alcotest.failf "%s: expected Deadlocked, got %s" name (E.code e))

let test_bad_capacity_structured () =
  (* Machine.create rejects capacity < max rate; every driver must surface
     that as a structured error, not Invalid_argument. *)
  let g = wedge_graph () in
  let plan =
    Ccs.Plan.dynamic ~name:"greedy" ~capacities:[| 1 |] greedy_driver
  in
  through_every_driver g plan ~outputs:1 (fun name e ->
      Alcotest.(check string) (name ^ ": code") "failure" (E.code e))

let test_budget_saturates () =
  (* Regression: with extreme cache sizes / output targets the budget
     formula used to overflow to a negative value, making the very first
     firing "exceed" it.  It must saturate at max_int instead. *)
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:8 () in
  let b =
    Ccs.Runner.default_budget g ~cache_words:(max_int / 2)
      ~outputs:(max_int / 2)
  in
  Alcotest.(check bool) "budget positive" true (b > 0);
  let b2 = Ccs.Runner.default_budget g ~cache_words:max_int ~outputs:max_int in
  Alcotest.(check int) "fully saturated" max_int b2

let test_watchdog_happy_path () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:8 () in
  let cfg = Ccs.Config.make ~cache_words:256 ~block_words:16 () in
  let plan = (Ccs.Auto.plan g cfg).Ccs.Auto.plan in
  List.iter
    (fun (name, run) ->
      match run g plan ~outputs:100 with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "%s: clean run failed: %s" name (E.to_string e))
    drivers;
  let result, _ =
    Must.ok (Ccs.Runner.run ~graph:g ~cache ~plan ~outputs:100 ())
  in
  Alcotest.(check bool) "target met" true (result.Ccs.Runner.outputs >= 100)

(* --- fault containment ----------------------------------------------------- *)

let engine_for g fault =
  let cfg = Ccs.Config.make ~cache_words:256 ~block_words:16 () in
  let choice = Ccs.Auto.plan ~dynamic:false g cfg in
  let program =
    Ccs.Program.inject fault
      (Ccs.Program.create g (Ccs.Codegen.codegen_semantics g))
  in
  ( Ccs.Engine.create ~program ~cache:(Ccs.Config.cache_config cfg)
      ~capacities:choice.Ccs.Auto.plan.Ccs.Plan.capacities (),
    choice.Ccs.Auto.plan )

let test_fault_kernel_exception () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:8 () in
  let fault =
    Ccs.Fault.of_sites g
      [ { Ccs.Fault.node = 1; fault = E.Kernel_exception; at_fire = 2 } ]
  in
  match engine_for g fault with
  | Error e, _ -> Alcotest.fail ("engine build failed: " ^ E.to_string e)
  | Ok engine, plan -> (
      match Ccs.Engine.run_plan engine plan ~outputs:50 with
      | Ok _ -> Alcotest.fail "injected exception not contained"
      | Error (E.Fault { node; fault = E.Kernel_exception; _ }) ->
          Alcotest.(check string) "module named" (G.node_name g 1) node
      | Error e -> Alcotest.fail ("wrong containment: " ^ E.to_string e))

let test_fault_nan_output () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:8 () in
  let fault =
    Ccs.Fault.of_sites g
      [ { Ccs.Fault.node = 0; fault = E.Nan_output; at_fire = 0 } ]
  in
  match engine_for g fault with
  | Error e, _ -> Alcotest.fail ("engine build failed: " ^ E.to_string e)
  | Ok engine, plan -> (
      match Ccs.Engine.run_plan engine plan ~outputs:50 with
      | Ok _ -> Alcotest.fail "NaN output not contained"
      | Error (E.Fault { node; fault = E.Nan_output; _ }) ->
          Alcotest.(check string) "module named" (G.node_name g 0) node
      | Error e -> Alcotest.fail ("wrong containment: " ^ E.to_string e))

let test_fault_bad_state_arity () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:8 () in
  let fault =
    Ccs.Fault.of_sites g
      [ { Ccs.Fault.node = 2; fault = E.Bad_state_arity; at_fire = 0 } ]
  in
  match engine_for g fault with
  | Ok _, _ -> Alcotest.fail "wrong-arity state not caught at build"
  | Error (E.Fault { node; fault = E.Bad_state_arity; _ }), _ ->
      Alcotest.(check string) "module named" (G.node_name g 2) node
  | Error e, _ -> Alcotest.fail ("wrong containment: " ^ E.to_string e)

let test_fault_plan_deterministic () =
  let g = Ccs.Generators.uniform_pipeline ~n:5 ~state:8 () in
  let sites seed = Ccs.Fault.sites (Ccs.Fault.plan ~seed ~count:4 g) in
  Alcotest.(check bool) "same seed, same sites" true (sites 42 = sites 42);
  Alcotest.(check bool) "plan is nonempty" true (List.length (sites 42) = 4)

let test_fault_plan_sites_distinct () =
  (* Regression: colliding draws used to be kept silently, yielding plans
     with fewer effective sites than requested.  Every (module, firing)
     pair must now be unique, across many seeds. *)
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:8 () in
  for seed = 0 to 49 do
    let sites = Ccs.Fault.sites (Ccs.Fault.plan ~seed ~count:20 ~horizon:8 g) in
    let keys =
      List.map (fun s -> (s.Ccs.Fault.node, s.Ccs.Fault.at_fire)) sites
    in
    Alcotest.(check int)
      (Printf.sprintf "20 distinct sites (seed %d)" seed)
      20
      (List.length (List.sort_uniq compare keys))
  done

let test_fault_plan_empty_graph () =
  (* Regression: drawing fault sites over a module-less graph used to crash
     with Division_by_zero.  Builder.build refuses such graphs outright
     (structured Empty_graph defect), and the guard inside Fault.plan keeps
     the invariant even for graphs arriving by other routes. *)
  (match G.Builder.build_result (G.Builder.create ~name:"empty" ()) with
  | Ok _ -> Alcotest.fail "empty graph built"
  | Error errs ->
      Alcotest.(check bool) "Empty_graph among defects" true
        (List.exists (fun e -> E.code e = "empty-graph") errs));
  (* A zero-site plan is a fine no-op regardless of graph size. *)
  let g = Ccs.Generators.uniform_pipeline ~n:2 ~state:8 () in
  Alcotest.(check int) "count=0 is fine" 0
    (List.length (Ccs.Fault.sites (Ccs.Fault.plan ~seed:7 ~count:0 g)))

let test_fault_plan_over_capacity () =
  (* More sites than the modules x horizon space can hold cannot all be
     distinct; the request must be rejected up front, not spin forever. *)
  let g = Ccs.Generators.uniform_pipeline ~n:2 ~state:8 () in
  match Ccs.Fault.plan ~seed:1 ~count:7 ~horizon:3 g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "over-capacity site count accepted"

(* The printer breaks between lines only: a caller's "@." ends the last
   line instead of printing an empty one after it. *)
let test_fault_plan_printer () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:8 () in
  let pp fault = Format.asprintf "%a" Ccs.Fault.pp fault in
  Alcotest.(check string) "two sites"
    "fault plan (2 sites)\n\
    \  kernel-exception on firing 2 of m1\n\
    \  nan-output on firing 0 of m0"
    (pp
       (Ccs.Fault.of_sites g
          [
            { Ccs.Fault.node = 1; fault = E.Kernel_exception; at_fire = 2 };
            { Ccs.Fault.node = 0; fault = E.Nan_output; at_fire = 0 };
          ]));
  Alcotest.(check string) "no sites" "fault plan (0 sites)"
    (pp (Ccs.Fault.of_sites g []))

let test_clean_program_unaffected () =
  (* An engine with validation on but no injected faults must behave
     exactly like the plain runner path. *)
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:8 () in
  let fault = Ccs.Fault.of_sites g [] in
  match engine_for g fault with
  | Error e, _ -> Alcotest.fail ("engine build failed: " ^ E.to_string e)
  | Ok engine, plan -> (
      match Ccs.Engine.run_plan engine plan ~outputs:50 with
      | Ok result ->
          Alcotest.(check bool) "target met" true
            (result.Ccs.Runner.outputs >= 50)
      | Error e -> Alcotest.fail ("clean run failed: " ^ E.to_string e))

let () =
  Alcotest.run "watchdog"
    [
      ( "watchdog",
        [
          Alcotest.test_case "deadlock diagnostic" `Quick
            test_deadlock_diagnostic;
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
          Alcotest.test_case "early return caught" `Quick
            test_early_return_caught;
          Alcotest.test_case "bad capacity structured" `Quick
            test_bad_capacity_structured;
          Alcotest.test_case "budget saturates" `Quick test_budget_saturates;
          Alcotest.test_case "happy path" `Quick test_watchdog_happy_path;
        ] );
      ( "fault containment",
        [
          Alcotest.test_case "kernel exception" `Quick
            test_fault_kernel_exception;
          Alcotest.test_case "nan output" `Quick test_fault_nan_output;
          Alcotest.test_case "bad state arity" `Quick
            test_fault_bad_state_arity;
          Alcotest.test_case "seeded plan deterministic" `Quick
            test_fault_plan_deterministic;
          Alcotest.test_case "seeded plan sites distinct" `Quick
            test_fault_plan_sites_distinct;
          Alcotest.test_case "empty graph rejected" `Quick
            test_fault_plan_empty_graph;
          Alcotest.test_case "over-capacity count rejected" `Quick
            test_fault_plan_over_capacity;
          Alcotest.test_case "clean program unaffected" `Quick
            test_clean_program_unaffected;
          Alcotest.test_case "plan printer breaks between lines only" `Quick
            test_fault_plan_printer;
        ] );
    ]
