(* Tests for the aggregate linter: every defect class the acceptance bar
   cares about must come back as a structured error naming the offender,
   never as an exception. *)

module G = Ccs.Graph
module B = G.Builder
module E = Ccs.Error

let codes report =
  List.map E.code report.Ccs.Check.errors

let warning_codes report = List.map E.code report.Ccs.Check.warnings

let has code lst = List.mem code lst

(* --- defect class 1: rate-inconsistent graph ------------------------------ *)

let test_rate_inconsistent () =
  let b = B.create () in
  let s = B.add_module b "s" in
  let x = B.add_module b "x" in
  let y = B.add_module b "y" in
  let t = B.add_module b "t" in
  ignore (B.add_channel b ~src:s ~dst:x ~push:1 ~pop:1 ());
  ignore (B.add_channel b ~src:s ~dst:y ~push:2 ~pop:1 ());
  ignore (B.add_channel b ~src:x ~dst:t ~push:1 ~pop:1 ());
  ignore (B.add_channel b ~src:y ~dst:t ~push:1 ~pop:1 ());
  let g = B.build b in
  let r = Ccs.Check.graph g in
  Alcotest.(check bool) "flagged" true (has "rate-inconsistent" (codes r));
  match
    List.find
      (fun e -> E.code e = "rate-inconsistent")
      r.Ccs.Check.errors
  with
  | E.Rate_inconsistent { node; _ } ->
      Alcotest.(check string) "offender named" "t" node
  | _ -> Alcotest.fail "wrong constructor"

(* --- defect class 2: dangling / degenerate edge --------------------------- *)

let test_dangling_edge () =
  let b = B.create () in
  let a = B.add_module b "a" in
  ignore (B.add_module b "b");
  ignore (B.add_channel b ~src:a ~dst:7 ~push:1 ~pop:1 ());
  let r = Ccs.Check.builder b in
  Alcotest.(check bool) "flagged" true (has "dangling-edge" (codes r));
  (match B.build_result b with
  | Error (E.Dangling_edge { endpoint; num_nodes; _ } :: _) ->
      Alcotest.(check int) "endpoint" 7 endpoint;
      Alcotest.(check int) "node count" 2 num_nodes
  | _ -> Alcotest.fail "build_result must report the dangling edge");
  match B.build b with
  | _ -> Alcotest.fail "build must reject"
  | exception G.Invalid_graph _ -> ()

let test_degenerate_edge () =
  let b = B.create () in
  let a = B.add_module b "a" in
  ignore (B.add_module b "b");
  ignore (B.add_channel b ~src:a ~dst:a ~push:1 ~pop:1 ());
  let r = Ccs.Check.builder b in
  Alcotest.(check bool) "flagged" true (has "degenerate-edge" (codes r))

(* --- defect class 3: non-well-ordered partition --------------------------- *)

let test_not_well_ordered () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:4 () in
  let r = Ccs.Check.partition g ~components:[| 1; 0; 1 |] in
  Alcotest.(check bool) "flagged" true (has "not-well-ordered" (codes r));
  match
    List.find (fun e -> E.code e = "not-well-ordered") r.Ccs.Check.errors
  with
  | E.Not_well_ordered { witness; _ } ->
      Alcotest.(check bool) "witness edge present" true
        (String.length witness > 0)
  | _ -> Alcotest.fail "wrong constructor"

let test_partition_wrong_length_is_error () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:4 () in
  let r = Ccs.Check.partition g ~components:[| 0 |] in
  Alcotest.(check bool) "reported, not raised" false (Ccs.Check.is_ok r)

let test_component_overflow () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:100 () in
  let r =
    Ccs.Check.partition ~bound:150 g ~components:[| 0; 0; 0; 0 |]
  in
  Alcotest.(check bool) "flagged" true (has "component-overflow" (codes r));
  match
    List.find (fun e -> E.code e = "component-overflow") r.Ccs.Check.errors
  with
  | E.Component_overflow { state; bound; members; _ } ->
      Alcotest.(check int) "state" 400 state;
      Alcotest.(check int) "bound" 150 bound;
      Alcotest.(check int) "members listed" 4 (List.length members)
  | _ -> Alcotest.fail "wrong constructor"

(* --- defect class 4: capacity below max rate ------------------------------ *)

let test_capacity_below_rate () =
  let b = B.create () in
  let a = B.add_module b ~state:4 "a" in
  let c = B.add_module b ~state:4 "c" in
  ignore (B.add_channel b ~src:a ~dst:c ~push:3 ~pop:3 ());
  let g = B.build b in
  let r = Ccs.Check.capacities g [| 2 |] in
  Alcotest.(check bool) "flagged" true (has "capacity-below-rate" (codes r));
  match
    List.find (fun e -> E.code e = "capacity-below-rate") r.Ccs.Check.errors
  with
  | E.Capacity_below_rate { capacity; required; src; dst; _ } ->
      Alcotest.(check int) "capacity" 2 capacity;
      Alcotest.(check int) "required" 3 required;
      Alcotest.(check string) "src named" "a" src;
      Alcotest.(check string) "dst named" "c" dst
  | _ -> Alcotest.fail "wrong constructor"

let test_capacity_infeasible () =
  (* capacity 3 clears the per-channel floor (max(2,3)) but a 2-push module
     can never raise occupancy from 2 to 3 without overflowing: jointly no
     periodic schedule exists. *)
  let b = B.create () in
  let a = B.add_module b ~state:4 "a" in
  let c = B.add_module b ~state:4 "c" in
  ignore (B.add_channel b ~src:a ~dst:c ~push:2 ~pop:3 ());
  let g = B.build b in
  let r = Ccs.Check.capacities g [| 3 |] in
  Alcotest.(check bool) "flagged" true (has "capacity-infeasible" (codes r))

(* --- defect class 5: deadlock by insufficient delay ----------------------- *)

let test_deadlock_cycle () =
  let b = B.create () in
  let a = B.add_module b "a" in
  let c = B.add_module b "c" in
  ignore (B.add_channel b ~src:a ~dst:c ~push:1 ~pop:1 ());
  ignore (B.add_channel b ~src:c ~dst:a ~push:1 ~pop:1 ());
  let r = Ccs.Check.builder b in
  Alcotest.(check bool) "flagged" true (has "deadlock-cycle" (codes r));
  match
    List.find (fun e -> E.code e = "deadlock-cycle")
      r.Ccs.Check.errors
  with
  | E.Deadlock_cycle { cycle; total_delay } ->
      Alcotest.(check int) "no initial tokens" 0 total_delay;
      Alcotest.(check bool) "cycle names modules" true
        (List.mem "a" cycle && List.mem "c" cycle)
  | _ -> Alcotest.fail "wrong constructor"

(* --- warnings, auto, and the clean path ----------------------------------- *)

let test_cache_overflow_warning () =
  let g = Ccs.Generators.uniform_pipeline ~n:2 ~state:5000 () in
  let cfg = Ccs.Config.make ~cache_words:64 ~block_words:16 () in
  let r = Ccs.Check.auto g cfg in
  (* Oversized state is a degradation, not an illegal input: the stack still
     runs it, so the finding is a warning. *)
  Alcotest.(check bool) "warned" true
    (has "cache-overflow" (warning_codes r));
  Alcotest.(check bool) "still ok" true (Ccs.Check.is_ok r)

let test_auto_clean_on_suite () =
  let cfg = Ccs.Config.make ~cache_words:4096 ~block_words:16 () in
  List.iter
    (fun entry ->
      let g = entry.Ccs_apps.Suite.graph () in
      let r = Ccs.Check.auto g cfg in
      Alcotest.(check bool)
        (entry.Ccs_apps.Suite.name ^ " passes auto check")
        true (Ccs.Check.is_ok r))
    Ccs_apps.Suite.all

let test_empty_graph () =
  let b = B.create () in
  let r = Ccs.Check.builder b in
  Alcotest.(check bool) "flagged" true (has "empty-graph" (codes r))

(* A static plan whose capacity vector is shorter than its channel list
   gets the same structured finding as a longer one from every entry
   point, not an index-out-of-bounds from the period walk. *)
let test_capacities_wrong_length () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:1 () in
  let plan = Ccs.Baseline.minimal_memory g (Ccs.Rates.analyze_exn g) in
  let cache = Ccs.Cache.config ~size_words:256 ~block_words:8 () in
  List.iter
    (fun capacities ->
      let plan = { plan with Ccs.Plan.capacities } in
      let expected =
        [
          Printf.sprintf "plan minimal-memory: %d capacities for 2 channels"
            (Array.length capacities);
        ]
      in
      let strings = List.map E.to_string in
      let show r = Result.fold ~ok:(fun _ -> []) ~error:strings r in
      Alcotest.(check (list string)) "Plan.validate" expected
        (show (Ccs.Plan.validate g plan));
      Alcotest.(check (list string)) "Lowering.lower" expected
        (show (Ccs.Lowering.lower g ~plan ~cache));
      Alcotest.(check (list string)) "Check.plan" expected
        (strings (Ccs.Check.plan g plan).Ccs.Check.errors))
    [ [| 4 |]; [| 4; 4; 4; 4 |] ]

let () =
  Alcotest.run "check"
    [
      ( "defect classes",
        [
          Alcotest.test_case "rate inconsistent" `Quick test_rate_inconsistent;
          Alcotest.test_case "dangling edge" `Quick test_dangling_edge;
          Alcotest.test_case "degenerate edge" `Quick test_degenerate_edge;
          Alcotest.test_case "not well-ordered" `Quick test_not_well_ordered;
          Alcotest.test_case "partition wrong length" `Quick
            test_partition_wrong_length_is_error;
          Alcotest.test_case "component overflow" `Quick
            test_component_overflow;
          Alcotest.test_case "capacity below rate" `Quick
            test_capacity_below_rate;
          Alcotest.test_case "capacity infeasible" `Quick
            test_capacity_infeasible;
          Alcotest.test_case "deadlock cycle" `Quick test_deadlock_cycle;
          Alcotest.test_case "capacities wrong length" `Quick
            test_capacities_wrong_length;
        ] );
      ( "reports",
        [
          Alcotest.test_case "cache overflow warns" `Quick
            test_cache_overflow_warning;
          Alcotest.test_case "suite passes auto" `Quick
            test_auto_clean_on_suite;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
        ] );
    ]
