(* Tests for the high-level API: Config, Auto, Compare, Table. *)

module G = Ccs.Graph
module C = Ccs.Config
module A = Ccs.Auto
module Sp = Ccs.Spec

let test_config_validation () =
  match C.make ~cache_words:4 ~block_words:8 () with
  | _ -> Alcotest.fail "block > cache rejected"
  | exception Invalid_argument _ -> ()

let test_config_accessors () =
  let cfg = C.make ~cache_words:64 ~block_words:8 () in
  Alcotest.(check int) "bound" 192 (C.partition_bound cfg);
  let cc = C.cache_config cfg in
  Alcotest.(check int) "cache size" 64 cc.Ccs.Cache.size_words

let test_auto_whole_when_fits () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:8 () in
  let cfg = C.make ~cache_words:1024 ~block_words:16 () in
  let choice = A.plan g cfg in
  Alcotest.(check int) "single component" 1
    (Sp.num_components choice.A.partition);
  (* Four one-block states plus a block of slack take 80 words, and the
     three unit minimum buffers 3 more: at 80 words the states fit but
     the buffers do not, at 83 both do. *)
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:16 () in
  let components cache_words =
    Sp.num_components
      (A.plan g (C.make ~cache_words ~block_words:16 ())).A.partition
  in
  Alcotest.(check bool) "states fit, buffers do not: partitioned" true
    (components 80 > 1);
  Alcotest.(check int) "states and buffers fit: whole" 1 (components 83)

let test_auto_partitions_when_too_big () =
  let g = Ccs.Generators.uniform_pipeline ~n:16 ~state:64 () in
  let cfg = C.make ~cache_words:256 ~block_words:16 () in
  let choice = A.plan g cfg in
  Alcotest.(check bool) "multiple components" true
    (Sp.num_components choice.A.partition > 1);
  Alcotest.(check bool) "components fit half the cache" true
    (Sp.max_component_state choice.A.partition <= 128);
  Alcotest.(check bool) "well ordered" true
    (Sp.is_well_ordered choice.A.partition)

let test_auto_pipeline_uses_dynamic () =
  let g = Ccs.Generators.uniform_pipeline ~n:16 ~state:64 () in
  let cfg = C.make ~cache_words:256 ~block_words:16 () in
  let dyn = A.plan ~dynamic:true g cfg in
  let stat = A.plan ~dynamic:false g cfg in
  Alcotest.(check bool) "dynamic plan has no static period" true
    (dyn.A.plan.Ccs.Plan.period = None);
  Alcotest.(check bool) "static plan has a period" true
    (stat.A.plan.Ccs.Plan.period <> None)

let test_auto_batch_is_granularity_multiple () =
  let g = Ccs_apps.Mp3.graph ~bands:8 () in
  let cfg = C.make ~cache_words:512 ~block_words:16 () in
  let choice = A.plan g cfg in
  let base = Ccs.Rates.granularity g choice.A.analysis ~at_least:1 in
  Alcotest.(check int) "batch divisible" 0 (choice.A.batch mod base);
  Alcotest.(check bool) "batch >= M" true (choice.A.batch >= 512)

let test_auto_runs_on_every_app () =
  let cfg = C.make ~cache_words:1024 ~block_words:16 () in
  List.iter
    (fun entry ->
      let g = entry.Ccs_apps.Suite.graph () in
      let choice = A.plan g cfg in
      let r, _ =
        Must.ok
          (Ccs.Runner.run ~graph:g ~cache:(C.cache_config cfg)
             ~plan:choice.A.plan ~outputs:100 ())
      in
      Alcotest.(check bool)
        (entry.Ccs_apps.Suite.name ^ " produced outputs")
        true
        (r.Ccs.Runner.outputs >= 100))
    Ccs_apps.Suite.all

let test_compare_report_structure () =
  let g = Ccs.Generators.uniform_pipeline ~n:16 ~state:64 () in
  let cfg = C.make ~cache_words:256 ~block_words:16 () in
  let report = Ccs.Compare.run ~outputs:1000 g cfg in
  Alcotest.(check bool) "has rows" true (List.length report.Ccs.Compare.rows >= 5);
  List.iter
    (fun row ->
      Alcotest.(check bool)
        (row.Ccs.Compare.result.Ccs.Runner.plan_name ^ " ok")
        true row.Ccs.Compare.ok)
    report.Ccs.Compare.rows;
  (* Pipeline: lower bound must be present and respected by every row. *)
  match report.Ccs.Compare.lower_bound with
  | None -> Alcotest.fail "pipeline must have a lower bound"
  | Some lb ->
      List.iter
        (fun row ->
          Alcotest.(check bool) "row >= lb" true
            (row.Ccs.Compare.result.Ccs.Runner.misses_per_input >= lb))
        report.Ccs.Compare.rows

let test_compare_partitioned_wins_when_state_heavy () =
  let g = Ccs.Generators.uniform_pipeline ~n:32 ~state:64 () in
  let cfg = C.make ~cache_words:256 ~block_words:16 () in
  let report = Ccs.Compare.run ~outputs:2000 g cfg in
  let find prefix =
    List.find_map
      (fun row ->
        let n = row.Ccs.Compare.result.Ccs.Runner.plan_name in
        if String.length n >= String.length prefix
           && String.sub n 0 (String.length prefix) = prefix
        then Some row.Ccs.Compare.result.Ccs.Runner.misses_per_input
        else None)
      report.Ccs.Compare.rows
  in
  let partitioned = Option.get (find "partitioned-batch") in
  let naive = Option.get (find "round-robin") in
  Alcotest.(check bool)
    (Printf.sprintf "partitioned %.2f beats naive %.2f 10x" partitioned naive)
    true
    (partitioned *. 10. < naive)

(* What [f] prints on stdout. *)
let captured_stdout f =
  let path = Filename.temp_file "ccs-table" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect f ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved);
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

let test_table_render () =
  let s =
    captured_stdout (fun () ->
        Ccs.Table.print ~header:[ "a"; "bb" ]
          ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ])
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines);
  Alcotest.(check bool) "separator present" true
    (String.length (List.nth lines 1) > 0
    && String.for_all (fun c -> c = '-' || c = ' ') (List.nth lines 1))

let test_plan_validate () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:4 () in
  let a = Ccs.Rates.analyze_exn g in
  let good = Ccs.Baseline.minimal_memory g a in
  Alcotest.(check bool) "good plan ok" true (Ccs.Plan.validate g good = Ok ());
  let bad =
    Ccs.Plan.of_period ~name:"bad" ~capacities:[| 9; 9; 9 |]
      (Ccs.Schedule.of_list [ 0; 1; 2 ])
  in
  (* Never fires the sink: invalid. *)
  Alcotest.(check bool) "sink-less rejected" true
    (Result.is_error (Ccs.Plan.validate g bad));
  let unbalanced =
    Ccs.Plan.of_period ~name:"unbalanced" ~capacities:[| 9; 9; 9 |]
      (Ccs.Schedule.of_list [ 0; 0; 1; 2; 3 ])
  in
  Alcotest.(check bool) "non-periodic rejected" true
    (Result.is_error (Ccs.Plan.validate g unbalanced))

let test_fmt_float () =
  Alcotest.(check string) "nan" "nan" (Ccs.Table.fmt_float Float.nan);
  Alcotest.(check string) "zero" "0" (Ccs.Table.fmt_float 0.);
  Alcotest.(check string) "big" "12346" (Ccs.Table.fmt_float 12345.6);
  Alcotest.(check string) "mid" "42.3" (Ccs.Table.fmt_float 42.31);
  Alcotest.(check string) "small" "0.042" (Ccs.Table.fmt_float 0.0423);
  Alcotest.(check string) "tiny" "1.20e-05" (Ccs.Table.fmt_float 1.2e-5)

let () =
  Alcotest.run "core"
    [
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "accessors" `Quick test_config_accessors;
        ] );
      ( "auto",
        [
          Alcotest.test_case "whole when fits" `Quick test_auto_whole_when_fits;
          Alcotest.test_case "partitions when big" `Quick
            test_auto_partitions_when_too_big;
          Alcotest.test_case "pipeline dynamic" `Quick
            test_auto_pipeline_uses_dynamic;
          Alcotest.test_case "batch granularity" `Quick
            test_auto_batch_is_granularity_multiple;
          Alcotest.test_case "runs on every app" `Slow test_auto_runs_on_every_app;
        ] );
      ( "compare",
        [
          Alcotest.test_case "report structure" `Slow
            test_compare_report_structure;
          Alcotest.test_case "partitioned wins" `Slow
            test_compare_partitioned_wins_when_state_heavy;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "plan validate" `Quick test_plan_validate;
          Alcotest.test_case "fmt_float" `Quick test_fmt_float;
        ] );
    ]
