(* Tests for the bench regression differ: every field must match exactly,
   whatever its name, and experiments pair by id so a quick run diffs
   cleanly against a full baseline. *)

module D = Ccs.Bench_diff

let parse s =
  match Ccs.Json.of_string s with
  | Ok v -> v
  | Error msg -> Alcotest.fail ("test document does not parse: " ^ msg)

let doc ~wall ~misses ~seconds ~records () =
  parse
    (Printf.sprintf
       {|{"schema_version":3,"experiments":[
          {"experiment":"E1","description":"upper bound","wall_s":%g,"cpu_s":0.1,
           "records":[%s]},
          {"experiment":"E7","description":"crossover","wall_s":0.5,"cpu_s":0.4,
           "records":[{"kind":"simulation","misses":%d,"seconds":%g}]}]}|}
       wall records misses seconds)

let base_records = {|{"kind":"bound","misses_per_input":0.25}|}

let base () =
  doc ~wall:1.0 ~misses:100 ~seconds:2.0 ~records:base_records ()

let test_identical_passes () =
  let r = D.diff ~old_doc:(base ()) ~new_doc:(base ()) in
  Alcotest.(check bool) "no failures" false (D.has_failures r);
  Alcotest.(check int) "no findings" 0 (List.length r.D.findings);
  Alcotest.(check int) "experiments" 2 r.D.experiments_compared;
  Alcotest.(check int) "records" 2 r.D.records_compared

let test_miss_regression_fails () =
  let new_doc =
    doc ~wall:1.0 ~misses:101 ~seconds:2.0 ~records:base_records ()
  in
  let r = D.diff ~old_doc:(base ()) ~new_doc in
  Alcotest.(check bool) "failure" true (D.has_failures r);
  match r.D.findings with
  | [ f ] ->
      Alcotest.(check string) "experiment" "E7" f.D.experiment;
      Alcotest.(check string) "field" "misses" f.D.field;
      Alcotest.(check string) "old" "100" f.D.old_value;
      Alcotest.(check string) "new" "101" f.D.new_value
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs))

let test_timing_named_fields_fail () =
  (* The harness records no wall-clock time, so a field named like one
     (an experiment-level wall_s, a record's seconds) is deterministic
     too: any change, however small, is a failure. *)
  let new_doc =
    doc ~wall:1.1 ~misses:100 ~seconds:2.0001 ~records:base_records ()
  in
  let r = D.diff ~old_doc:(base ()) ~new_doc in
  Alcotest.(check bool) "failure" true (D.has_failures r);
  Alcotest.(check (list (pair string (option int))))
    "findings"
    [ ("wall_s", None); ("seconds", Some 0) ]
    (List.map (fun f -> (f.D.field, f.D.record)) r.D.findings)

let test_record_count_change_fails () =
  let new_doc = doc ~wall:1.0 ~misses:100 ~seconds:2.0 ~records:"" () in
  let r = D.diff ~old_doc:(base ()) ~new_doc in
  Alcotest.(check bool) "failure" true (D.has_failures r);
  Alcotest.(check bool) "record count finding" true
    (List.exists
       (fun f -> f.D.field = "records" && f.D.experiment = "E1")
       r.D.findings)

let test_field_appearance_fails () =
  let new_records = {|{"kind":"bound","misses_per_input":0.25,"extra":1}|} in
  let new_doc =
    doc ~wall:1.0 ~misses:100 ~seconds:2.0 ~records:new_records ()
  in
  let r = D.diff ~old_doc:(base ()) ~new_doc in
  Alcotest.(check bool) "failure" true (D.has_failures r);
  Alcotest.(check bool) "appearance finding" true
    (List.exists (fun f -> f.D.field = "extra") r.D.findings)

let test_quick_subset_pairs_by_id () =
  (* New run missing E7 (a quick subset): E7 is informational, not a
     failure; the shared E1, as [base] serializes it, still compares. *)
  let quick =
    parse
      {|{"experiments":[{"experiment":"E1","description":"upper bound",
         "wall_s":1,"cpu_s":0.1,
         "records":[{"kind":"bound","misses_per_input":0.25}]}]}|}
  in
  let r = D.diff ~old_doc:(base ()) ~new_doc:quick in
  Alcotest.(check bool) "no failures" false (D.has_failures r);
  Alcotest.(check int) "one compared" 1 r.D.experiments_compared;
  Alcotest.(check (list string)) "old only" [ "E7" ] r.D.old_only;
  Alcotest.(check (list string)) "new only" [] r.D.new_only

let test_records_pair_by_id () =
  let e22 records =
    parse
      (Printf.sprintf
         {|{"experiments":[{"experiment":"E22","description":"adapt",
            "records":[%s]}]}|}
         records)
  in
  let r id misses = Printf.sprintf {|{"id":"%s","misses":%d}|} id misses in
  let diff o n =
    List.map
      (fun f -> (f.D.field, f.D.old_value, f.D.new_value))
      (D.diff ~old_doc:(e22 o) ~new_doc:(e22 n)).D.findings
  in
  let check = Alcotest.(check (list (triple string string string))) in
  let old_rs = String.concat "," [ r "a" 1; r "b" 2 ] in
  (* Unique ids: order is free, a dropped or added id is a finding. *)
  check "reordered" [] (diff old_rs (String.concat "," [ r "b" 2; r "a" 1 ]));
  check "dropped and added"
    [ ("id", "b", "<absent>"); ("id", "<absent>", "c") ]
    (diff old_rs (String.concat "," [ r "a" 1; r "c" 2 ]));
  (* A repeated id falls back to positional pairing. *)
  check "positional"
    [ ("records", "2", "3"); ("misses", "2", "3") ]
    (diff old_rs (String.concat "," [ r "a" 1; r "b" 3; r "b" 2 ]))

(* --- exact floats ------------------------------------------------------- *)

let float_back f =
  match Ccs.Json.of_string (Ccs.Json.to_string (Ccs.Json.Float f)) with
  | Ok v -> Ccs.Json.to_float v
  | Error _ -> None

let same_bits f g = Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)

let prop_floats_round_trip =
  QCheck2.Test.make ~name:"json floats round-trip bit for bit" ~count:2000
    ~print:(fun b -> Printf.sprintf "%h" (Int64.float_of_bits b))
    QCheck2.Gen.int64 (fun bits ->
      let f = Int64.float_of_bits bits in
      QCheck2.assume (Float.is_finite f);
      match float_back f with Some g -> same_bits f g | None -> false)

let test_float_edge_cases () =
  List.iter
    (fun f ->
      match float_back f with
      | Some g when same_bits f g -> ()
      | _ -> Alcotest.failf "%h does not round-trip" f)
    [ -0.; 0.; 0.1; 1. /. 3.; 5e-324; Float.max_float; 1024.0000000018608 ];
  (* Shortest form: a float that 15 digits pin down keeps its short text. *)
  Alcotest.(check string) "0.1" "0.1" (Ccs.Json.float_to_string 0.1);
  Alcotest.(check string) "checksum" "1024.0000000018608"
    (Ccs.Json.float_to_string 1024.0000000018608)

(* A float field that moves by one unit in the last place, below the 12
   significant digits the emitter used to keep, is a finding. *)
let test_last_digit_change_fails () =
  let doc f =
    parse
      (Ccs.Json.to_string
         (Ccs.Json.Obj
            [
              ( "experiments",
                Ccs.Json.List
                  [
                    Ccs.Json.Obj
                      [
                        ("experiment", Ccs.Json.String "E23");
                        ( "records",
                          Ccs.Json.List
                            [ Ccs.Json.Obj [ ("checksum", Ccs.Json.Float f) ] ]
                        );
                      ];
                  ] );
            ]))
  in
  let f = 1024.0000000018608 in
  let r = D.diff ~old_doc:(doc f) ~new_doc:(doc (Float.succ f)) in
  match r.D.findings with
  | [ finding ] ->
      Alcotest.(check string) "field" "checksum" finding.D.field;
      Alcotest.(check bool) "old and new values print apart" true
        (finding.D.old_value <> finding.D.new_value)
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)

let test_diff_files_roundtrip () =
  let write path doc =
    let oc = open_out path in
    output_string oc doc;
    close_out oc
  in
  let dir = Filename.get_temp_dir_name () in
  let old_path = Filename.concat dir "ccs-bdiff-old.json"
  and new_path = Filename.concat dir "ccs-bdiff-new.json" in
  let doc_text =
    {|{"experiments":[{"experiment":"E1","description":"d","wall_s":1.0,
       "cpu_s":1.0,"records":[{"misses":5}]}]}|}
  in
  write old_path doc_text;
  write new_path doc_text;
  (match D.diff_files ~old_path ~new_path with
  | Ok r -> Alcotest.(check bool) "clean" false (D.has_failures r)
  | Error msg -> Alcotest.fail msg);
  (match D.diff_files ~old_path ~new_path:(new_path ^ ".missing") with
  | Ok _ -> Alcotest.fail "missing file must be an error"
  | Error _ -> ());
  Sys.remove old_path;
  Sys.remove new_path

let () =
  Alcotest.run "bench_diff"
    [
      ( "diff",
        [
          Alcotest.test_case "identical passes" `Quick test_identical_passes;
          Alcotest.test_case "miss regression fails" `Quick
            test_miss_regression_fails;
          Alcotest.test_case "timing-named fields fail" `Quick
            test_timing_named_fields_fail;
          Alcotest.test_case "record count change fails" `Quick
            test_record_count_change_fails;
          Alcotest.test_case "field appearance fails" `Quick
            test_field_appearance_fails;
          Alcotest.test_case "quick subset pairs by id" `Quick
            test_quick_subset_pairs_by_id;
          Alcotest.test_case "records pair by id" `Quick
            test_records_pair_by_id;
        ] );
      ( "floats",
        [
          QCheck_alcotest.to_alcotest prop_floats_round_trip;
          Alcotest.test_case "edge cases" `Quick test_float_edge_cases;
          Alcotest.test_case "last-digit change fails" `Quick
            test_last_digit_change_fails;
        ] );
      ( "files",
        [
          Alcotest.test_case "diff_files roundtrip" `Quick
            test_diff_files_roundtrip;
        ] );
    ]
