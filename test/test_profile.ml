(* Tests for the Profile module: the predicted-vs-measured per-component
   table (Lemmas 4/8) and the Chrome trace export entry points. *)

module G = Ccs.Graph

let profiled ?(outputs = 1000) ?(events = false) ~cache_words name =
  let entry = Option.get (Ccs_apps.Suite.find name) in
  let g = entry.Ccs_apps.Suite.graph () in
  let cfg = Ccs.Config.make ~cache_words ~block_words:16 () in
  let choice = Ccs.Auto.plan ~dynamic:false g cfg in
  let profile =
    Must.ok
      (Ccs.Profile.run ~events ~graph:g
         ~cache:(Ccs.Config.cache_config cfg)
         ~plan:choice.Ccs.Auto.plan ~outputs ())
  in
  (profile, choice)

let test_table_measured_total_is_misses () =
  let profile, choice = profiled ~cache_words:512 "beamformer" in
  let table =
    Ccs.Profile.component_table profile choice.Ccs.Auto.partition
      ~t:choice.Ccs.Auto.batch
  in
  Alcotest.(check int) "measured total = aggregate misses"
    profile.Ccs.Profile.result.Ccs.Runner.misses
    table.Ccs.Profile.measured_total;
  Alcotest.(check int) "one row per component"
    (Ccs.Spec.num_components choice.Ccs.Auto.partition)
    (List.length table.Ccs.Profile.components);
  Alcotest.(check int) "one row per cross edge"
    (List.length (Ccs.Spec.cross_edges choice.Ccs.Auto.partition))
    (List.length table.Ccs.Profile.cross)

let test_prediction_tracks_measurement () =
  (* Beamformer at m=512 does not fit: the Lemma 4/8 decomposition should
     be within a factor of two of the measured split in aggregate (the
     cross-edge terms are near-exact; the reload terms are a model). *)
  let profile, choice = profiled ~cache_words:512 "beamformer" in
  let table =
    Ccs.Profile.component_table profile choice.Ccs.Auto.partition
      ~t:choice.Ccs.Auto.batch
  in
  let ratio =
    float_of_int table.Ccs.Profile.measured_total
    /. float_of_int table.Ccs.Profile.predicted_total
  in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.3f within [0.5, 2]" ratio)
    true
    (ratio >= 0.5 && ratio <= 2.)

let test_resident_prediction_is_cold_misses () =
  (* Filterbank at m=2048 fits entirely: the model charges one cold load
     per region, so predicted is within the same order as measured (a few
     dozen, not tens of thousands). *)
  let profile, choice = profiled ~cache_words:2048 "filterbank" in
  let table =
    Ccs.Profile.component_table profile choice.Ccs.Auto.partition
      ~t:choice.Ccs.Auto.batch
  in
  Alcotest.(check bool)
    (Printf.sprintf "resident prediction small (%d)"
       table.Ccs.Profile.predicted_total)
    true
    (table.Ccs.Profile.predicted_total
    < 10 * max 1 table.Ccs.Profile.measured_total)

let test_table_rejects_bad_t () =
  let profile, choice = profiled ~cache_words:512 "beamformer" in
  match
    Ccs.Profile.component_table profile choice.Ccs.Auto.partition ~t:0
  with
  | _ -> Alcotest.fail "t = 0 must be rejected"
  | exception Invalid_argument _ -> ()

let test_chrome_requires_events () =
  let profile, _ = profiled ~cache_words:512 "beamformer" in
  match Ccs.Profile.chrome profile with
  | _ -> Alcotest.fail "chrome without events must be rejected"
  | exception Invalid_argument _ -> ()

let test_pp_table_renders () =
  let profile, choice = profiled ~cache_words:512 "beamformer" in
  let table =
    Ccs.Profile.component_table profile choice.Ccs.Auto.partition
      ~t:choice.Ccs.Auto.batch
  in
  let s = Format.asprintf "%a" Ccs.Profile.pp_table table in
  Alcotest.(check bool) "mentions components" true
    (String.length s > 0 && String.index_opt s 'c' <> None)

let test_trace_export_writes_file () =
  let profile, _ = profiled ~events:true ~cache_words:512 "beamformer" in
  let path = Filename.temp_file "ccs_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ccs.Trace_export.write ~path (Ccs.Profile.chrome profile);
      let ic = open_in path in
      let len = in_channel_length ic in
      close_in ic;
      Alcotest.(check bool) "non-empty file" true (len > 2))

let () =
  Alcotest.run "profile"
    [
      ( "table",
        [
          Alcotest.test_case "measured total = misses" `Quick
            test_table_measured_total_is_misses;
          Alcotest.test_case "prediction tracks measurement" `Quick
            test_prediction_tracks_measurement;
          Alcotest.test_case "resident prediction" `Quick
            test_resident_prediction_is_cold_misses;
          Alcotest.test_case "rejects t=0" `Quick test_table_rejects_bad_t;
          Alcotest.test_case "pp renders" `Quick test_pp_table_renders;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome requires events" `Quick
            test_chrome_requires_events;
          Alcotest.test_case "writes file" `Quick test_trace_export_writes_file;
        ] );
    ]
