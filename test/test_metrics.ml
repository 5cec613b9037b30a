(* Tests for the metrics registry and the structured logger: handle
   readback, idempotent registration, Prometheus exposition (escaping,
   cumulative buckets), histogram bucketing invariants (QCheck), the
   JSON-lines log shape, and the central telemetry soundness invariant —
   attaching a registry leaves the simulation bit-identical. *)

module M = Ccs.Metrics

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* --- registry basics ------------------------------------------------------ *)

let test_counter_gauge_basics () =
  let t = M.create () in
  let c = M.counter t "requests_total" in
  let g = M.gauge t "queue_depth" in
  M.inc c;
  M.inc c;
  M.add c 5;
  M.set g 42;
  Alcotest.(check int) "counter" 7 (M.counter_value c);
  Alcotest.(check int) "gauge" 42 (M.gauge_value g);
  Alcotest.(check (option int)) "by name" (Some 7) (M.value t "requests_total");
  Alcotest.(check int) "series" 2 (M.num_series t)

let test_registration_idempotent () =
  let t = M.create () in
  let a = M.counter t ~labels:[ ("proc", "0") ] "ccs_cache_misses" in
  let b = M.counter t ~labels:[ ("proc", "0") ] "ccs_cache_misses" in
  let other = M.counter t ~labels:[ ("proc", "1") ] "ccs_cache_misses" in
  M.inc a;
  M.inc b;
  Alcotest.(check int) "same slots" 2 (M.counter_value a);
  Alcotest.(check int) "distinct labels distinct slots" 0
    (M.counter_value other);
  Alcotest.(check int) "two series" 2 (M.num_series t)

let test_kind_conflict_rejected () =
  let t = M.create () in
  let (_ : M.counter) = M.counter t "x_total" in
  (match M.gauge t "x_total" with
  | _ -> Alcotest.fail "kind conflict must be rejected"
  | exception Invalid_argument _ -> ());
  match M.counter t "bad name" with
  | _ -> Alcotest.fail "invalid metric name must be rejected"
  | exception Invalid_argument _ -> ()

(* --- Prometheus exposition ------------------------------------------------ *)

let test_prometheus_escaping () =
  let t = M.create () in
  let c =
    M.counter t
      ~help:"line one\nline two with \\ backslash"
      ~labels:[ ("app", "quo\"te\\back\nnl") ]
      "ccs_test_total"
  in
  M.inc c;
  let text = M.to_prometheus t in
  Alcotest.(check bool) "help escaped" true
    (contains ~needle:"# HELP ccs_test_total line one\\nline two with \\\\ backslash"
       text);
  Alcotest.(check bool) "label value escaped" true
    (contains ~needle:"app=\"quo\\\"te\\\\back\\nnl\"" text);
  Alcotest.(check bool) "no raw newline in label" false
    (contains ~needle:"back\nnl" text);
  Alcotest.(check bool) "sample line" true
    (contains ~needle:"} 1\n" text)

let test_prometheus_histogram_shape () =
  let t = M.create () in
  let h = M.histogram t "ccs_ticks" in
  List.iter (M.observe h) [ 1; 1; 3; 100; 0 ];
  let text = M.to_prometheus t in
  Alcotest.(check bool) "TYPE histogram" true
    (contains ~needle:"# TYPE ccs_ticks histogram" text);
  (* Buckets are cumulative: le=0 -> 1, le=1 -> 3, le=3 -> 4, le=127 -> 5. *)
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ String.escaped needle) true
        (contains ~needle text))
    [
      "ccs_ticks_bucket{le=\"0\"} 1\n";
      "ccs_ticks_bucket{le=\"1\"} 3\n";
      "ccs_ticks_bucket{le=\"3\"} 4\n";
      "ccs_ticks_bucket{le=\"127\"} 5\n";
      "ccs_ticks_bucket{le=\"+Inf\"} 5\n";
      "ccs_ticks_sum 105\n";
      "ccs_ticks_count 5\n";
    ]

let test_json_snapshot_parses () =
  let t = M.create () in
  let c = M.counter t ~help:"a counter" "ccs_a_total" in
  let h = M.histogram t "ccs_h" in
  M.inc c;
  M.observe h 9;
  match Ccs.Json.of_string (M.to_json_string t) with
  | Error msg -> Alcotest.fail ("snapshot does not parse: " ^ msg)
  | Ok doc -> (
      match Ccs.Json.member "counters" doc with
      | Some (Ccs.Json.List [ _ ]) -> ()
      | _ -> Alcotest.fail "expected one counter in the snapshot")

(* --- histogram invariants (QCheck) ---------------------------------------- *)

let gen_observations =
  QCheck2.Gen.(list_size (int_range 0 200) (int_range (-4) 1_000_000))

let prop_histogram_invariants =
  QCheck2.Test.make ~name:"histogram: buckets partition the observations"
    ~count:200 gen_observations (fun obs ->
      let t = M.create () in
      let h = M.histogram t "ccs_prop" in
      List.iter (M.observe h) obs;
      let buckets = M.histogram_buckets h in
      (* Bucket counts sum to the observation count; sum matches. *)
      List.fold_left ( + ) 0 buckets = List.length obs
      && M.histogram_count h = List.length obs
      && M.histogram_sum h = List.fold_left ( + ) 0 obs
      (* Every observation falls in the bucket whose bounds contain it:
         bucket [k] holds [[2^(k-1), 2^k)], bucket 0 the non-positive
         values. *)
      && List.for_all
           (fun v ->
             let one = M.histogram (M.create ()) "ccs_one" in
             M.observe one v;
             let le k = if k = 0 then 0 else (1 lsl k) - 1 in
             match List.find_index (( = ) 1) (M.histogram_buckets one) with
             | Some k -> v <= le k && (k = 0 || v > le (k - 1))
             | None -> false)
           obs)

(* --- structured log ------------------------------------------------------- *)

let test_log_json_lines () =
  let buf = Buffer.create 256 in
  let log = Ccs.Log.to_buffer buf in
  Ccs.Log.info log "epoch" [ ("epoch", Ccs.Json.Int 1) ];
  Ccs.Log.log log Ccs.Log.Debug "invisible" [] (* below threshold *);
  Ccs.Log.warn log "retry" [ ("site", Ccs.Json.String "du\"de") ];
  Alcotest.(check int) "two lines counted" 2 (Ccs.Log.lines log);
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "two lines emitted" 2 (List.length lines);
  List.iteri
    (fun i line ->
      match Ccs.Json.of_string line with
      | Error msg -> Alcotest.fail ("line does not parse: " ^ msg)
      | Ok doc ->
          Alcotest.(check (option bool))
            "seq is deterministic" (Some true)
            (Option.map (fun v -> v = Ccs.Json.Int i) (Ccs.Json.member "seq" doc)))
    lines;
  Alcotest.(check bool) "event name present" true
    (contains ~needle:"\"ev\":\"retry\"" (Buffer.contents buf))

(* --- telemetry is free ---------------------------------------------------- *)

let test_metrics_bit_identical () =
  let check ~label g ~cache_words =
    let cfg = Ccs.Config.make ~cache_words ~block_words:16 () in
    let cache = Ccs.Config.cache_config cfg in
    let choice = Ccs.Auto.plan ~dynamic:false g cfg in
    let plan = choice.Ccs.Auto.plan in
    let plain, _ =
      Must.ok (Ccs.Runner.run ~graph:g ~cache ~plan ~outputs:2000 ())
    in
    let metrics = M.create () in
    let metered, machine =
      Must.ok (Ccs.Runner.run ~metrics ~graph:g ~cache ~plan ~outputs:2000 ())
    in
    Alcotest.(check int) (label ^ " same misses") plain.Ccs.Runner.misses
      metered.Ccs.Runner.misses;
    Alcotest.(check int) (label ^ " same accesses") plain.Ccs.Runner.accesses
      metered.Ccs.Runner.accesses;
    Alcotest.(check (option int)) (label ^ " fires exported")
      (Some (Ccs.Machine.total_fires machine))
      (M.value metrics "ccs_machine_fires_total");
    Alcotest.(check (option int)) (label ^ " misses exported")
      (Some metered.Ccs.Runner.misses)
      (M.value metrics "ccs_cache_misses");
    Alcotest.(check int) (label ^ " series") 6 (M.num_series metrics)
  in
  check ~label:"uniform pipeline"
    (Ccs.Generators.uniform_pipeline ~n:12 ~state:96 ())
    ~cache_words:512;
  List.iter
    (fun entry ->
      check ~label:entry.Ccs_apps.Suite.name
        (entry.Ccs_apps.Suite.graph ()) ~cache_words:2048)
    Ccs_apps.Suite.all

let test_supervisor_metrics_bit_identical () =
  let g = Ccs.Generators.uniform_pipeline ~n:8 ~state:64 () in
  let cfg = Ccs.Config.make ~cache_words:512 ~block_words:16 () in
  let cache = Ccs.Config.cache_config cfg in
  let choice = Ccs.Auto.plan ~dynamic:false g cfg in
  let plan = choice.Ccs.Auto.plan in
  let supervised ?metrics ?log () =
    match Ccs.Supervisor.run ?metrics ?log ~graph:g ~cache ~plan ~outputs:2000 () with
    | Ok report -> report
    | Error e -> Alcotest.fail (Ccs.Error.to_string e)
  in
  let plain = supervised () in
  let metrics = M.create () in
  let buf = Buffer.create 256 in
  let metered = supervised ~metrics ~log:(Ccs.Log.to_buffer buf) () in
  Alcotest.(check int) "same misses"
    plain.Ccs.Supervisor.result.Ccs.Runner.misses
    metered.Ccs.Supervisor.result.Ccs.Runner.misses;
  Alcotest.(check (option int)) "epochs exported"
    (Some metered.Ccs.Supervisor.epochs)
    (M.value metrics "ccs_supervisor_epochs_total");
  Alcotest.(check bool) "run_start logged" true
    (contains ~needle:"\"ev\":\"run_start\"" (Buffer.contents buf));
  Alcotest.(check bool) "run_end logged" true
    (contains ~needle:"\"ev\":\"run_end\"" (Buffer.contents buf))

let () =
  Alcotest.run "metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "counter/gauge basics" `Quick
            test_counter_gauge_basics;
          Alcotest.test_case "registration idempotent" `Quick
            test_registration_idempotent;
          Alcotest.test_case "kind conflict rejected" `Quick
            test_kind_conflict_rejected;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "prometheus escaping" `Quick
            test_prometheus_escaping;
          Alcotest.test_case "prometheus histogram shape" `Quick
            test_prometheus_histogram_shape;
          Alcotest.test_case "json snapshot parses" `Quick
            test_json_snapshot_parses;
        ] );
      ("histogram", [ QCheck_alcotest.to_alcotest prop_histogram_invariants ]);
      ("log", [ Alcotest.test_case "json lines" `Quick test_log_json_lines ]);
      ( "soundness",
        [
          Alcotest.test_case "runner bit-identical" `Quick
            test_metrics_bit_identical;
          Alcotest.test_case "supervisor bit-identical" `Quick
            test_supervisor_metrics_bit_identical;
        ] );
    ]
