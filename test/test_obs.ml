(* Tests for the observability layer: attribution counters, the event
   tracer, trace export, and the central soundness invariant — per-entity
   misses sum exactly to the machine's aggregate miss counter, and
   attaching no observer leaves the simulation bit-identical. *)

module G = Ccs.Graph
module R = Ccs.Rates

(* --- Counters ------------------------------------------------------------ *)

let test_counters_basics () =
  let c = Ccs.Counters.create ~entities:3 in
  Alcotest.(check int) "entities" 3 (Ccs.Counters.entities c);
  Ccs.Counters.record c 0 ~hit:true;
  Ccs.Counters.record c 0 ~hit:false;
  Ccs.Counters.record c 2 ~hit:false;
  Alcotest.(check int) "accesses 0" 2 (Ccs.Counters.accesses c 0);
  Alcotest.(check int) "misses 0" 1 (Ccs.Counters.misses c 0);
  Alcotest.(check int) "accesses 1" 0 (Ccs.Counters.accesses c 1);
  Alcotest.(check int) "total accesses" 3 (Ccs.Counters.total_accesses c);
  Alcotest.(check int) "total misses" 2 (Ccs.Counters.total_misses c);
  Ccs.Counters.reset c;
  Alcotest.(check int) "reset" 0 (Ccs.Counters.total_accesses c)

let test_counters_rejects_negative () =
  match Ccs.Counters.create ~entities:(-1) with
  | _ -> Alcotest.fail "negative entities must be rejected"
  | exception Invalid_argument _ -> ()

(* --- Tracer -------------------------------------------------------------- *)

let test_tracer_fire_duration () =
  let tr = Ccs.Tracer.create () in
  let h = Ccs.Tracer.begin_fire tr ~node:7 in
  Ccs.Tracer.advance tr 5;
  Ccs.Tracer.end_fire tr h;
  Alcotest.(check int) "one event" 1 (Ccs.Tracer.length tr);
  let e = Ccs.Tracer.get tr 0 in
  Alcotest.(check bool) "kind fire" true (e.Ccs.Tracer.kind = Ccs.Tracer.Fire);
  Alcotest.(check int) "node" 7 e.Ccs.Tracer.id;
  Alcotest.(check int) "ts" 0 e.Ccs.Tracer.ts;
  Alcotest.(check int) "duration patched" 5 e.Ccs.Tracer.arg

let test_tracer_ring_keeps_newest () =
  (* A full buffer overwrites the *oldest* event: the stored window is
     always the most recent [limit] events, and [dropped] counts the
     overwritten ones. *)
  let tr = Ccs.Tracer.create ~limit:2 () in
  Ccs.Tracer.load tr ~owner:0 ~block:0;
  Ccs.Tracer.load tr ~owner:1 ~block:1;
  Ccs.Tracer.load tr ~owner:2 ~block:2;
  Ccs.Tracer.load tr ~owner:3 ~block:3;
  Alcotest.(check int) "stored" 2 (Ccs.Tracer.length tr);
  Alcotest.(check int) "dropped = overwritten" 2 (Ccs.Tracer.dropped tr);
  Alcotest.(check int) "oldest kept is #2" 2 (Ccs.Tracer.get tr 0).Ccs.Tracer.id;
  Alcotest.(check int) "newest kept is #3" 3 (Ccs.Tracer.get tr 1).Ccs.Tracer.id

let test_tracer_zero_limit_refuses () =
  let tr = Ccs.Tracer.create ~limit:0 () in
  Ccs.Tracer.load tr ~owner:0 ~block:0;
  let h = Ccs.Tracer.begin_fire tr ~node:0 in
  Alcotest.(check int) "refused begin_fire handle" (-1) h;
  Ccs.Tracer.end_fire tr h (* must not raise *);
  Alcotest.(check int) "stored" 0 (Ccs.Tracer.length tr);
  Alcotest.(check int) "dropped" 2 (Ccs.Tracer.dropped tr)

let test_tracer_end_fire_across_wraparound () =
  (* A fire handle stays patchable while its event is still in the
     window, even after the buffer wraps past its original slot index. *)
  let tr = Ccs.Tracer.create ~limit:3 () in
  Ccs.Tracer.load tr ~owner:0 ~block:0;
  Ccs.Tracer.load tr ~owner:1 ~block:1;
  let h = Ccs.Tracer.begin_fire tr ~node:9 in
  Ccs.Tracer.load tr ~owner:2 ~block:2 (* overwrites event #0: wrap *);
  Ccs.Tracer.advance tr 7;
  Ccs.Tracer.end_fire tr h;
  (* Window now holds events #1..#3; the fire (#2) sits at index 1. *)
  let fire = Ccs.Tracer.get tr 1 in
  Alcotest.(check bool) "fire survived" true (fire.Ccs.Tracer.kind = Ccs.Tracer.Fire);
  Alcotest.(check int) "duration patched across wrap" 7 fire.Ccs.Tracer.arg;
  (* Push the fire itself out of the window: end_fire on the stale handle
     must be a silent no-op, not a corruption of whatever took its slot. *)
  Ccs.Tracer.load tr ~owner:3 ~block:3;
  Ccs.Tracer.load tr ~owner:4 ~block:4;
  Ccs.Tracer.load tr ~owner:5 ~block:5;
  Ccs.Tracer.advance tr 100;
  Ccs.Tracer.end_fire tr h;
  Ccs.Tracer.iter tr ~f:(fun e ->
      Alcotest.(check bool) "no event corrupted" true
        (e.Ccs.Tracer.kind = Ccs.Tracer.Load && e.Ccs.Tracer.arg < 100))

let test_tracer_monotone_ts () =
  let tr = Ccs.Tracer.create () in
  for i = 0 to 99 do
    let h = Ccs.Tracer.begin_fire tr ~node:i in
    Ccs.Tracer.advance tr (1 + (i mod 3));
    if i mod 2 = 0 then Ccs.Tracer.load tr ~owner:i ~block:i;
    Ccs.Tracer.end_fire tr h
  done;
  let last = ref min_int in
  Ccs.Tracer.iter tr ~f:(fun e ->
      Alcotest.(check bool) "non-decreasing ts" true (e.Ccs.Tracer.ts >= !last);
      last := e.Ccs.Tracer.ts)

(* --- Machine attribution -------------------------------------------------- *)

let machine_setup () =
  let g = Ccs.Generators.uniform_pipeline ~n:12 ~state:96 () in
  let cfg = Ccs.Config.make ~cache_words:512 ~block_words:16 () in
  let choice = Ccs.Auto.plan ~dynamic:false g cfg in
  (g, cfg, choice)

let test_attribution_sums_exactly () =
  let g, cfg, choice = machine_setup () in
  let profile =
    Must.ok
      (Ccs.Profile.run ~graph:g
         ~cache:(Ccs.Config.cache_config cfg)
         ~plan:choice.Ccs.Auto.plan ~outputs:2000 ())
  in
  Alcotest.(check int) "misses attributed"
    profile.Ccs.Profile.result.Ccs.Runner.misses
    (Ccs.Profile.attributed_misses profile);
  Alcotest.(check int) "accesses attributed"
    profile.Ccs.Profile.result.Ccs.Runner.accesses
    (Ccs.Counters.total_accesses profile.Ccs.Profile.counters)

let test_attribution_sums_on_app_suite () =
  List.iter
    (fun entry ->
      let g = entry.Ccs_apps.Suite.graph () in
      let cfg = Ccs.Config.make ~cache_words:1024 ~block_words:16 () in
      let choice = Ccs.Auto.plan ~dynamic:false g cfg in
      let profile =
        Must.ok
          (Ccs.Profile.run ~graph:g
             ~cache:(Ccs.Config.cache_config cfg)
             ~plan:choice.Ccs.Auto.plan ~outputs:500 ())
      in
      Alcotest.(check int)
        (entry.Ccs_apps.Suite.name ^ " misses attributed")
        profile.Ccs.Profile.result.Ccs.Runner.misses
        (Ccs.Profile.attributed_misses profile))
    Ccs_apps.Suite.all

let test_disabled_observers_bit_identical () =
  let g, cfg, choice = machine_setup () in
  let cache = Ccs.Config.cache_config cfg in
  let plain, _ =
    Must.ok
      (Ccs.Runner.run ~graph:g ~cache ~plan:choice.Ccs.Auto.plan
         ~outputs:2000 ())
  in
  let counters =
    Ccs.Counters.create ~entities:(G.num_nodes g + G.num_edges g)
  in
  let tracer = Ccs.Tracer.create () in
  let observed, _ =
    Must.ok
      (Ccs.Runner.run ~counters ~tracer ~graph:g ~cache
         ~plan:choice.Ccs.Auto.plan ~outputs:2000 ())
  in
  Alcotest.(check int) "same misses" plain.Ccs.Runner.misses
    observed.Ccs.Runner.misses;
  Alcotest.(check int) "same accesses" plain.Ccs.Runner.accesses
    observed.Ccs.Runner.accesses;
  Alcotest.(check int) "same inputs" plain.Ccs.Runner.inputs
    observed.Ccs.Runner.inputs

let test_load_events_equal_misses () =
  let g, cfg, choice = machine_setup () in
  let profile =
    Must.ok
      (Ccs.Profile.run ~events:true ~graph:g
         ~cache:(Ccs.Config.cache_config cfg)
         ~plan:choice.Ccs.Auto.plan ~outputs:2000 ())
  in
  let tr = Option.get profile.Ccs.Profile.tracer in
  Alcotest.(check int) "no drops" 0 (Ccs.Tracer.dropped tr);
  let loads = ref 0 in
  Ccs.Tracer.iter tr ~f:(fun e ->
      if e.Ccs.Tracer.kind = Ccs.Tracer.Load then incr loads);
  Alcotest.(check int) "loads = misses"
    profile.Ccs.Profile.result.Ccs.Runner.misses !loads

let test_machine_rejects_missized_counters () =
  let g, cfg, choice = machine_setup () in
  let counters = Ccs.Counters.create ~entities:1 in
  match
    Ccs.Machine.create ~counters ~graph:g
      ~cache:(Ccs.Config.cache_config cfg)
      ~capacities:choice.Ccs.Auto.plan.Ccs.Plan.capacities ()
  with
  | _ -> Alcotest.fail "missized counters must be rejected"
  | exception Invalid_argument _ -> ()

let test_entity_labels () =
  let g, cfg, choice = machine_setup () in
  let machine =
    Ccs.Machine.create ~graph:g
      ~cache:(Ccs.Config.cache_config cfg)
      ~capacities:choice.Ccs.Auto.plan.Ccs.Plan.capacities ()
  in
  Alcotest.(check int) "num entities"
    (G.num_nodes g + G.num_edges g)
    (Ccs.Machine.num_entities machine);
  List.iter
    (fun v ->
      Alcotest.(check string) "state entity label" (G.node_name g v)
        (Ccs.Machine.entity_label machine v))
    (G.nodes g);
  List.iter
    (fun e ->
      Alcotest.(check string) "buffer entity label" (G.edge_name g e)
        (Ccs.Machine.entity_label machine (G.num_nodes g + e)))
    (G.edges g)

(* --- Trace export --------------------------------------------------------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_chrome_export_shape () =
  let g, cfg, choice = machine_setup () in
  let profile =
    Must.ok
      (Ccs.Profile.run ~events:true ~graph:g
         ~cache:(Ccs.Config.cache_config cfg)
         ~plan:choice.Ccs.Auto.plan ~outputs:200 ())
  in
  let json = Ccs.Profile.chrome ~process_name:"test" profile in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains ~needle json))
    [
      "\"traceEvents\"";
      "\"displayTimeUnit\"";
      "\"ccs\"";
      "\"attributed_misses\"";
      "\"total_misses\"";
      "\"process_name\"";
      "\"ph\":\"X\"";
      "\"ph\":\"i\"";
    ]

let test_metadata_names_escaped () =
  (* Process/thread names flow into metadata events verbatim from user
     input (graph names, CLI args); quotes and control characters must not
     break the JSON document. *)
  let tr = Ccs.Tracer.create () in
  let h = Ccs.Tracer.begin_fire tr ~node:0 in
  Ccs.Tracer.end_fire tr h;
  let json =
    Ccs.Trace_export.chrome ~process_name:"evil \"proc\"\n"
      ~thread_names:[ (0, "tab\tthread\\") ]
      ~label:(fun _ -> "node")
      ~tid:(fun _ -> 0)
      tr
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ String.escaped needle) true
        (contains ~needle json))
    [ "evil \\\"proc\\\"\\n"; "tab\\tthread\\\\" ];
  Alcotest.(check bool) "no raw newline inside a string" false
    (contains ~needle:"evil \"proc\"" json)

let test_entity_summary_sorted () =
  let g, cfg, choice = machine_setup () in
  let profile =
    Must.ok
      (Ccs.Profile.run ~graph:g
         ~cache:(Ccs.Config.cache_config cfg)
         ~plan:choice.Ccs.Auto.plan ~outputs:500 ())
  in
  let rows = Ccs.Profile.per_entity profile in
  Alcotest.(check bool) "nonempty" true (rows <> []);
  let rec check_sorted = function
    | (_, _, m1) :: ((_, _, m2) :: _ as rest) ->
        Alcotest.(check bool) "descending misses" true (m1 >= m2);
        check_sorted rest
    | _ -> ()
  in
  check_sorted rows;
  let sum = List.fold_left (fun acc (_, _, m) -> acc + m) 0 rows in
  Alcotest.(check int) "summary misses sum"
    profile.Ccs.Profile.result.Ccs.Runner.misses sum

(* --- Property: attribution is exact on random graphs ---------------------- *)

let gen_layered =
  QCheck2.Gen.(
    map
      (fun (seed, layers, width) ->
        Ccs.Generators.layered ~seed ~layers ~width
          ~state:(fun k -> 1 + (k mod 7))
          ~edge_prob:0.35 ())
      (triple (int_range 0 10_000) (int_range 1 4) (int_range 1 4)))

let prop_attribution_exact =
  QCheck2.Test.make ~name:"per-entity misses sum exactly to aggregate"
    ~count:60 gen_layered (fun g ->
      let cfg = Ccs.Config.make ~cache_words:256 ~block_words:8 () in
      let choice = Ccs.Auto.plan ~dynamic:false g cfg in
      let profile =
        Must.ok
          (Ccs.Profile.run ~graph:g
             ~cache:(Ccs.Config.cache_config cfg)
             ~plan:choice.Ccs.Auto.plan ~outputs:200 ())
      in
      Ccs.Profile.attributed_misses profile
      = profile.Ccs.Profile.result.Ccs.Runner.misses
      && Ccs.Counters.total_accesses profile.Ccs.Profile.counters
         = profile.Ccs.Profile.result.Ccs.Runner.accesses)

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick test_counters_basics;
          Alcotest.test_case "rejects negative" `Quick
            test_counters_rejects_negative;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "fire duration" `Quick test_tracer_fire_duration;
          Alcotest.test_case "ring keeps newest" `Quick
            test_tracer_ring_keeps_newest;
          Alcotest.test_case "zero limit refuses" `Quick
            test_tracer_zero_limit_refuses;
          Alcotest.test_case "end_fire across wraparound" `Quick
            test_tracer_end_fire_across_wraparound;
          Alcotest.test_case "monotone ts" `Quick test_tracer_monotone_ts;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "sums exactly" `Quick test_attribution_sums_exactly;
          Alcotest.test_case "sums on app suite" `Quick
            test_attribution_sums_on_app_suite;
          Alcotest.test_case "disabled observers bit-identical" `Quick
            test_disabled_observers_bit_identical;
          Alcotest.test_case "load events = misses" `Quick
            test_load_events_equal_misses;
          Alcotest.test_case "missized counters rejected" `Quick
            test_machine_rejects_missized_counters;
          Alcotest.test_case "entity labels" `Quick test_entity_labels;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome shape" `Quick test_chrome_export_shape;
          Alcotest.test_case "metadata names escaped" `Quick
            test_metadata_names_escaped;
          Alcotest.test_case "entity summary sorted" `Quick
            test_entity_summary_sorted;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_attribution_exact ] );
    ]
