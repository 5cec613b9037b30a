(* Adaptive resilience: cache resize semantics, the chaos environment
   grammar, cache-config linting, state migration, and the central
   invariants of the adaptation loop — an adapted run beats the stale plan
   under cache-shrink chaos, sinks bit-identical values to an undisturbed
   run (checked by a QCheck property over random pipelines x random chaos
   seeds), and is deterministic under a fixed seed. *)

module G = Ccs.Graph
module E = Ccs.Error
module L = Ccs.Lru
module C = Ccs.Cache
module F = Ccs.Fault

(* --- Lru.resize ----------------------------------------------------------- *)

let touch_all l keys = List.iter (fun k -> ignore (L.touch l k)) keys

let test_lru_resize_shrink_keeps_hottest () =
  let l = L.create ~capacity:4 in
  touch_all l [ 1; 2; 3; 4 ];
  ignore (L.touch l 2);
  (* MRU order now 2, 4, 3, 1. *)
  let s = L.resize l ~capacity:2 in
  Alcotest.(check (list int)) "hottest survive" [ 2; 4 ]
    (L.to_list_mru_first s);
  Alcotest.(check int) "dropped count as evictions" 2 (L.evictions s)

let test_lru_resize_grow_keeps_all () =
  let l = L.create ~capacity:2 in
  touch_all l [ 1; 2 ];
  let s = L.resize l ~capacity:5 in
  Alcotest.(check (list int)) "all survive" [ 2; 1 ] (L.to_list_mru_first s);
  Alcotest.(check int) "no extra evictions" (L.evictions l) (L.evictions s)

let test_lru_shrink_then_grow_vs_fresh () =
  (* Differential: shrink-then-grow must behave exactly like a fresh set
     seeded with the surviving residents, for any further access string. *)
  let l = L.create ~capacity:8 in
  touch_all l [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  let shrunk = L.resize l ~capacity:3 in
  let regrown = L.resize shrunk ~capacity:8 in
  let fresh = L.create ~capacity:8 in
  L.restore_mru_first fresh (Array.of_list (L.to_list_mru_first shrunk));
  let accesses = [ 9; 3; 10; 8; 11; 7; 12; 6; 3; 9 ] in
  List.iter
    (fun k ->
      let a = L.touch regrown k and b = L.touch fresh k in
      if a <> b then Alcotest.failf "diverged at key %d" k)
    accesses;
  Alcotest.(check (list int)) "same final contents"
    (L.to_list_mru_first fresh)
    (L.to_list_mru_first regrown)

(* --- Cache.resize --------------------------------------------------------- *)

let cache_cfg ?policy words = C.config ?policy ~size_words:words ~block_words:4 ()

let test_cache_resize_drops_coldest () =
  let c = C.create (cache_cfg 16) in
  (* Touch blocks 0..3 (word addresses 0,4,8,12): cache full. *)
  List.iter (fun a -> ignore (C.touch c a)) [ 0; 4; 8; 12 ];
  let ev0 = C.evictions c in
  C.resize c (cache_cfg 8);
  (* 2 blocks survive (the hottest: 12 and 8); 2 dropped = evictions. *)
  Alcotest.(check int) "capacity" 8 (C.size_words c);
  Alcotest.(check int) "dropped count as evictions" (ev0 + 2) (C.evictions c);
  Alcotest.(check bool) "hottest resident" true (C.cached c 12);
  Alcotest.(check bool) "second hottest resident" true (C.cached c 8);
  Alcotest.(check bool) "coldest gone" false (C.cached c 0);
  (* Stats are continuous across the resize. *)
  Alcotest.(check int) "accesses carried" 4 (C.accesses c);
  Alcotest.(check int) "misses carried" 4 (C.misses c)

let test_cache_resize_then_grow_vs_fresh () =
  let c = C.create (cache_cfg 16) in
  List.iter (fun a -> ignore (C.touch c a)) [ 0; 4; 8; 12; 0 ];
  C.resize c (cache_cfg 8);
  C.resize c (cache_cfg 16);
  (* After shrink-to-2-blocks and regrow, exactly the two hottest (0 and
     12) are resident; the rest must miss like a fresh cache. *)
  Alcotest.(check bool) "hit carried resident" true (C.touch c 0);
  Alcotest.(check bool) "hit carried resident 2" true (C.touch c 12);
  Alcotest.(check bool) "dropped block misses" false (C.touch c 4);
  Alcotest.(check bool) "dropped block misses 2" false (C.touch c 8)

let test_cache_resize_set_associative () =
  let cfg =
    C.config ~policy:(C.Set_associative 2) ~size_words:32 ~block_words:4 ()
  in
  let c = C.create cfg in
  for b = 0 to 7 do
    ignore (C.touch c (b * 4))
  done;
  C.resize c
    (C.config ~policy:(C.Set_associative 2) ~size_words:16 ~block_words:4 ());
  Alcotest.(check int) "capacity" 16 (C.size_words c);
  (* The 4 globally hottest blocks (7,6,5,4) re-home to the shrunken sets
     as far as per-set capacity allows. *)
  let resident = List.filter (fun b -> C.cached c (b * 4)) [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  Alcotest.(check int) "at most 4 resident" 4 (List.length resident);
  Alcotest.(check bool) "hottest resident" true (List.mem 7 resident)

let test_cache_resize_rejects_block_change () =
  let c = C.create (cache_cfg 16) in
  Alcotest.check_raises "block_words change"
    (Invalid_argument "Cache.resize: block size cannot change online (4 words -> 8)")
    (fun () -> C.resize c (C.config ~size_words:16 ~block_words:8 ()))

let test_cache_carry_stats () =
  let a = C.create (cache_cfg 16) and b = C.create (cache_cfg 16) in
  List.iter (fun x -> ignore (C.touch a x)) [ 0; 4; 0 ];
  List.iter (fun x -> ignore (C.touch b x)) [ 8; 8 ];
  C.carry_stats ~src:a b;
  Alcotest.(check int) "accesses summed" 5 (C.accesses b);
  Alcotest.(check int) "hits summed" 2 (C.hits b);
  Alcotest.(check int) "misses summed" 3 (C.misses b)

(* --- chaos environment grammar -------------------------------------------- *)

let test_env_parse_roundtrip () =
  let spec = "shrink@2:4,ways@3:2,burst@5:3x2,iofault@6:1,restore@9" in
  let env = F.parse_env Run spec in
  let env2 = F.parse_env Run (F.env_to_string env) in
  Alcotest.(check int) "site count" 5 (List.length env);
  Alcotest.(check bool) "round-trip" true (env = env2)

(* The printer breaks between lines only: under a prefix such as the CLI's
   "chaos: ", a trailing break would print a line of spaces. *)
let test_env_printer () =
  let pp env = Format.asprintf "chaos: %a" F.pp_env env in
  Alcotest.(check string) "two events"
    "chaos: environment plan (2 events)\n\
    \         epoch 2: shrink:4\n\
    \         epoch 3: burst:2x2"
    (pp (F.parse_env Run "shrink@2:4,burst@3:2x2"));
  Alcotest.(check string) "no events" "chaos: environment plan (0 events)"
    (pp [])

let test_env_parse_errors () =
  let bad spec =
    match F.parse_env Run spec with
    | exception E.Error (E.Failure_msg { context = "chaos spec"; _ }) -> ()
    | exception e ->
        Alcotest.failf "%s: wrong exception %s" spec (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: accepted" spec
  in
  bad "";
  bad "shrink@2";
  bad "shrink@2:1";
  bad "frobnicate@3";
  bad "burst@1:0x2";
  bad "shrink@-1:2"

(* Each consumer takes only the events it acts on: the other consumer's
   events, and kinds that exist nowhere, are structured chaos-spec
   errors rather than silently ignored. *)
let test_env_consumers () =
  let rejected consumer spec =
    match F.parse_env consumer spec with
    | exception E.Error (E.Failure_msg { context = "chaos spec"; _ }) -> ()
    | exception e ->
        Alcotest.failf "%s: wrong exception %s" spec (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: accepted" spec
  in
  List.iter (rejected F.Run)
    [ "kill@1"; "truncate@2"; "srand@7:4"; "slow@2:100"; "flood@3:4" ];
  List.iter (rejected F.Serve)
    [
      "shrink@2:4"; "restore@3"; "ways@1:2"; "burst@1:2x2"; "rand@1:2";
      "slow@2:100"; "flood@3:4";
    ];
  Alcotest.(check int) "run takes iofault" 1
    (List.length (F.parse_env F.Run "iofault@1:2"));
  Alcotest.(check int) "serve takes iofault" 1
    (List.length (F.parse_env F.Serve "iofault@1:2"));
  Alcotest.(check int) "serve takes its own events" 3
    (List.length (F.parse_env F.Serve "kill@1,truncate@2,srand@7:1"))

let test_env_plan_deterministic () =
  let a = F.parse_env Run "rand@42:6" and b = F.parse_env Run "rand@42:6" in
  Alcotest.(check bool) "same plan" true (a = b);
  let c = F.parse_env Run "rand@43:6" in
  Alcotest.(check bool) "seed matters" false (a = c)

let test_conditions_fold () =
  let env = F.parse_env Run "shrink@2:4,burst@3:2x2,restore@5" in
  let at e = F.conditions_at env e in
  Alcotest.(check int) "nominal before" 1 (at 0).F.shrink_divisor;
  Alcotest.(check int) "shrunk" 4 (at 2).F.shrink_divisor;
  Alcotest.(check int) "burst window" 2 (at 4).F.burst_mult;
  Alcotest.(check int) "burst over" 1 (at 5).F.burst_mult;
  Alcotest.(check int) "restored" 1 (at 5).F.shrink_divisor

let test_env_cache_config_clamps () =
  let cache = C.config ~size_words:64 ~block_words:16 () in
  let shrunk =
    F.env_cache_config cache { F.nominal with F.shrink_divisor = 16 }
  in
  (* 64/16 = 4 words < one block: clamped to one whole block. *)
  Alcotest.(check int) "at least one block" 16 shrunk.C.size_words;
  let direct = F.env_cache_config cache { F.nominal with F.ways = Some 1 } in
  Alcotest.(check bool) "ways=1 is direct-mapped" true
    (direct.C.policy = C.Direct_mapped)

(* --- Check.cache_config --------------------------------------------------- *)

let test_check_cache_config () =
  let ok r = Ccs.Check.is_ok r in
  Alcotest.(check bool) "valid" true
    (ok (Ccs.Check.cache_config ~size_words:2048 ~block_words:16 ()));
  Alcotest.(check bool) "indivisible" false
    (ok (Ccs.Check.cache_config ~size_words:100 ~block_words:16 ()));
  Alcotest.(check bool) "zero-capacity" false
    (ok (Ccs.Check.cache_config ~size_words:8 ~block_words:16 ()));
  Alcotest.(check bool) "nonpositive" false
    (ok (Ccs.Check.cache_config ~size_words:0 ~block_words:16 ()));
  Alcotest.(check bool) "ways too large" false
    (ok (Ccs.Check.cache_config ~ways:64 ~size_words:128 ~block_words:16 ()));
  Alcotest.(check bool) "ways zero" false
    (ok (Ccs.Check.cache_config ~ways:0 ~size_words:128 ~block_words:16 ()));
  Alcotest.(check bool) "ways fits" true
    (ok (Ccs.Check.cache_config ~ways:4 ~size_words:128 ~block_words:16 ()));
  (* Findings are the structured cache-config variant. *)
  let r = Ccs.Check.cache_config ~size_words:100 ~block_words:16 () in
  match r.Ccs.Check.errors with
  | [ E.Cache_config_invalid { field = "size_words"; value = 100; _ } ] -> ()
  | _ -> Alcotest.fail "expected one Cache_config_invalid finding"

(* --- machine migration ---------------------------------------------------- *)

let mk_machine g plan cache =
  Ccs.Machine.create ~graph:g ~cache ~capacities:plan.Ccs.Plan.capacities ()

let test_migrate_carries_state () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:8 () in
  let cfg = Ccs.Config.make ~cache_words:256 ~block_words:16 () in
  let cache = Ccs.Config.cache_config cfg in
  let choice = Ccs.Auto.plan ~dynamic:false g cfg in
  let plan = choice.Ccs.Auto.plan in
  let src = mk_machine g plan cache in
  plan.Ccs.Plan.drive src ~target_outputs:64;
  let dst = mk_machine g plan cache in
  Ccs.Machine.migrate ~src dst;
  Alcotest.(check int) "fires carried" (Ccs.Machine.total_fires src)
    (Ccs.Machine.total_fires dst);
  Alcotest.(check int) "outputs carried" (Ccs.Machine.sink_outputs src)
    (Ccs.Machine.sink_outputs dst);
  Alcotest.(check int) "misses carried" (Ccs.Machine.misses src)
    (Ccs.Machine.misses dst);
  List.iter
    (fun e ->
      Alcotest.(check int) "tokens carried" (Ccs.Machine.tokens src e)
        (Ccs.Machine.tokens dst e))
    (G.edges g);
  (* The migrated machine keeps producing. *)
  plan.Ccs.Plan.drive dst ~target_outputs:128;
  Alcotest.(check bool) "continues" true (Ccs.Machine.sink_outputs dst >= 128)

(* --- the adaptation loop -------------------------------------------------- *)

let shrink_env = F.parse_env Run "shrink@2:4"

let supervised ?(adapt = true) ?env ?metrics ?policy ?checkpoint_dir ?config
    ?epoch_outputs ?prepare g cfg ~outputs =
  let cache = Ccs.Config.cache_config cfg in
  let planner = Ccs.Auto.adapt_planner g in
  let adapt =
    if adapt then Some (Ccs.Adapt.create ?policy ~planner cache) else None
  in
  let plan =
    match adapt with
    | Some c -> c.Ccs.Adapt.live.Ccs.Adapt.plan
    | None -> (planner cache).Ccs.Adapt.plan
  in
  Ccs.Supervisor.run ?config ?checkpoint_dir ?env ?adapt ?metrics ?prepare
    ~epoch_outputs:
      (Option.value epoch_outputs ~default:(max 1 (outputs / 16)))
    ~graph:g ~cache ~plan ~outputs ()

let adapt_run ?adapt ?env ?metrics ?policy g cfg ~outputs ~seed =
  let overlay = Ccs.Overlay.create ~seed g in
  match
    supervised ?adapt ?env ?metrics ?policy
      ~prepare:(Ccs.Overlay.attach overlay)
      g cfg ~outputs
  with
  | Ok report -> (report, overlay)
  | Error e -> Alcotest.failf "adapt run failed: %s" (E.to_string e)

let adaptations r =
  match r.Ccs.Supervisor.adapt with
  | Some c -> c.Ccs.Adapt.adaptations
  | None -> []

let test_stale_vs_adapted_regression () =
  (* Under a 4x cache shrink the adapted run must strictly beat the plan
     that stays stale — the experiment E22 invariant, on one app. *)
  let entry = Option.get (Ccs_apps.Suite.find "filterbank") in
  let g = entry.Ccs_apps.Suite.graph () in
  let cfg = Ccs.Config.make ~cache_words:2048 ~block_words:16 () in
  let stale, _ =
    adapt_run ~adapt:false ~env:shrink_env g cfg ~outputs:8000 ~seed:1
  in
  let adapted, _ =
    adapt_run ~adapt:true ~env:shrink_env g cfg ~outputs:8000 ~seed:1
  in
  let m r = r.Ccs.Supervisor.result.Ccs.Runner.misses in
  Alcotest.(check bool) "adaptation happened" true
    (adaptations adapted <> []);
  if m adapted >= m stale then
    Alcotest.failf "adapted (%d misses) did not beat stale (%d)" (m adapted)
      (m stale)

let test_adapted_outputs_bit_exact () =
  let entry = Option.get (Ccs_apps.Suite.find "fm-radio") in
  let g = entry.Ccs_apps.Suite.graph () in
  let cfg = Ccs.Config.make ~cache_words:2048 ~block_words:16 () in
  let _, reference = adapt_run ~adapt:false g cfg ~outputs:4000 ~seed:5 in
  let adapted, overlay =
    adapt_run ~adapt:true ~env:shrink_env g cfg ~outputs:4000 ~seed:5
  in
  Alcotest.(check bool) "migrated" true
    (List.exists
       (fun e -> e.Ccs.Adapt.action = Ccs.Adapt.Repartition)
       (adaptations adapted));
  Alcotest.(check bool) "values compared" true
    (Ccs.Overlay.compared ~reference overlay > 0);
  Alcotest.(check int) "bit-exact sink outputs" 0
    (Ccs.Overlay.mismatches ~reference overlay)

let test_adapt_deterministic () =
  let entry = Option.get (Ccs_apps.Suite.find "fm-radio") in
  let g = entry.Ccs_apps.Suite.graph () in
  let cfg = Ccs.Config.make ~cache_words:2048 ~block_words:16 () in
  let snap () =
    let metrics = Ccs.Metrics.create () in
    let report, _ =
      adapt_run ~adapt:true ~env:shrink_env ~metrics g cfg ~outputs:4000
        ~seed:5
    in
    (Ccs.Metrics.to_json_string metrics, adaptations report)
  in
  let s1, a1 = snap () and s2, a2 = snap () in
  Alcotest.(check string) "identical metrics snapshots" s1 s2;
  Alcotest.(check bool) "identical adaptation traces" true (a1 = a2)

let test_io_fault_contained () =
  (* Checkpoint writes inside an injected I/O-fault window are counted and
     skipped; the run itself must still succeed. *)
  let entry = Option.get (Ccs_apps.Suite.find "fm-radio") in
  let g = entry.Ccs_apps.Suite.graph () in
  let cfg = Ccs.Config.make ~cache_words:2048 ~block_words:16 () in
  let dir = Filename.temp_file "ccs-test-adapt" "" in
  Sys.remove dir;
  let env = F.parse_env Run "shrink@2:4,iofault@0:32" in
  let overlay = Ccs.Overlay.create ~seed:5 g in
  (match
     supervised ~env ~checkpoint_dir:dir
       ~config:{ Ccs.Supervisor.default_config with checkpoint_every = 2 }
       ~epoch_outputs:250
       ~prepare:(Ccs.Overlay.attach overlay)
       g cfg ~outputs:4000
   with
  | Error e -> Alcotest.failf "run failed: %s" (E.to_string e)
  | Ok report ->
      Alcotest.(check bool) "io faults counted" true
        (report.Ccs.Supervisor.io_faults > 0);
      Alcotest.(check int) "no checkpoints written" 0
        report.Ccs.Supervisor.checkpoints_written);
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

(* --- QCheck: migration preserves sink values ------------------------------- *)

let qcheck_migration_bit_exact =
  QCheck.Test.make ~count:25
    ~name:"chaos+adaptation never changes a sink value (random pipelines)"
    QCheck.(pair (int_range 3 7) (int_range 0 1000))
    (fun (n, seed) ->
      let g = Ccs.Generators.uniform_pipeline ~n ~state:64 () in
      let cfg = Ccs.Config.make ~cache_words:256 ~block_words:16 () in
      (* An aggressive policy so random cases actually trigger the ladder;
         random chaos draws exercise shrinks, bursts and restores. *)
      let policy =
        {
          Ccs.Adapt.ewma_alpha = 0.5;
          degrade_ratio = 1.01;
          patience = 1;
          cooldown = 0;
          repartition_delay = 1;
          max_adaptations = 8;
          probe_restore = false;
          restore_ratio = 0.25;
        }
      in
      let env = F.parse_env Run (Printf.sprintf "rand@%d:4" seed) in
      let _, reference = adapt_run ~adapt:false g cfg ~outputs:600 ~seed in
      let _, overlay =
        adapt_run ~adapt:true ~policy ~env g cfg ~outputs:600 ~seed
      in
      Ccs.Overlay.compared ~reference overlay > 0
      && Ccs.Overlay.mismatches ~reference overlay = 0)

let () =
  Alcotest.run "adapt"
    [
      ( "lru-resize",
        [
          Alcotest.test_case "shrink keeps hottest" `Quick
            test_lru_resize_shrink_keeps_hottest;
          Alcotest.test_case "grow keeps all" `Quick
            test_lru_resize_grow_keeps_all;
          Alcotest.test_case "shrink-then-grow vs fresh" `Quick
            test_lru_shrink_then_grow_vs_fresh;
        ] );
      ( "cache-resize",
        [
          Alcotest.test_case "drops coldest" `Quick
            test_cache_resize_drops_coldest;
          Alcotest.test_case "shrink-then-grow vs fresh" `Quick
            test_cache_resize_then_grow_vs_fresh;
          Alcotest.test_case "set-associative" `Quick
            test_cache_resize_set_associative;
          Alcotest.test_case "rejects block change" `Quick
            test_cache_resize_rejects_block_change;
          Alcotest.test_case "carry_stats sums" `Quick test_cache_carry_stats;
        ] );
      ( "chaos-env",
        [
          Alcotest.test_case "parse round-trip" `Quick test_env_parse_roundtrip;
          Alcotest.test_case "parse errors are structured" `Quick
            test_env_parse_errors;
          Alcotest.test_case "each consumer takes only its own events" `Quick
            test_env_consumers;
          Alcotest.test_case "seeded plan deterministic" `Quick
            test_env_plan_deterministic;
          Alcotest.test_case "conditions fold" `Quick test_conditions_fold;
          Alcotest.test_case "cache config clamps" `Quick
            test_env_cache_config_clamps;
          Alcotest.test_case "printer breaks between lines only" `Quick
            test_env_printer;
        ] );
      ( "check",
        [ Alcotest.test_case "cache_config lint" `Quick test_check_cache_config ] );
      ( "migration",
        [
          Alcotest.test_case "carries state" `Quick test_migrate_carries_state;
        ] );
      ( "adaptation",
        [
          Alcotest.test_case "adapted beats stale" `Slow
            test_stale_vs_adapted_regression;
          Alcotest.test_case "bit-exact sink outputs" `Slow
            test_adapted_outputs_bit_exact;
          Alcotest.test_case "deterministic" `Slow test_adapt_deterministic;
          Alcotest.test_case "io faults contained" `Quick
            test_io_fault_contained;
          QCheck_alcotest.to_alcotest qcheck_migration_bit_exact;
        ] );
    ]
