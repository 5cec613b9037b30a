(* Tests for the multiprocessor extension: LPT assignment and the
   private-cache placement simulator, checked against a plain [Machine]
   and against the standalone simulator it replaced ([Multi_oracle]). *)

module G = Ccs.Graph
module R = Ccs.Rates
module Sp = Ccs.Spec

let setup () =
  let g = Ccs.Generators.uniform_pipeline ~n:16 ~state:64 () in
  let a = R.analyze_exn g in
  let spec = Ccs.Pipeline_partition.optimal_dp g a ~bound:128 in
  (g, a, spec)

let test_lpt_assigns_everything () =
  let g, a, spec = setup () in
  let assign = Ccs.Assign.lpt g a spec ~processors:3 in
  Alcotest.(check int) "every component placed"
    (Sp.num_components spec)
    (Array.length assign.Ccs.Assign.processor_of_component);
  Array.iter
    (fun p ->
      Alcotest.(check bool) "valid processor" true (p >= 0 && p < 3))
    assign.Ccs.Assign.processor_of_component

let test_lpt_single_processor () =
  let g, a, spec = setup () in
  let assign = Ccs.Assign.lpt g a spec ~processors:1 in
  Alcotest.(check (float 1e-9)) "imbalance 1" 1. (Ccs.Assign.imbalance assign)

let test_lpt_load_conserved () =
  let g, a, spec = setup () in
  let total p =
    let assign = Ccs.Assign.lpt g a spec ~processors:p in
    Array.fold_left ( +. ) 0. assign.Ccs.Assign.load
  in
  Alcotest.(check (float 1e-6)) "same total load" (total 1) (total 4)

let test_lpt_balance_reasonable () =
  (* 8 equal components on 4 processors: LPT is perfectly balanced. *)
  let g = Ccs.Generators.uniform_pipeline ~n:16 ~state:64 () in
  let a = R.analyze_exn g in
  let spec = Sp.of_assignment g (Array.init 16 (fun v -> v / 2)) in
  let assign = Ccs.Assign.lpt g a spec ~processors:4 in
  Alcotest.(check bool) "near-perfect balance" true
    (Ccs.Assign.imbalance assign < 1.01)

let test_lpt_rejects_zero () =
  let g, a, spec = setup () in
  Alcotest.check_raises "0 processors"
    (Invalid_argument "Assign.lpt: processors must be >= 1") (fun () ->
      ignore (Ccs.Assign.lpt g a spec ~processors:0))

let test_component_load_positive () =
  let g, a, spec = setup () in
  for c = 0 to Sp.num_components spec - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "component %d load > 0" c)
      true
      (Ccs.Assign.component_load g a spec c > 0.)
  done

let run_multi g a spec ~processors =
  let assign = Ccs.Assign.lpt g a spec ~processors in
  let cfg =
    {
      Ccs.Multi_machine.processors;
      cache = Ccs.Cache.config ~size_words:256 ~block_words:16 ();
      miss_penalty = 16.;
    }
  in
  Ccs.Multi_machine.run g a spec assign
    ~t:(R.granularity g a ~at_least:256)
    ~batches:4 cfg

(* The suite apps at M=256, B=16: the partition [ccsched multi] uses and
   the batch plan of the smallest granularity multiple of at least 256. *)
let suite_setups () =
  List.map
    (fun (entry : Ccs_apps.Suite.entry) ->
      let g = entry.graph () in
      let a = R.analyze_exn g in
      let spec =
        Ccs.Auto.partition g a
          (Ccs.Config.make ~cache_words:256 ~block_words:16 ())
      in
      let plan =
        Ccs.Partitioned.batch g a spec ~t:(R.granularity g a ~at_least:256)
      in
      (g, a, spec, plan))
    Ccs_apps.Suite.all

let cfg_for processors =
  {
    Ccs.Multi_machine.processors;
    cache = Ccs.Cache.config ~size_words:256 ~block_words:16 ();
    miss_penalty = 16.;
  }

let test_single_processor_equals_uniprocessor () =
  (* With P=1 the multiprocessor run IS a plain uniprocessor machine run of
     the same plan: same misses, same per-entity attribution. *)
  List.iter
    (fun (g, a, spec, plan) ->
      let entities = G.num_nodes g + G.num_edges g in
      let c_multi = Ccs.Counters.create ~entities in
      let r =
        Ccs.Multi_machine.run_plan ~counters:c_multi g a spec
          (Ccs.Assign.lpt g a spec ~processors:1)
          ~plan ~batches:4 (cfg_for 1)
      in
      let c_plain = Ccs.Counters.create ~entities in
      let m =
        Ccs.Machine.create ~counters:c_plain ~graph:g
          ~cache:(cfg_for 1).Ccs.Multi_machine.cache
          ~capacities:plan.Ccs.Plan.capacities ()
      in
      let period = Option.get plan.Ccs.Plan.period in
      for _ = 1 to 4 do
        Ccs.Schedule.iter period ~f:(Ccs.Machine.fire m)
      done;
      let name = G.name g in
      Alcotest.(check int) (name ^ " misses") (Ccs.Machine.misses m)
        r.Ccs.Multi_machine.total_misses;
      Alcotest.(check int) (name ^ " processor 0 misses")
        (Ccs.Machine.misses m) r.Ccs.Multi_machine.per_processor_misses.(0);
      Alcotest.(check bool) (name ^ " per-entity counters") true
        (Ccs.Counters.dump c_plain = Ccs.Counters.dump c_multi);
      Alcotest.(check (float 0.)) (name ^ " speedup 1") 1.
        r.Ccs.Multi_machine.speedup)
    (suite_setups ())

let test_speedup_grows () =
  let g, a, spec = setup () in
  let r1 = run_multi g a spec ~processors:1 in
  let r4 = run_multi g a spec ~processors:4 in
  Alcotest.(check bool)
    (Printf.sprintf "P=4 speedup %.2f > 2" r4.Ccs.Multi_machine.speedup)
    true
    (r4.Ccs.Multi_machine.speedup > 2.);
  Alcotest.(check bool) "makespan shrinks" true
    (r4.Ccs.Multi_machine.makespan < r1.Ccs.Multi_machine.makespan)

let test_inputs_counted () =
  let g, a, spec = setup () in
  let r = run_multi g a spec ~processors:2 in
  Alcotest.(check int) "inputs = batches * T" (4 * 256)
    r.Ccs.Multi_machine.inputs

let test_mismatched_processors_rejected () =
  let g, a, spec = setup () in
  let assign = Ccs.Assign.lpt g a spec ~processors:2 in
  let cfg =
    {
      Ccs.Multi_machine.processors = 3;
      cache = Ccs.Cache.config ~size_words:256 ~block_words:16 ();
      miss_penalty = 16.;
    }
  in
  match
    Ccs.Multi_machine.run g a spec assign ~t:256 ~batches:1 cfg
  with
  | _ -> Alcotest.fail "mismatch must be rejected"
  | exception Invalid_argument _ -> ()

let test_work_conserved_across_processors () =
  let g, a, spec = setup () in
  let r1 = run_multi g a spec ~processors:1 in
  let r4 = run_multi g a spec ~processors:4 in
  let total r =
    Array.fold_left ( +. ) 0. r.Ccs.Multi_machine.per_processor_work
  in
  Alcotest.(check (float 1e-6)) "same total work" (total r1) (total r4)

let test_aperiodic_plan_structured_error () =
  (* Regression: an aperiodic (dynamic) plan used to trip [assert false]
     deep in the run loop; it must come back as a structured
     [Plan_invalid] naming the plan. *)
  let g, a, spec = setup () in
  let assign = Ccs.Assign.lpt g a spec ~processors:2 in
  let cfg =
    {
      Ccs.Multi_machine.processors = 2;
      cache = Ccs.Cache.config ~size_words:256 ~block_words:16 ();
      miss_penalty = 16.;
    }
  in
  let plan = Ccs.Partitioned.pipeline_dynamic g a spec ~m_tokens:64 in
  match
    Ccs.Multi_machine.run_plan g a spec assign ~plan ~batches:1 cfg
  with
  | _ -> Alcotest.fail "aperiodic plan must be rejected"
  | exception Ccs.Error.Error (Ccs.Error.Plan_invalid { plan = name; _ }) ->
      Alcotest.(check string) "names the plan" plan.Ccs.Plan.name name

let test_invalid_plan_structured_error () =
  (* Regression: with every capacity 1 the batch period cannot run, but the
     simulator used to replay it without the firing rule and report
     numbers.  It must refuse the plan with [Plan_invalid] naming it. *)
  let g, a, spec = setup () in
  let assign = Ccs.Assign.lpt g a spec ~processors:2 in
  let batch = Ccs.Partitioned.batch g a spec ~t:256 in
  let plan =
    {
      batch with
      Ccs.Plan.capacities = Array.make (G.num_edges g) 1;
    }
  in
  Alcotest.(check bool) "the plan does not certify" true
    (Result.is_error (Ccs.Plan.validate g plan));
  match
    Ccs.Multi_machine.run_plan g a spec assign ~plan ~batches:1 (cfg_for 2)
  with
  | _ -> Alcotest.fail "invalid plan must be rejected"
  | exception Ccs.Error.Error (Ccs.Error.Plan_invalid { plan = name; _ }) ->
      Alcotest.(check string) "names the plan" plan.Ccs.Plan.name name

let test_multi_attribution_sums () =
  let g, a, spec = setup () in
  let assign = Ccs.Assign.lpt g a spec ~processors:3 in
  let cfg =
    {
      Ccs.Multi_machine.processors = 3;
      cache = Ccs.Cache.config ~size_words:256 ~block_words:16 ();
      miss_penalty = 16.;
    }
  in
  let counters =
    Ccs.Counters.create ~entities:(G.num_nodes g + G.num_edges g)
  in
  let tracer = Ccs.Tracer.create () in
  let r =
    Ccs.Multi_machine.run ~counters ~tracer g a spec assign
      ~t:(R.granularity g a ~at_least:256)
      ~batches:4 cfg
  in
  (* Every private-cache miss has exactly one owner; the uniprocessor
     shadow run is unobserved, so the counters match the parallel total. *)
  Alcotest.(check int) "attributed = total misses"
    r.Ccs.Multi_machine.total_misses
    (Ccs.Counters.total_misses counters);
  let loads = ref 0 in
  Ccs.Tracer.iter tracer ~f:(fun e ->
      if e.Ccs.Tracer.kind = Ccs.Tracer.Load then incr loads);
  Alcotest.(check int) "load events = total misses"
    r.Ccs.Multi_machine.total_misses !loads

let test_multi_observers_leave_result_unchanged () =
  let g, a, spec = setup () in
  let plain = run_multi g a spec ~processors:4 in
  let counters =
    Ccs.Counters.create ~entities:(G.num_nodes g + G.num_edges g)
  in
  let assign = Ccs.Assign.lpt g a spec ~processors:4 in
  let cfg =
    {
      Ccs.Multi_machine.processors = 4;
      cache = Ccs.Cache.config ~size_words:256 ~block_words:16 ();
      miss_penalty = 16.;
    }
  in
  let observed =
    Ccs.Multi_machine.run ~counters g a spec assign
      ~t:(R.granularity g a ~at_least:256)
      ~batches:4 cfg
  in
  Alcotest.(check int) "same misses" plain.Ccs.Multi_machine.total_misses
    observed.Ccs.Multi_machine.total_misses;
  Alcotest.(check (float 1e-9)) "same makespan"
    plain.Ccs.Multi_machine.makespan observed.Ccs.Multi_machine.makespan

let test_metrics_sum_to_total () =
  let g, a, spec = setup () in
  let assign = Ccs.Assign.lpt g a spec ~processors:3 in
  let t = R.granularity g a ~at_least:256 in
  let plain = Ccs.Multi_machine.run g a spec assign ~t ~batches:4 (cfg_for 3) in
  let reg = Ccs.Metrics.create () in
  let r =
    Ccs.Multi_machine.run ~metrics:reg g a spec assign ~t ~batches:4
      (cfg_for 3)
  in
  Alcotest.(check bool) "result identical with a registry" true (plain = r);
  let gauge p =
    match
      Ccs.Metrics.value reg
        ~labels:[ ("proc", string_of_int p) ]
        "ccs_cache_misses"
    with
    | Some v -> v
    | None -> Alcotest.failf "no ccs_cache_misses gauge for proc %d" p
  in
  Alcotest.(check int) "per-proc gauges sum to total_misses"
    r.Ccs.Multi_machine.total_misses
    (gauge 0 + gauge 1 + gauge 2);
  Alcotest.(check (option int)) "inputs gauge"
    (Some r.Ccs.Multi_machine.inputs)
    (Ccs.Metrics.value reg "ccs_multi_inputs");
  Alcotest.(check (option int)) "batches gauge" (Some 4)
    (Ccs.Metrics.value reg "ccs_multi_batches")

(* --- differential: Multi_machine on Machine == the standalone oracle ----- *)

let processor_counts = [ 1; 2; 3; 4; 8 ]

let show_result (r : Ccs.Multi_machine.result) =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let floats a =
    String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a))
  in
  Printf.sprintf
    "misses=[%s] work=[%s] time=[%s] makespan=%h uni=%h speedup=%h total=%d \
     inputs=%d"
    (ints r.per_processor_misses)
    (floats r.per_processor_work)
    (floats r.per_processor_time)
    r.makespan r.uniprocessor_time r.speedup r.total_misses r.inputs

(* Results, per-entity counters and the newest trace events must be
   equal.  Polymorphic equality on the results compares every float bit
   for bit (no result holds a NaN or a signed zero). *)
let agrees g a spec plan ~batches =
  let entities = G.num_nodes g + G.num_edges g in
  List.iter
    (fun processors ->
      let assign = Ccs.Assign.lpt g a spec ~processors in
      let c_old = Ccs.Counters.create ~entities
      and c_new = Ccs.Counters.create ~entities
      and t_old = Ccs.Tracer.create ~limit:4096 ()
      and t_new = Ccs.Tracer.create ~limit:4096 () in
      let old_ =
        Multi_oracle.run_plan ~counters:c_old ~tracer:t_old g spec assign
          ~plan ~batches (cfg_for processors)
      and new_ =
        Ccs.Multi_machine.run_plan ~counters:c_new ~tracer:t_new g a spec
          assign ~plan ~batches (cfg_for processors)
      in
      let events tr =
        let l = ref [] in
        Ccs.Tracer.iter tr ~f:(fun e -> l := e :: !l);
        (Ccs.Tracer.clock tr, Ccs.Tracer.dropped tr, !l)
      in
      if old_ <> new_ then
        Alcotest.failf "%s P=%d: result differs\n oracle %s\n    got %s"
          (G.name g) processors (show_result old_) (show_result new_);
      if Ccs.Counters.dump c_old <> Ccs.Counters.dump c_new then
        Alcotest.failf "%s P=%d: per-entity counters differ" (G.name g)
          processors;
      if events t_old <> events t_new then
        Alcotest.failf "%s P=%d: trace events differ" (G.name g) processors)
    processor_counts

let test_oracle_suite () =
  List.iter
    (fun (g, a, spec, plan) -> agrees g a spec plan ~batches:4)
    (suite_setups ())

(* The same graph with initial tokens on some channels. *)
let with_delays seed g =
  let rng = Random.State.make [| seed |] in
  let b = G.Builder.create ~name:(G.name g ^ "-delayed") () in
  List.iter
    (fun v ->
      ignore (G.Builder.add_module b ~state:(G.state g v) (G.node_name g v)))
    (G.nodes g);
  List.iter
    (fun e ->
      let delay =
        if Random.State.bool rng then 0
        else Random.State.int rng (G.push g e + G.pop g e + 1)
      in
      ignore
        (G.Builder.add_channel b ~delay ~src:(G.src g e) ~dst:(G.dst g e)
           ~push:(G.push g e) ~pop:(G.pop g e) ()))
    (G.edges g);
  G.Builder.build b

let gen_graph =
  let open QCheck2.Gen in
  let pipeline =
    map
      (fun (seed, n, max_rate) ->
        Ccs.Generators.random_pipeline
          ~name:(Printf.sprintf "pipeline-s%d" seed)
          ~seed ~n ~max_state:40 ~max_rate ())
      (triple (int_range 0 10_000) (int_range 1 12) (int_range 1 3))
  and layered =
    map
      (fun (seed, (layers, width), p) ->
        Ccs.Generators.layered
          ~name:(Printf.sprintf "layered-s%d" seed)
          ~seed ~layers ~width
          ~state:(fun k -> 1 + (((k * 37) + seed) mod 40))
          ~edge_prob:p ())
      (triple (int_range 0 10_000)
         (pair (int_range 1 4) (int_range 1 4))
         (float_range 0.1 0.7))
  and sdf =
    map
      (fun (seed, n, (max_rate, extra_edges)) ->
        Ccs.Generators.random_sdf_dag
          ~name:(Printf.sprintf "sdf-dag-s%d" seed)
          ~seed ~n ~max_state:40 ~max_rate ~extra_edges ())
      (triple (int_range 0 10_000) (int_range 3 16)
         (pair (int_range 1 3) (int_range 0 6)))
  in
  let any = oneof [ pipeline; layered; sdf ] in
  oneof [ any; map2 with_delays (int_range 0 10_000) any ]

(* A planned graph whose plan certifies replays identically on both
   simulators; graphs the planner or the oracle cannot take (several
   sources) are skipped. *)
let random_agrees g =
  (match G.sources g with
  | [ _ ] ->
      let a = R.analyze_exn g in
      let c =
        Ccs.Auto.plan ~dynamic:false g
          (Ccs.Config.make ~cache_words:256 ~block_words:16 ())
      in
      agrees g a c.Ccs.Auto.partition c.Ccs.Auto.plan ~batches:2
  | _ -> ());
  true

(* --- session save/load ------------------------------------------------------ *)

let session_setup ~processors =
  let g, a, spec = setup () in
  let assign = Ccs.Assign.lpt g a spec ~processors in
  let cfg =
    {
      Ccs.Multi_machine.processors;
      cache = Ccs.Cache.config ~size_words:256 ~block_words:16 ();
      miss_penalty = 16.;
    }
  in
  let plan =
    Ccs.Partitioned.batch g a spec ~t:(R.granularity g a ~at_least:256)
  in
  (g, a, spec, assign, plan, cfg)

let temp_snap () = Filename.temp_file "ccs-test-multi" ".ccsmsnap"

let test_session_save_load_bit_identical () =
  let g, a, spec, assign, plan, cfg = session_setup ~processors:3 in
  (* Uninterrupted reference: 6 batches straight through. *)
  let s_ref = Ccs.Multi_machine.create_session g a spec assign ~plan cfg in
  Ccs.Multi_machine.run_batches s_ref 6;
  let r_ref = Ccs.Multi_machine.result s_ref in
  (* Killed + resumed: 2 batches, snapshot, fresh session, restore, 4 more. *)
  let s1 = Ccs.Multi_machine.create_session g a spec assign ~plan cfg in
  Ccs.Multi_machine.run_batches s1 2;
  let path = temp_snap () in
  Ccs.Multi_machine.save_session ~path s1;
  let s2 = Ccs.Multi_machine.create_session g a spec assign ~plan cfg in
  (match Ccs.Multi_machine.load_session ~path s2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("load failed: " ^ Ccs.Error.to_string e));
  Alcotest.(check int) "batches restored" 2 (Ccs.Multi_machine.batches_done s2);
  Ccs.Multi_machine.run_batches s2 4;
  let r2 = Ccs.Multi_machine.result s2 in
  Alcotest.(check int) "same total misses" r_ref.Ccs.Multi_machine.total_misses
    r2.Ccs.Multi_machine.total_misses;
  Alcotest.(check int) "same inputs" r_ref.Ccs.Multi_machine.inputs
    r2.Ccs.Multi_machine.inputs;
  Array.iteri
    (fun p m ->
      Alcotest.(check int)
        (Printf.sprintf "processor %d misses" p)
        m
        r2.Ccs.Multi_machine.per_processor_misses.(p))
    r_ref.Ccs.Multi_machine.per_processor_misses;
  Alcotest.(check (float 1e-9)) "same makespan"
    r_ref.Ccs.Multi_machine.makespan r2.Ccs.Multi_machine.makespan;
  Sys.remove path

let test_session_load_mismatch_rejected () =
  let g, a, spec, assign, plan, cfg = session_setup ~processors:3 in
  let s1 = Ccs.Multi_machine.create_session g a spec assign ~plan cfg in
  Ccs.Multi_machine.run_batches s1 1;
  let path = temp_snap () in
  Ccs.Multi_machine.save_session ~path s1;
  (* Same graph and plan, different processor count: must be refused. *)
  let assign2 = Ccs.Assign.lpt g a spec ~processors:2 in
  let cfg2 = { cfg with Ccs.Multi_machine.processors = 2 } in
  let s2 = Ccs.Multi_machine.create_session g a spec assign2 ~plan cfg2 in
  (match Ccs.Multi_machine.load_session ~path s2 with
  | Ok () -> Alcotest.fail "processor-count mismatch accepted"
  | Error (Ccs.Error.Checkpoint_mismatch { field; _ }) ->
      Alcotest.(check string) "field" "processors" field
  | Error e ->
      Alcotest.fail ("expected Checkpoint_mismatch, got " ^ Ccs.Error.to_string e));
  (* Different private cache size: also refused. *)
  let cfg3 =
    {
      cfg with
      Ccs.Multi_machine.cache =
        Ccs.Cache.config ~size_words:512 ~block_words:16 ();
    }
  in
  let s3 = Ccs.Multi_machine.create_session g a spec assign ~plan cfg3 in
  (match Ccs.Multi_machine.load_session ~path s3 with
  | Ok () -> Alcotest.fail "cache-config mismatch accepted"
  | Error (Ccs.Error.Checkpoint_mismatch { field; _ }) ->
      Alcotest.(check string) "field" "cache.size_words" field
  | Error e ->
      Alcotest.fail ("expected Checkpoint_mismatch, got " ^ Ccs.Error.to_string e));
  Sys.remove path

let test_session_restores_observers () =
  let g, a, spec, assign, plan, cfg = session_setup ~processors:2 in
  let entities = G.num_nodes g + G.num_edges g in
  let c_ref = Ccs.Counters.create ~entities in
  let s_ref =
    Ccs.Multi_machine.create_session ~counters:c_ref g a spec assign ~plan cfg
  in
  Ccs.Multi_machine.run_batches s_ref 4;
  let c1 = Ccs.Counters.create ~entities in
  let s1 =
    Ccs.Multi_machine.create_session ~counters:c1 g a spec assign ~plan cfg
  in
  Ccs.Multi_machine.run_batches s1 2;
  let path = temp_snap () in
  Ccs.Multi_machine.save_session ~path s1;
  let c2 = Ccs.Counters.create ~entities in
  let s2 =
    Ccs.Multi_machine.create_session ~counters:c2 g a spec assign ~plan cfg
  in
  (match Ccs.Multi_machine.load_session ~path s2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("load failed: " ^ Ccs.Error.to_string e));
  Ccs.Multi_machine.run_batches s2 2;
  Alcotest.(check bool) "per-entity attribution identical" true
    (Ccs.Counters.dump c_ref = Ccs.Counters.dump c2);
  Sys.remove path

let test_session_placement_mismatch_rejected () =
  (* Same processor count, components rotated onto other processors: the
     snapshot's caches hold another placement's blocks, so resuming it
     would match neither run. *)
  let g, a, spec, assign, plan, cfg = session_setup ~processors:3 in
  let s1 = Ccs.Multi_machine.create_session g a spec assign ~plan cfg in
  Ccs.Multi_machine.run_batches s1 2;
  let path = temp_snap () in
  Ccs.Multi_machine.save_session ~path s1;
  let rotated =
    {
      assign with
      Ccs.Assign.processor_of_component =
        Array.map
          (fun p -> (p + 1) mod 3)
          assign.Ccs.Assign.processor_of_component;
    }
  in
  let s2 = Ccs.Multi_machine.create_session g a spec rotated ~plan cfg in
  (match Ccs.Multi_machine.load_session ~path s2 with
  | Ok () -> Alcotest.fail "placement mismatch accepted"
  | Error (Ccs.Error.Checkpoint_mismatch { field; _ }) ->
      Alcotest.(check string) "field" "placement" field
  | Error e ->
      Alcotest.fail ("expected Checkpoint_mismatch, got " ^ Ccs.Error.to_string e));
  Sys.remove path

(* Snapshots from before sessions saved through [Checkpoint] come back as
   structured errors: the old multiprocessor format by its magic, a
   version-1 machine checkpoint by its version. *)
let load_framed ~magic ~version =
  let g, a, spec, assign, plan, cfg = session_setup ~processors:3 in
  let path = temp_snap () in
  Ccs.Binio.write_file ~path ~magic ~version "an older payload";
  let s = Ccs.Multi_machine.create_session g a spec assign ~plan cfg in
  let r = Ccs.Multi_machine.load_session ~path s in
  Sys.remove path;
  r

let test_session_rejects_old_format () =
  match load_framed ~magic:"CCSMSNAP" ~version:1 with
  | Error (Ccs.Error.Checkpoint_corrupt _) -> ()
  | Ok () -> Alcotest.fail "CCSMSNAP file accepted"
  | Error e ->
      Alcotest.fail ("expected Checkpoint_corrupt, got " ^ Ccs.Error.to_string e)

let test_session_rejects_version_1 () =
  match load_framed ~magic:Ccs.Checkpoint.magic ~version:1 with
  | Error (Ccs.Error.Checkpoint_version { found; expected; _ }) ->
      Alcotest.(check int) "found" 1 found;
      Alcotest.(check int) "expected" Ccs.Checkpoint.version expected
  | Ok () -> Alcotest.fail "version-1 checkpoint accepted"
  | Error e ->
      Alcotest.fail ("expected Checkpoint_version, got " ^ Ccs.Error.to_string e)

let () =
  Alcotest.run "multi"
    [
      ( "assign",
        [
          Alcotest.test_case "assigns everything" `Quick
            test_lpt_assigns_everything;
          Alcotest.test_case "single processor" `Quick
            test_lpt_single_processor;
          Alcotest.test_case "load conserved" `Quick test_lpt_load_conserved;
          Alcotest.test_case "balance reasonable" `Quick
            test_lpt_balance_reasonable;
          Alcotest.test_case "rejects zero" `Quick test_lpt_rejects_zero;
          Alcotest.test_case "loads positive" `Quick
            test_component_load_positive;
        ] );
      ( "machine",
        [
          Alcotest.test_case "P=1 = uniprocessor" `Quick
            test_single_processor_equals_uniprocessor;
          Alcotest.test_case "speedup grows" `Quick test_speedup_grows;
          Alcotest.test_case "inputs counted" `Quick test_inputs_counted;
          Alcotest.test_case "mismatch rejected" `Quick
            test_mismatched_processors_rejected;
          Alcotest.test_case "work conserved" `Quick
            test_work_conserved_across_processors;
          Alcotest.test_case "aperiodic plan rejected" `Quick
            test_aperiodic_plan_structured_error;
          Alcotest.test_case "invalid plan rejected" `Quick
            test_invalid_plan_structured_error;
          Alcotest.test_case "attribution sums" `Quick
            test_multi_attribution_sums;
          Alcotest.test_case "observers unobtrusive" `Quick
            test_multi_observers_leave_result_unchanged;
          Alcotest.test_case "metrics sum to total" `Quick
            test_metrics_sum_to_total;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "suite == oracle" `Quick test_oracle_suite;
          QCheck_alcotest.to_alcotest
            (QCheck2.Test.make ~name:"random graphs == oracle" ~count:60
               ~print:Ccs.Serial.to_text gen_graph random_agrees);
        ] );
      ( "session",
        [
          Alcotest.test_case "save/load bit-identical" `Quick
            test_session_save_load_bit_identical;
          Alcotest.test_case "mismatch rejected" `Quick
            test_session_load_mismatch_rejected;
          Alcotest.test_case "observers restored" `Quick
            test_session_restores_observers;
          Alcotest.test_case "placement mismatch rejected" `Quick
            test_session_placement_mismatch_rejected;
          Alcotest.test_case "old format rejected" `Quick
            test_session_rejects_old_format;
          Alcotest.test_case "version 1 rejected" `Quick
            test_session_rejects_version_1;
        ] );
    ]
