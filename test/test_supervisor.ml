(* Supervised crash-safe execution: epoch-aligned checkpointing, rollback
   and retry on structured faults, quarantine of deterministic ones, and
   the central invariant — a run killed at any epoch and resumed reports
   exactly what an uninterrupted run reports (miss counts, per-entity
   attribution, sink outputs), checked by a QCheck property over random
   graphs x random kill points. *)

module G = Ccs.Graph
module E = Ccs.Error

let cache = Ccs.Cache.config ~size_words:256 ~block_words:16 ()

let fresh_dir () =
  (* temp_file gives us a unique name; the supervisor mkdirs it. *)
  let path = Filename.temp_file "ccs-test-sup" "" in
  Sys.remove path;
  path

let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let setup () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:8 () in
  let cfg = Ccs.Config.make ~cache_words:256 ~block_words:16 () in
  let choice = Ccs.Auto.plan ~dynamic:false g cfg in
  (g, choice.Ccs.Auto.plan)

let test_happy_path_matches_plain_run () =
  let g, plan = setup () in
  let plain, _ = Ccs.Runner.run ~graph:g ~cache ~plan ~outputs:100 () in
  match Ccs.Supervisor.run ~graph:g ~cache ~plan ~outputs:100 () with
  | Error e -> Alcotest.fail ("supervised run failed: " ^ E.to_string e)
  | Ok report ->
      Alcotest.(check int) "same misses" plain.Ccs.Runner.misses
        report.Ccs.Supervisor.result.Ccs.Runner.misses;
      Alcotest.(check int) "same outputs" plain.Ccs.Runner.outputs
        report.Ccs.Supervisor.result.Ccs.Runner.outputs;
      Alcotest.(check int) "no retries" 0 report.Ccs.Supervisor.retries

(* A hook that faults once, at the named node's k-th firing, then disarms:
   the supervisor must roll back, retry, and finish with the exact result
   of a fault-free run. *)
let transient_fault ~node ~at_fire armed machine =
  Ccs.Machine.set_fire_hook machine
    (Some
       (fun v ->
         if !armed && v = node && Ccs.Machine.fires machine node = at_fire
         then begin
           armed := false;
           raise
             (E.Error
                (E.Fault
                   {
                     node = "m" ^ string_of_int node;
                     fault = E.Kernel_exception;
                     detail = "transient injected fault";
                   }))
         end))

let test_retry_then_succeed () =
  let g, plan = setup () in
  let plain, _ = Ccs.Runner.run ~graph:g ~cache ~plan ~outputs:100 () in
  let armed = ref true in
  match
    Ccs.Supervisor.run
      ~prepare:(transient_fault ~node:1 ~at_fire:5 armed)
      ~graph:g ~cache ~plan ~outputs:100 ()
  with
  | Error e -> Alcotest.fail ("transient fault not recovered: " ^ E.to_string e)
  | Ok report ->
      Alcotest.(check int) "one retry" 1 report.Ccs.Supervisor.retries;
      Alcotest.(check bool) "backoff charged" true
        (report.Ccs.Supervisor.logical_delay > 0);
      Alcotest.(check int) "result identical to clean run"
        plain.Ccs.Runner.misses
        report.Ccs.Supervisor.result.Ccs.Runner.misses;
      Alcotest.(check bool) "fault disarmed" true (not !armed)

let test_retry_with_checkpoint_dir () =
  (* Same transient fault, but with checkpointing on: rollback restores the
     last checkpoint instead of starting over, and the result still matches
     a clean run exactly. *)
  let g, plan = setup () in
  let plain, _ = Ccs.Runner.run ~graph:g ~cache ~plan ~outputs:100 () in
  let armed = ref true in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      match
        Ccs.Supervisor.run
          ~config:{ Ccs.Supervisor.default_config with checkpoint_every = 1 }
          ~checkpoint_dir:dir
          ~prepare:(transient_fault ~node:2 ~at_fire:40 armed)
          ~epoch_outputs:10 ~graph:g ~cache ~plan ~outputs:100 ()
      with
      | Error e -> Alcotest.fail ("not recovered: " ^ E.to_string e)
      | Ok report ->
          Alcotest.(check int) "one retry" 1 report.Ccs.Supervisor.retries;
          Alcotest.(check int) "result identical to clean run"
            plain.Ccs.Runner.misses
            report.Ccs.Supervisor.result.Ccs.Runner.misses)

let test_deterministic_fault_quarantined () =
  let g, plan = setup () in
  let always_fault machine =
    Ccs.Machine.set_fire_hook machine
      (Some
         (fun v ->
           if v = 1 && Ccs.Machine.fires machine 1 = 7 then
             raise
               (E.Error
                  (E.Fault
                     {
                       node = G.node_name g 1;
                       fault = E.Nan_output;
                       detail = "deterministic injected fault";
                     }))))
  in
  match
    Ccs.Supervisor.run ~prepare:always_fault ~graph:g ~cache ~plan
      ~outputs:100 ()
  with
  | Ok _ -> Alcotest.fail "deterministic fault not quarantined"
  | Error (E.Quarantined { site; attempts; cause; plan = plan_name; _ }) ->
      Alcotest.(check int) "gave up after two identical attempts" 2 attempts;
      Alcotest.(check bool) "site names the module" true
        (String.length site > 0
        && String.sub site 0 (String.length (G.node_name g 1))
           = G.node_name g 1);
      Alcotest.(check string) "plan named" plan.Ccs.Plan.name plan_name;
      Alcotest.(check string) "cause preserved" "fault-nan-output"
        (E.code cause)
  | Error e -> Alcotest.fail ("expected Quarantined, got " ^ E.to_string e)

let test_retry_exhaustion_quarantines () =
  (* A fault that moves (different firing each attempt, so never twice at
     the same site) must still give up once max_retries is spent. *)
  let g, plan = setup () in
  let attempt = ref 0 in
  let moving_fault machine =
    incr attempt;
    let at = 5 + !attempt in
    Ccs.Machine.set_fire_hook machine
      (Some
         (fun v ->
           if v = 1 && Ccs.Machine.fires machine 1 = at then
             raise
               (E.Error
                  (E.Fault
                     {
                       node = G.node_name g 1;
                       fault = E.Kernel_exception;
                       detail = "moving injected fault";
                     }))))
  in
  match
    Ccs.Supervisor.run
      ~config:{ Ccs.Supervisor.default_config with max_retries = 3 }
      ~prepare:moving_fault ~graph:g ~cache ~plan ~outputs:100 ()
  with
  | Ok _ -> Alcotest.fail "endless fault not quarantined"
  | Error (E.Quarantined { attempts; checkpoint; _ }) ->
      Alcotest.(check int) "max_retries + 1 attempts" 4 attempts;
      Alcotest.(check bool) "no checkpoint dir, no path" true
        (checkpoint = None)
  | Error e -> Alcotest.fail ("expected Quarantined, got " ^ E.to_string e)

let test_quarantine_names_checkpoint () =
  let g, plan = setup () in
  (* The fault sits in the *second* T=256 batch (node 1's 300th firing), so
     by the time it triggers the first epochs have completed and their
     checkpoints are durable — the quarantine report must name the latest. *)
  let always_fault machine =
    Ccs.Machine.set_fire_hook machine
      (Some
         (fun v ->
           if v = 1 && Ccs.Machine.fires machine 1 = 300 then
             raise
               (E.Error
                  (E.Fault
                     {
                       node = G.node_name g 1;
                       fault = E.Nan_output;
                       detail = "deterministic";
                     }))))
  in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      match
        Ccs.Supervisor.run
          ~config:{ Ccs.Supervisor.default_config with checkpoint_every = 1 }
          ~checkpoint_dir:dir ~prepare:always_fault ~epoch_outputs:100 ~graph:g
          ~cache ~plan ~outputs:600 ()
      with
      | Ok _ -> Alcotest.fail "deterministic fault not quarantined"
      | Error (E.Quarantined { checkpoint = Some path; _ }) ->
          Alcotest.(check bool) "checkpoint path exists" true
            (Sys.file_exists path)
      | Error e ->
          Alcotest.fail
            ("expected Quarantined with checkpoint, got " ^ E.to_string e))

let test_resume_under_different_cache_rejected () =
  let g, plan = setup () in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      (match
         Ccs.Supervisor.run
           ~config:{ Ccs.Supervisor.default_config with checkpoint_every = 1 }
           ~checkpoint_dir:dir ~graph:g ~cache ~plan ~outputs:100 ()
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("seed run failed: " ^ E.to_string e));
      let other = Ccs.Cache.config ~size_words:1024 ~block_words:16 () in
      match
        Ccs.Supervisor.run ~checkpoint_dir:dir ~resume:true ~graph:g
          ~cache:other ~plan ~outputs:100 ()
      with
      | Ok _ -> Alcotest.fail "resume under different cache config accepted"
      | Error (E.Checkpoint_mismatch { field; _ }) ->
          Alcotest.(check string) "field" "cache" field
      | Error e ->
          Alcotest.fail ("expected Checkpoint_mismatch, got " ^ E.to_string e))

let test_resume_from_corrupt_checkpoint_rejected () =
  let g, plan = setup () in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      (match
         Ccs.Supervisor.run
           ~config:{ Ccs.Supervisor.default_config with checkpoint_every = 1 }
           ~checkpoint_dir:dir ~graph:g ~cache ~plan ~outputs:100 ()
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("seed run failed: " ^ E.to_string e));
      let _, path =
        match Ccs.Supervisor.latest_checkpoint dir with
        | Some x -> x
        | None -> Alcotest.fail "no checkpoint written"
      in
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let b = Bytes.of_string s in
      let i = Bytes.length b - 5 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      match
        Ccs.Supervisor.run ~checkpoint_dir:dir ~resume:true ~graph:g ~cache
          ~plan ~outputs:100 ()
      with
      | Ok _ -> Alcotest.fail "corrupt checkpoint accepted on resume"
      | Error e ->
          Alcotest.(check string) "error code" "checkpoint-corrupt" (E.code e))

(* --- the kill/resume determinism property --------------------------------- *)

exception Killed

let gen_pipeline =
  QCheck2.Gen.(
    map
      (fun (seed, n) ->
        Ccs.Generators.random_pipeline ~seed ~n:(n + 2) ~max_state:12
          ~max_rate:4 ())
      (pair (int_range 0 10_000) (int_range 2 12)))

let gen_sdf_dag =
  QCheck2.Gen.(
    map
      (fun (seed, n, extra) ->
        Ccs.Generators.random_sdf_dag ~seed ~n:(n + 2) ~max_state:12
          ~max_rate:4 ~extra_edges:extra ())
      (triple (int_range 0 10_000) (int_range 2 8) (int_range 0 4)))

let kill_resume_bit_identical (g, kill_epoch, m_idx) =
  let m_words = [| 128; 256; 512 |].(m_idx) in
  let cfg = Ccs.Config.make ~cache_words:m_words ~block_words:8 () in
  let cache = Ccs.Config.cache_config cfg in
  match try Some (Ccs.Auto.plan g cfg) with _ -> None with
  | None -> QCheck2.assume_fail ()
  | Some choice ->
      let plan = choice.Ccs.Auto.plan in
      let outputs = 60 in
      let epoch_outputs = max 1 (outputs / 8) in
      let entities = G.num_nodes g + G.num_edges g in
      let config =
        { Ccs.Supervisor.default_config with checkpoint_every = 1 }
      in
      let supervised ?checkpoint_dir ?(resume = false) ?on_epoch counters
          =
        Ccs.Supervisor.run ~config ?checkpoint_dir ~resume ~epoch_outputs
          ~counters ?on_epoch ~graph:g ~cache ~plan ~outputs ()
      in
      let c_ref = Ccs.Counters.create ~entities in
      let reference =
        match supervised c_ref with
        | Ok r -> r
        | Error e ->
            QCheck2.Test.fail_reportf "reference run failed: %s"
              (E.to_string e)
      in
      let dir = fresh_dir () in
      Fun.protect
        ~finally:(fun () -> remove_dir dir)
        (fun () ->
          let c_kill = Ccs.Counters.create ~entities in
          (* Kill the run right after [kill_epoch] completes (checkpoint
             already durable) — exactly what `ccsched run --kill-after`
             does with exit 137, minus the process boundary. *)
          (match
             supervised ~checkpoint_dir:dir
               ~on_epoch:(fun ~epoch ~machine:_ ->
                 if epoch = kill_epoch then raise Killed)
               c_kill
           with
          | exception Killed -> ()
          | Ok _ -> () (* kill epoch beyond the run: nothing to kill *)
          | Error e ->
              QCheck2.Test.fail_reportf "killed run failed: %s"
                (E.to_string e));
          let c_res = Ccs.Counters.create ~entities in
          match supervised ~checkpoint_dir:dir ~resume:true c_res with
          | Error e ->
              QCheck2.Test.fail_reportf "resume failed: %s"
                (E.to_string e)
          | Ok resumed ->
              let r1 = reference.Ccs.Supervisor.result in
              let r2 = resumed.Ccs.Supervisor.result in
              r1.Ccs.Runner.misses = r2.Ccs.Runner.misses
              && r1.Ccs.Runner.accesses = r2.Ccs.Runner.accesses
              && r1.Ccs.Runner.outputs = r2.Ccs.Runner.outputs
              && r1.Ccs.Runner.inputs = r2.Ccs.Runner.inputs
              && Ccs.Counters.dump c_ref = Ccs.Counters.dump c_res)

let prop_kill_resume_bit_identical =
  QCheck2.Test.make
    ~name:"killed-at-any-epoch + resumed == uninterrupted (misses, \
           attribution, outputs)"
    ~count:30
    QCheck2.Gen.(
      triple
        (oneof [ gen_pipeline; gen_sdf_dag ])
        (int_range 1 8) (int_range 0 2))
    kill_resume_bit_identical

(* Regression: the dynamic plans of these pipelines fill cross edges that
   carry few tokens per period (seed 35: 256 tokens on an edge carrying 6
   per period), so about 20k upstream firings come before the first
   output — more than a firing budget sized for two batches of 2M source
   firings allowed. *)
let test_budget_covers_cross_buffers seed () =
  let g =
    Ccs.Generators.random_pipeline ~seed ~n:14 ~max_state:12 ~max_rate:4 ()
  in
  Alcotest.(check bool)
    "kill/resume reproduces the uninterrupted run" true
    (kill_resume_bit_identical (g, 3, 0))

let () =
  Alcotest.run "supervisor"
    [
      ( "supervision",
        [
          Alcotest.test_case "happy path = plain run" `Quick
            test_happy_path_matches_plain_run;
          Alcotest.test_case "retry then succeed" `Quick
            test_retry_then_succeed;
          Alcotest.test_case "retry with checkpoint dir" `Quick
            test_retry_with_checkpoint_dir;
          Alcotest.test_case "deterministic fault quarantined" `Quick
            test_deterministic_fault_quarantined;
          Alcotest.test_case "retry exhaustion quarantines" `Quick
            test_retry_exhaustion_quarantines;
          Alcotest.test_case "quarantine names checkpoint" `Quick
            test_quarantine_names_checkpoint;
          Alcotest.test_case "resume under different cache rejected" `Quick
            test_resume_under_different_cache_rejected;
          Alcotest.test_case "resume from corrupt checkpoint rejected" `Quick
            test_resume_from_corrupt_checkpoint_rejected;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest prop_kill_resume_bit_identical;
          Alcotest.test_case "budget covers cross buffers (seed 35)" `Quick
            (test_budget_covers_cross_buffers 35);
          Alcotest.test_case "budget covers cross buffers (seed 44)" `Quick
            (test_budget_covers_cross_buffers 44);
        ] );
    ]
