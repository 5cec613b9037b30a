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

(* Checkpoint file names carry a zero-padded epoch, so the greatest name
   is the newest checkpoint. *)
let newest_checkpoint dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ccsckpt")
  |> List.sort (fun a b -> compare b a)
  |> function
  | [] -> None
  | f :: _ -> Some (Filename.concat dir f)

let setup () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:8 () in
  let cfg = Ccs.Config.make ~cache_words:256 ~block_words:16 () in
  let choice = Ccs.Auto.plan ~dynamic:false g cfg in
  (g, choice.Ccs.Auto.plan)

let test_happy_path_matches_plain_run () =
  let g, plan = setup () in
  let plain, _ =
    Must.ok (Ccs.Runner.run ~graph:g ~cache ~plan ~outputs:100 ())
  in
  match Ccs.Supervisor.run ~graph:g ~cache ~plan ~outputs:100 () with
  | Error e -> Alcotest.fail ("supervised run failed: " ^ E.to_string e)
  | Ok report ->
      Alcotest.(check int) "same misses" plain.Ccs.Runner.misses
        report.Ccs.Supervisor.result.Ccs.Runner.misses;
      Alcotest.(check int) "same outputs" plain.Ccs.Runner.outputs
        report.Ccs.Supervisor.result.Ccs.Runner.outputs;
      Alcotest.(check int) "no retries" 0 report.Ccs.Supervisor.retries;
      (* Every suite app at M=2048 over 16 epochs: a checkpoint every k
         epochs, k in {1, 4, 16}, writes 16/k checkpoints and never
         changes a miss. *)
      let cfg = Ccs.Config.make ~cache_words:2048 ~block_words:16 () in
      let cache = Ccs.Config.cache_config cfg in
      let outputs = 2048 in
      let epoch_outputs = outputs / 16 in
      List.iter
        (fun entry ->
          let app = entry.Ccs_apps.Suite.name in
          let g = entry.Ccs_apps.Suite.graph () in
          let plan = (Ccs.Auto.plan ~dynamic:false g cfg).Ccs.Auto.plan in
          let supervised ?checkpoint_dir k =
            let config =
              { Ccs.Supervisor.default_config with checkpoint_every = k }
            in
            Must.ok
              (Ccs.Supervisor.run ~config ?checkpoint_dir ~epoch_outputs
                 ~graph:g ~cache ~plan ~outputs ())
          in
          let misses r = r.Ccs.Supervisor.result.Ccs.Runner.misses in
          let base = supervised 4 in
          List.iter
            (fun k ->
              let dir = fresh_dir () in
              let r =
                Fun.protect
                  ~finally:(fun () -> remove_dir dir)
                  (fun () -> supervised ~checkpoint_dir:dir k)
              in
              let label = Printf.sprintf "%s k=%d" app k in
              Alcotest.(check int)
                (label ^ " epochs") 16 r.Ccs.Supervisor.epochs;
              Alcotest.(check int)
                (label ^ " checkpoints") (16 / k)
                r.Ccs.Supervisor.checkpoints_written;
              Alcotest.(check int) (label ^ " misses") (misses base) (misses r))
            [ 1; 4; 16 ])
        Ccs_apps.Suite.all

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
  let plain, _ =
    Must.ok (Ccs.Runner.run ~graph:g ~cache ~plan ~outputs:100 ())
  in
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
  let plain, _ =
    Must.ok (Ccs.Runner.run ~graph:g ~cache ~plan ~outputs:100 ())
  in
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
      let path =
        match newest_checkpoint dir with
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

(* A directory holding the checkpoints of a 40-epoch run. *)
let with_longer_run f =
  let g, plan = setup () in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      (match
         Ccs.Supervisor.run
           ~config:{ Ccs.Supervisor.default_config with checkpoint_every = 1 }
           ~checkpoint_dir:dir ~epoch_outputs:10 ~graph:g ~cache ~plan
           ~outputs:400 ()
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("seed run failed: " ^ E.to_string e));
      f g plan dir)

let test_fresh_run_into_used_dir_rejected () =
  with_longer_run @@ fun g plan dir ->
  let before = Sys.readdir dir in
  let newest = Option.get (newest_checkpoint dir) in
  match
    Ccs.Supervisor.run ~checkpoint_dir:dir ~epoch_outputs:10 ~graph:g ~cache
      ~plan ~outputs:100 ()
  with
  | Ok _ -> Alcotest.fail "fresh run mixed its checkpoints with another run's"
  | Error (E.Failure_msg { context; reason }) ->
      Alcotest.(check string) "context" "checkpoint" context;
      let mentions needle =
        let n = String.length needle in
        let rec go i =
          i + n <= String.length reason
          && (String.sub reason i n = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "names the newest file" true (mentions newest);
      Alcotest.(check bool) "suggests --resume" true (mentions "--resume");
      Alcotest.(check bool) "files untouched" true (Sys.readdir dir = before)
  | Error e -> Alcotest.fail ("expected Failure_msg, got " ^ E.to_string e)

let test_resume_past_run_rejected () =
  with_longer_run @@ fun g plan dir ->
  match
    Ccs.Supervisor.run ~checkpoint_dir:dir ~resume:true ~epoch_outputs:10
      ~graph:g ~cache ~plan ~outputs:100 ()
  with
  | Ok r ->
      Alcotest.failf "resumed a 40-epoch checkpoint into a 10-epoch run (%d \
                      outputs)"
        r.Ccs.Supervisor.result.Ccs.Runner.outputs
  | Error (E.Checkpoint_mismatch { field; _ }) ->
      Alcotest.(check string) "field" "epoch" field
  | Error e ->
      Alcotest.fail ("expected Checkpoint_mismatch, got " ^ E.to_string e)

(* --- supervision under adaptation ----------------------------------------- *)

let fm_radio () =
  (Option.get (Ccs_apps.Suite.find "fm-radio")).Ccs_apps.Suite.graph ()

(* fm-radio under a 4x cache shrink at epoch 2: the controller degrades and
   then repartitions within the run's 16 epochs. *)
let adaptive_run ?checkpoint_dir ?(resume = false) ?counters ?prepare () =
  let g = fm_radio () in
  let cfg = Ccs.Config.make ~cache_words:2048 ~block_words:16 () in
  let cache = Ccs.Config.cache_config cfg in
  let c = Ccs.Adapt.create ~planner:(Ccs.Auto.adapt_planner g) cache in
  Ccs.Supervisor.run
    ~config:{ Ccs.Supervisor.default_config with checkpoint_every = 1 }
    ?checkpoint_dir ~resume ~env:(Ccs.Fault.parse_env Run "shrink@2:4") ~adapt:c
    ?counters ?prepare ~epoch_outputs:250 ~graph:g ~cache
    ~plan:c.Ccs.Adapt.live.Ccs.Adapt.plan ~outputs:4000 ()

let adaptations r =
  match r.Ccs.Supervisor.adapt with
  | Some c -> c.Ccs.Adapt.adaptations
  | None -> []

let ok_report = function
  | Ok r -> r
  | Error e -> Alcotest.fail ("adaptive run failed: " ^ E.to_string e)

let test_adaptive_run_prunes () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      let report = ok_report (adaptive_run ~checkpoint_dir:dir ()) in
      Alcotest.(check bool) "adapted" true (adaptations report <> []);
      Alcotest.(check int) "one checkpoint per epoch"
        report.Ccs.Supervisor.epochs report.Ccs.Supervisor.checkpoints_written;
      Alcotest.(check bool) "at most keep files left" true
        (Array.length (Sys.readdir dir)
        <= Ccs.Supervisor.default_config.Ccs.Supervisor.keep))

let test_retry_under_adaptation () =
  (* A transient fault one epoch after the first migration: the loop rolls
     back machine, plan and controller record together, so the retried run
     ends exactly where the fault-free one does. *)
  let g = fm_radio () in
  let entities = G.num_nodes g + G.num_edges g in
  let c_ref = Ccs.Counters.create ~entities in
  let fires = Hashtbl.create 16 in
  let reference =
    ok_report
      (adaptive_run ~counters:c_ref
         ~prepare:(fun m ->
           Ccs.Machine.set_fire_hook m
             (Some
                (fun _ ->
                  Hashtbl.replace fires (Ccs.Machine.sink_outputs m)
                    (Ccs.Machine.total_fires m))))
         ())
  in
  let migration =
    List.find
      (fun e -> e.Ccs.Adapt.action = Ccs.Adapt.Repartition)
      (adaptations reference)
  in
  (* The firing index where the epoch after the migration's ends. *)
  let at_fire =
    Hashtbl.find fires ((migration.Ccs.Adapt.at_epoch + 2) * 250)
  in
  List.iter
    (fun checkpointed ->
      let dir = fresh_dir () in
      let checkpoint_dir = if checkpointed then Some dir else None in
      let armed = ref true in
      let fault m =
        Ccs.Machine.set_fire_hook m
          (Some
             (fun _ ->
               if !armed && Ccs.Machine.total_fires m >= at_fire then begin
                 armed := false;
                 raise
                   (E.Error
                      (E.Fault
                         {
                           node = "m0";
                           fault = E.Kernel_exception;
                           detail = "transient injected fault";
                         }))
               end))
      in
      let c = Ccs.Counters.create ~entities in
      let report =
        Fun.protect
          ~finally:(fun () -> remove_dir dir)
          (fun () ->
            ok_report
              (adaptive_run ?checkpoint_dir ~counters:c ~prepare:fault ()))
      in
      let r1 = reference.Ccs.Supervisor.result in
      let r2 = report.Ccs.Supervisor.result in
      Alcotest.(check bool) "fault fired" false !armed;
      Alcotest.(check int) "one retry" 1 report.Ccs.Supervisor.retries;
      Alcotest.(check bool) "same result" true (r1 = r2);
      Alcotest.(check bool) "same adaptation events" true
        (adaptations reference = adaptations report);
      Alcotest.(check bool) "same per-entity counters" true
        (Ccs.Counters.dump c_ref = Ccs.Counters.dump c))
    [ false; true ]

let test_resume_with_controller_rejected () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      match adaptive_run ~checkpoint_dir:dir ~resume:true () with
      | Error (E.Failure_msg { context = "resume"; _ }) -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ E.to_string e)
      | Ok _ -> Alcotest.fail "adaptive resume accepted")

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

let kill_resume_bit_identical ?(env = []) (g, kill_epoch, m_idx) =
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
          ~env ~counters ?on_epoch ~graph:g ~cache ~plan ~outputs ()
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

(* A chaos environment for a kill at [kill_epoch]: a cache shrink strictly
   before the kill point, a demand burst, and optionally a window of
   checkpoint I/O faults (so the newest durable checkpoint may be older
   than the kill). *)
let chaos_env ~kill_epoch (shrink, divisor, (burst_at, mult, len), io) =
  Ccs.Fault.env_of_sites
    ({ Ccs.Fault.at_epoch = shrink mod kill_epoch;
       event = Ccs.Fault.Cache_shrink divisor }
    :: { Ccs.Fault.at_epoch = burst_at;
         event = Ccs.Fault.Burst { mult; len } }
    :: List.map
         (fun (at, len) ->
           { Ccs.Fault.at_epoch = at; event = Ccs.Fault.Io_fault { len } })
         (Option.to_list io))

let prop_kill_resume_bit_identical =
  QCheck2.Test.make
    ~name:"killed-at-any-epoch + resumed == uninterrupted (misses, \
           attribution, outputs)"
    ~count:30
    QCheck2.Gen.(
      pair
        (triple
           (oneof [ gen_pipeline; gen_sdf_dag ])
           (int_range 1 8) (int_range 0 2))
        (quad (int_range 0 7) (int_range 2 4)
           (triple (int_range 0 8) (int_range 2 3) (int_range 1 3))
           (option (pair (int_range 0 8) (int_range 1 2)))))
    (fun (((_, kill_epoch, _) as case), chaos) ->
      kill_resume_bit_identical ~env:(chaos_env ~kill_epoch chaos) case)

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
          Alcotest.test_case "fresh run into a used directory rejected" `Quick
            test_fresh_run_into_used_dir_rejected;
          Alcotest.test_case "resume past the run's epochs rejected" `Quick
            test_resume_past_run_rejected;
        ] );
      ( "adaptation",
        [
          Alcotest.test_case "adaptive run prunes checkpoints" `Quick
            test_adaptive_run_prunes;
          Alcotest.test_case "retry under adaptation" `Quick
            test_retry_under_adaptation;
          Alcotest.test_case "resume with a controller rejected" `Quick
            test_resume_with_controller_rejected;
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
