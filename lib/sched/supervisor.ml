module Graph = Ccs_sdf.Graph
module E = Ccs_sdf.Error
module Machine = Ccs_exec.Machine
module Checkpoint = Ccs_exec.Checkpoint
module Fault = Ccs_exec.Fault
module Cache = Ccs_cache.Cache
module Counters = Ccs_obs.Counters
module Tracer = Ccs_obs.Tracer
module Metrics = Ccs_obs.Metrics
module Log = Ccs_obs.Log
module Json = Ccs_obs.Json

type config = {
  checkpoint_every : int;
  max_retries : int;
  backoff_base : int;
  keep : int;
}

let default_config =
  { checkpoint_every = 4; max_retries = 4; backoff_base = 1; keep = 2 }

type report = {
  result : Runner.result;
  epochs : int;
  epoch_outputs : int;
  checkpoints_written : int;
  resumed_from : int option;
  retries : int;
  logical_delay : int;
  chaos_events : int;
  io_faults : int;
  adapt : Adapt.t option;
}

(* --- epoch geometry ------------------------------------------------------- *)

let default_epoch_outputs ~graph ~plan =
  match plan.Plan.period with
  | Some period -> (
      let counts =
        Schedule.fire_counts ~num_nodes:(Graph.num_nodes graph) period
      in
      match Graph.sinks graph with
      | [ s ] -> max 1 counts.(s)
      | _ -> max 1 (Schedule.length period))
  | None -> (
      match Ccs_sdf.Rates.analyze_checked graph with
      | Ok a -> (
          match Graph.sinks graph with
          | [ s ] -> max 1 a.Ccs_sdf.Rates.repetition.(s)
          | _ -> 1)
      | Error _ -> 1)

(* The cumulative sink target of every epoch: epoch [i] adds [epoch_outputs]
   times the environment's demand multiplier at [i].  The sequence is a pure
   function of (env, outputs, epoch_outputs), so a killed and resumed run
   replays exactly the targets of an uninterrupted one — the foundation of
   the bit-identical resume property. *)
let epoch_targets ~env ~outputs ~epoch_outputs =
  let rec go i produced acc =
    if produced >= outputs then Array.of_list (List.rev acc)
    else
      let burst = (Fault.conditions_at env i).Fault.burst_mult in
      let target = min outputs (produced + (epoch_outputs * burst)) in
      go (i + 1) target (target :: acc)
  in
  go 0 0 []

(* --- checkpoint files ----------------------------------------------------- *)

let ckpt_name epoch = Printf.sprintf "ckpt-%09d.ccsckpt" epoch

let ckpt_epoch name =
  if String.length name <> 22 then None
  else Scanf.sscanf_opt name "ckpt-%9u.ccsckpt%!" Fun.id

let list_checkpoints dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun name ->
           Option.map (fun e -> (e, Filename.concat dir name)) (ckpt_epoch name))
    |> List.sort compare

let latest_checkpoint dir =
  match List.rev (list_checkpoints dir) with [] -> None | c :: _ -> Some c

let prune ~keep dir =
  let all = list_checkpoints dir in
  let excess = List.length all - keep in
  if excess > 0 then
    List.iteri
      (fun i (_, path) -> if i < excess then try Sys.remove path with _ -> ())
      all

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    E.fail
      (E.Io
         {
           path = dir;
           reason = "checkpoint directory exists but is not a directory";
         })

(* --- fault identity ------------------------------------------------------- *)

(* A stable name for "what failed where", used to detect deterministic
   faults: the same site failing at the same firing index twice in a row is
   not going to succeed on a third attempt. *)
let site_of_error = function
  | E.Fault { node; fault; _ } ->
      Printf.sprintf "%s/%s" node (E.fault_class_to_string fault)
  | e -> E.code e

(* --- the epoch loop ------------------------------------------------------- *)

let run ?(config = default_config) ?checkpoint_dir ?(resume = false)
    ?epoch_outputs ?(env = []) ?adapt ?counters ?tracer ?metrics ?log ?prepare
    ?on_epoch ~graph ~cache ~plan ~outputs () =
  if config.checkpoint_every <= 0 then
    invalid_arg "Supervisor.run: checkpoint_every must be positive";
  if config.max_retries < 0 then
    invalid_arg "Supervisor.run: max_retries must be >= 0";
  if config.keep <= 0 then invalid_arg "Supervisor.run: keep must be positive";
  let plan_digest = Plan.id plan in
  (match adapt with
  | Some c when Plan.id c.Adapt.live.Adapt.plan <> plan_digest ->
      invalid_arg
        "Supervisor.run: plan is not the adaptation controller's initial plan"
  | _ -> ());
  let epoch_outputs =
    match epoch_outputs with
    | Some k ->
        if k <= 0 then
          invalid_arg "Supervisor.run: epoch_outputs must be positive";
        k
    | None -> default_epoch_outputs ~graph ~plan
  in
  let targets = epoch_targets ~env ~outputs ~epoch_outputs in
  let total_epochs = Array.length targets in
  (* Telemetry: the supervisor's series, and the ccs_adapt_* series for runs
     under an environment or a controller. *)
  let series ?(adaptive = false) make name help =
    if adaptive && env = [] && adapt = None then None
    else Option.map (fun reg -> make reg ~help name) metrics
  in
  let counter r ~help n = Metrics.counter r ~help n in
  let gauge r ~help n = Metrics.gauge r ~help n in
  let m_epochs =
    series counter "ccs_supervisor_epochs_total" "Supervisor epochs completed"
  in
  let m_ticks =
    series
      (fun r ~help n -> Metrics.histogram r ~help n)
      "ccs_supervisor_epoch_ticks"
      "Logical duration of each completed epoch (cache accesses)"
  in
  let m_retries =
    series counter "ccs_supervisor_retries_total" "Faulted epochs re-executed"
  in
  let m_rollbacks =
    series counter "ccs_supervisor_rollbacks_total"
      "Machine rollbacks to a checkpoint or pristine state"
  in
  let m_quarantines =
    series counter "ccs_supervisor_quarantines_total"
      "Runs stopped by fault quarantine"
  in
  let m_backoff =
    series counter "ccs_supervisor_backoff_ticks_total"
      "Logical backoff delay charged across retries"
  in
  let m_adaptations =
    series ~adaptive:true counter "ccs_adapt_adaptations_total"
      "Adaptation ladder steps taken"
  in
  let m_degrades =
    series ~adaptive:true counter "ccs_adapt_degrades_total"
      "Graceful-degradation fallbacks engaged"
  in
  let m_repartitions =
    series ~adaptive:true counter "ccs_adapt_repartitions_total"
      "Online repartitions (plan migrations)"
  in
  let m_chaos =
    series ~adaptive:true counter "ccs_adapt_chaos_events_total"
      "Chaos environment events applied"
  in
  let m_io_faults =
    series ~adaptive:true counter "ccs_adapt_io_faults_total"
      "Checkpoint writes lost to injected I/O faults"
  in
  let m_assumed =
    series ~adaptive:true gauge "ccs_adapt_assumed_cache_words"
      "Effective cache capacity the live plan assumes"
  in
  let m_ewma =
    series ~adaptive:true gauge "ccs_adapt_ewma_mpi_milli"
      "EWMA of measured misses per input, in thousandths"
  in
  let inc = Option.iter Metrics.inc in
  let set g v = Option.iter (fun g -> Metrics.set g v) g in
  let ev level event fields =
    Option.iter (fun l -> Log.log l level event fields) log
  in
  (* The cache configuration in force during epoch [i]: the nominal one
     before the first epoch and in a run without an environment. *)
  let cfg_at i =
    if i < 0 || env = [] then cache
    else Fault.env_cache_config cache (Fault.conditions_at env i)
  in
  let live = function Some c -> c.Adapt.live.Adapt.plan | None -> plan in
  E.protect (fun () ->
      if resume && adapt <> None then
        E.fail
          (E.Failure_msg
             {
               context = "resume";
               reason =
                 "an adaptive run cannot resume: checkpoints hold the \
                  machine, not the controller's live plan and ladder state";
             });
      Option.iter ensure_dir checkpoint_dir;
      (* A fresh run must not mix its checkpoints with another run's:
         pruning and [resume] order files by epoch alone. *)
      let latest = Option.bind checkpoint_dir latest_checkpoint in
      (match latest with
      | Some (_, path) when not resume ->
          E.fail
            (E.Failure_msg
               {
                 context = "checkpoint";
                 reason =
                   Printf.sprintf
                     "%s already holds checkpoints (newest: %s); pass \
                      --resume to continue that run, or use an empty \
                      directory"
                     (Filename.dirname path) path;
               })
      | _ -> ());
      ev Log.Info "run_start"
        [
          ("plan", Json.String plan.Plan.name);
          ("plan_digest", Json.String plan_digest);
          ("outputs", Json.Int outputs);
          ("epochs", Json.Int total_epochs);
          ("epoch_outputs", Json.Int epoch_outputs);
          ("chaos", Json.String (Fault.env_to_string env));
          ("adapt", Json.Bool (adapt <> None));
        ];
      let fresh cfg plan =
        let machine =
          Machine.create ?counters ?tracer ?metrics ~graph ~cache:cfg
            ~capacities:plan.Plan.capacities ()
        in
        Option.iter (fun f -> f machine) prepare;
        machine
      in
      (* The loop state as of the last durable checkpoint: its epoch, its
         file (none for the pristine start) and the controller record.  The
         imposed cache configuration is a function of the epoch. *)
      let durable = ref (0, None, adapt) in
      (* Rebuild the machine of a durable state: under the configuration in
         force when it was recorded, for its live plan, restored from its
         checkpoint — counters and tracer included, so replayed epochs are
         indistinguishable from a first execution. *)
      let restore (epoch, path, ctl) =
        let machine = fresh (cfg_at (epoch - 1)) (live ctl) in
        (match path with
        | Some path ->
            let ckpt = Checkpoint.load_into ?metrics ~path machine in
            let expected = (Result.fold ~ok:Fun.id ~error:E.fail ckpt).plan_name
            and found = (live ctl).Plan.name in
            if expected <> found then
              E.fail
                (E.Checkpoint_mismatch
                   { path; field = "plan"; expected; found })
        | None ->
            Option.iter Counters.reset counters;
            Option.iter
              (fun tr -> Tracer.restore tr ~clock:0 ~dropped:0)
              tracer);
        machine
      in
      let resumed = if resume then latest else None in
      Option.iter
        (fun (epoch, path) ->
          if epoch > total_epochs then
            E.fail
              (E.Checkpoint_mismatch
                 {
                   path;
                   field = "epoch";
                   expected = Printf.sprintf "at most %d" total_epochs;
                   found = string_of_int epoch;
                 });
          durable := (epoch, Some path, None);
          ev Log.Info "resume"
            [ ("epoch", Json.Int epoch); ("path", Json.String path) ])
        resumed;
      let resumed_from = Option.map fst resumed in
      let machine =
        ref (if resumed = None then fresh cache plan else restore !durable)
      in
      let ctl = ref adapt in
      let epoch = ref (Option.value resumed_from ~default:0) in
      set m_assumed cache.Cache.size_words;
      let checkpoints_written = ref 0 in
      let retries = ref 0 in
      let logical_delay = ref 0 in
      let last_attempt = ref None in
      let chaos_events = ref 0 in
      let io_faults = ref 0 in
      (* A controller step: adopt its record and machine, report its
         event. *)
      let steer ~epoch ~make_machine signal =
        Option.iter
          (fun c ->
            let c, m, event =
              Adapt.step c ~epoch ~graph ~make_machine signal !machine
            in
            ctl := Some c;
            machine := m;
            if not (Float.is_nan c.Adapt.ewma) then
              set m_ewma (int_of_float (c.Adapt.ewma *. 1000.0));
            Option.iter
              (fun (e : Adapt.event) ->
                inc m_adaptations;
                inc
                  (if e.action = Adapt.Degrade then m_degrades
                   else m_repartitions);
                set m_assumed e.assumed_words;
                ev Log.Warn "adaptation"
                  [
                    ("epoch", Json.Int e.at_epoch);
                    ("action", Json.String (Adapt.action_to_string e.action));
                    ("from_plan", Json.String e.from_plan);
                    ("to_plan", Json.String e.to_plan);
                    ("assumed_words", Json.Int e.assumed_words);
                  ])
              event)
          !ctl
      in
      (* One epoch: impose the environment, let the controller act at the
         boundary, drive to the target, feed the measurement back.  Returns
         the epoch's logical duration (cache accesses). *)
      let drive_epoch i =
        let cfg = cfg_at i in
        if cfg <> cfg_at (i - 1) then begin
          Machine.resize_cache !machine cfg;
          incr chaos_events;
          inc m_chaos;
          ev Log.Warn "chaos"
            [
              ("epoch", Json.Int i);
              ("cache_words", Json.Int cfg.Cache.size_words);
            ]
        end;
        let make_machine = fresh cfg in
        steer ~epoch:i ~make_machine Adapt.Boundary;
        let burst = (Fault.conditions_at env i).Fault.burst_mult in
        if burst > 1 then
          ev Log.Warn "burst"
            [ ("epoch", Json.Int i); ("mult", Json.Int burst) ];
        let epoch_plan =
          match !ctl with Some c -> Adapt.epoch_plan graph c | None -> plan
        in
        let m = !machine in
        let misses = Machine.misses m and inputs = Machine.source_inputs m in
        let ticks = Cache.accesses (Machine.cache m) in
        Result.iter_error E.fail
          (Runner.drive ?metrics m ~plan:epoch_plan ~outputs:targets.(i));
        Machine.sync_metrics m;
        let ticks = Cache.accesses (Machine.cache m) - ticks in
        steer ~epoch:(i + 1) ~make_machine
          (Adapt.Measured
             {
               misses = Machine.misses m - misses;
               inputs = Machine.source_inputs m - inputs;
             });
        ticks
      in
      (* Every [checkpoint_every] epochs and after the last, unless the
         environment fails checkpoint I/O during the epoch. *)
      let checkpoint i dir =
        let epoch = i + 1 in
        if epoch mod config.checkpoint_every = 0 || epoch = total_epochs then
          if (Fault.conditions_at env i).Fault.io_faulty then begin
            incr io_faults;
            inc m_io_faults;
            ev Log.Warn "checkpoint_io_fault" [ ("epoch", Json.Int epoch) ]
          end
          else begin
            let path = Filename.concat dir (ckpt_name epoch) in
            Checkpoint.save ?metrics ~path
              (Checkpoint.capture ~plan_name:(live !ctl).Plan.name ~epoch
                 !machine);
            durable := (epoch, Some path, !ctl);
            incr checkpoints_written;
            ev Log.Info "checkpoint"
              [ ("epoch", Json.Int epoch); ("path", Json.String path) ];
            prune ~keep:config.keep dir
          end
      in
      while !epoch < total_epochs do
        let i = !epoch in
        match try Ok (drive_epoch i) with E.Error e -> Error e with
        | Ok ticks ->
            inc m_epochs;
            Option.iter (fun h -> Metrics.observe h ticks) m_ticks;
            Option.iter (checkpoint i) checkpoint_dir;
            ev Log.Info "epoch"
              [
                ("epoch", Json.Int (i + 1));
                ("target", Json.Int targets.(i));
                ("fires", Json.Int (Machine.total_fires !machine));
                ("misses", Json.Int (Machine.misses !machine));
              ];
            Option.iter (fun f -> f ~epoch:(i + 1) ~machine:!machine) on_epoch;
            last_attempt := None;
            epoch := i + 1
        | Error cause ->
            let firing = Machine.total_fires !machine in
            let site = site_of_error cause in
            let attempt = (site, firing) in
            incr retries;
            inc m_retries;
            let durable_epoch, durable_path, durable_ctl = !durable in
            if !last_attempt = Some attempt || !retries > config.max_retries
            then begin
              inc m_quarantines;
              let plan_digest = Plan.id (live !ctl) in
              ev Log.Error "quarantine"
                [
                  ("site", Json.String site);
                  ("firing", Json.Int firing);
                  ("attempts", Json.Int !retries);
                  ("cause", Json.String (E.code cause));
                  ("plan_digest", Json.String plan_digest);
                ];
              E.fail
                (E.Quarantined
                   {
                     plan = (live !ctl).Plan.name;
                     plan_digest = Some plan_digest;
                     site;
                     firing;
                     attempts = !retries;
                     checkpoint = durable_path;
                     cause;
                   })
            end;
            last_attempt := Some attempt;
            (* Logical-time backoff: doubling per consecutive retry.  The
               simulator has no wall clock, so the delay is accounted, not
               slept. *)
            let backoff = config.backoff_base lsl min 20 (!retries - 1) in
            logical_delay := !logical_delay + backoff;
            Option.iter (fun c -> Metrics.add c backoff) m_backoff;
            ev Log.Warn "retry"
              [
                ("site", Json.String site);
                ("firing", Json.Int firing);
                ("attempt", Json.Int !retries);
                ("backoff", Json.Int backoff);
                ("cause", Json.String (E.code cause));
              ];
            (* Roll the whole loop state back to the last durable
               checkpoint. *)
            inc m_rollbacks;
            machine := restore !durable;
            ctl := durable_ctl;
            epoch := durable_epoch;
            ev Log.Warn "rollback"
              (("to_epoch", Json.Int durable_epoch)
              :: Option.fold ~none:[]
                   ~some:(fun p -> [ ("path", Json.String p) ])
                   durable_path)
      done;
      Machine.sync_metrics !machine;
      let final = live !ctl in
      let result = Runner.result_of ~plan:final !machine in
      ev Log.Info "run_end"
        [
          ("outputs", Json.Int result.Runner.outputs);
          ("misses", Json.Int result.Runner.misses);
          ("retries", Json.Int !retries);
          ("checkpoints", Json.Int !checkpoints_written);
          ("logical_delay", Json.Int !logical_delay);
          ("chaos_events", Json.Int !chaos_events);
          ("io_faults", Json.Int !io_faults);
          ("plan_digest", Json.String (Plan.id final));
        ];
      {
        result;
        epochs = total_epochs;
        epoch_outputs;
        checkpoints_written = !checkpoints_written;
        resumed_from;
        retries = !retries;
        logical_delay = !logical_delay;
        chaos_events = !chaos_events;
        io_faults = !io_faults;
        adapt = !ctl;
      })

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>epochs=%d (x%d outputs) checkpoints=%d retries=%d delay=%d" r.epochs
    r.epoch_outputs r.checkpoints_written r.retries r.logical_delay;
  if r.chaos_events > 0 || r.io_faults > 0 then
    Format.fprintf fmt " chaos=%d io_faults=%d" r.chaos_events r.io_faults;
  Option.iter (Format.fprintf fmt " resumed-from-epoch=%d") r.resumed_from;
  Option.iter
    (fun (c : Adapt.t) ->
      Format.fprintf fmt
        "@,adaptations=%d assumed=%d words; final plan %s (predicted %.4f mpi)"
        (List.length c.adaptations) c.assumed_words (Plan.id c.live.plan)
        c.live.predicted_mpi;
      List.iter (Format.fprintf fmt "@,%a" Adapt.pp_event) c.adaptations)
    r.adapt;
  Format.fprintf fmt "@,%a@]" Runner.pp_result r.result
