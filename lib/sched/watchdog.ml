module Graph = Ccs_sdf.Graph
module E = Ccs_sdf.Error
module Machine = Ccs_exec.Machine
module Metrics = Ccs_obs.Metrics

(* Saturating arithmetic for the budget formula: with huge cache sizes or
   output targets the products below overflow 63-bit ints and wrap to a
   *negative* budget, which would make the very first firing "exceed" it.
   Saturating at max_int keeps the budget semantics (an upper bound that a
   legitimate run never reaches). *)
let sat_add a b =
  let s = a + b in
  if a > 0 && b > 0 && s < 0 then max_int else s

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / b <> a then max_int else p

(* A firing budget comfortably above any legitimate run: batch plans execute
   whole batches of T >= M source firings even for one output, so cover the
   target plus two batches' worth of periods, times a safety factor.  A
   plan may also fill its buffers before the first output (a dynamic
   pipeline plan sizes a cross edge at 2M tokens, which can be many
   periods' worth on a low-rate edge), so cover every channel's capacity
   in periods too. *)
let default_budget ?capacities g ~cache_words ~outputs =
  match Ccs_sdf.Rates.analyze_checked g with
  | Ok a ->
      let rep = a.Ccs_sdf.Rates.repetition in
      let total_rep = Array.fold_left ( + ) 0 rep in
      let per_period = max 1 a.Ccs_sdf.Rates.period_inputs in
      let sink_rep =
        match Graph.sinks g with
        | [ s ] -> max 1 rep.(s)
        | _ -> 1
      in
      let periods_for_target = sat_add outputs (sink_rep - 1) / sink_rep in
      let periods_per_batch =
        sat_add (sat_mul 2 cache_words) (per_period - 1) / per_period
      in
      (* Periods' worth of tokens the plan's channels can hold at once. *)
      let buffered_periods =
        match capacities with
        | Some caps when Array.length caps = Graph.num_edges g ->
            let acc = ref 0 in
            Array.iteri
              (fun e cap ->
                let per = max 1 (rep.(Graph.src g e) * Graph.push g e) in
                acc := sat_add !acc (sat_add cap (per - 1) / per))
              caps;
            !acc
        | _ -> 0
      in
      sat_add 1024
        (sat_mul 8
           (sat_mul total_rep
              (sat_add periods_for_target
                 (sat_add (sat_mul 2 periods_per_batch) buffered_periods))))
  | Error _ ->
      sat_add 1024
        (sat_mul 64 (sat_mul (sat_add outputs 1) (Graph.num_nodes g)))

let drive ?budget ?metrics machine ~plan ~outputs =
  let g = Machine.graph machine in
  let plan_name = plan.Plan.name in
  let fires_before = Machine.total_fires machine in
  let budget =
    match budget with
    | Some b -> b
    | None ->
        let cache_words =
          Ccs_cache.Cache.size_words (Machine.cache machine)
        in
        default_budget ~capacities:plan.Plan.capacities g ~cache_words
          ~outputs
  in
  Machine.set_fire_budget machine (Some (Machine.total_fires machine + budget));
  let result =
    match plan.Plan.drive machine ~target_outputs:outputs with
    | () ->
        if Machine.sink_outputs machine >= outputs then Ok ()
        else
          (* A driver that returns early is as wedged as one that loops. *)
          Result.error
            (E.Deadlocked
               {
                 plan = plan_name;
                 detail =
                   Printf.sprintf
                     "driver returned with %d of %d target outputs"
                     (Machine.sink_outputs machine) outputs;
                 snapshot = Machine.snapshot machine;
               })
    | exception Machine.Not_fireable { node; reason } ->
        Result.error
          (E.Deadlocked
             {
               plan = plan_name;
               detail =
                 Printf.sprintf "module %s cannot fire (%s)"
                   (Graph.node_name g node) reason;
               snapshot = Machine.snapshot machine;
             })
    | exception Machine.Budget_exceeded { budget } ->
        Result.error
          (E.Budget_exhausted
             { plan = plan_name; budget; snapshot = Machine.snapshot machine })
    | exception Graph.Invalid_graph msg ->
        (* Dynamic drivers report scheduling dead ends this way. *)
        Result.error
          (E.Deadlocked
             {
               plan = plan_name;
               detail = msg;
               snapshot = Machine.snapshot machine;
             })
    | exception Invalid_argument msg ->
        Result.error (E.Plan_invalid { plan = plan_name; reason = msg })
    | exception E.Error e -> Result.error e
  in
  Machine.set_fire_budget machine None;
  (match metrics with
  | None -> ()
  | Some reg ->
      Metrics.inc
        (Metrics.counter reg ~help:"Watchdog-supervised drives started"
           "ccs_watchdog_drives_total");
      (match result with
      | Ok () -> ()
      | Error _ ->
          Metrics.inc
            (Metrics.counter reg
               ~help:"Drives that ended in a structured stall diagnostic"
               "ccs_watchdog_trips_total"));
      (* How much of the firing budget the drive left unused — a collapsing
         headroom flags a plan drifting towards its livelock bound. *)
      Metrics.set
        (Metrics.gauge reg
           ~help:"Unused firing budget at the end of the last drive"
           "ccs_watchdog_budget_headroom")
        (budget - (Machine.total_fires machine - fires_before)));
  result

let run ?budget ?record_trace ?metrics ~graph ~cache ~plan ~outputs () =
  match
    E.protect (fun () ->
        Ccs_exec.Machine.create ?record_trace ?metrics ~graph ~cache
          ~capacities:plan.Plan.capacities ())
  with
  | Error e -> Result.error e
  | Ok machine -> (
      match drive ?budget ?metrics machine ~plan ~outputs with
      | Error e -> Result.error e
      | Ok () ->
          Machine.sync_metrics machine;
          Ok (Runner.result_of ~plan machine, machine))
