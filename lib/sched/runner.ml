module Graph = Ccs_sdf.Graph
module E = Ccs_sdf.Error
module Machine = Ccs_exec.Machine
module Cache = Ccs_cache.Cache
module Metrics = Ccs_obs.Metrics

type result = {
  plan_name : string;
  inputs : int;
  outputs : int;
  misses : int;
  accesses : int;
  misses_per_input : float;
  buffer_words : int;
  address_space_words : int;
}

let result_of ~plan machine =
  {
    plan_name = plan.Plan.name;
    inputs = Machine.source_inputs machine;
    outputs = Machine.sink_outputs machine;
    misses = Machine.misses machine;
    accesses = Cache.accesses (Machine.cache machine);
    misses_per_input = Machine.misses_per_input machine;
    buffer_words = Plan.buffer_words plan;
    address_space_words = Machine.address_space_words machine;
  }

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
                let per = max 1 a.Ccs_sdf.Rates.period_tokens.(e) in
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
        let cache_words = Cache.size_words (Machine.cache machine) in
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

let ( let* ) = Result.bind

(* The machine a plan runs on, with construction failures (e.g. a capacity
   below a rate) as structured errors. *)
let create ?record_trace ?counters ?tracer ?metrics ~graph ~cache plan =
  E.protect (fun () ->
      Machine.create ?record_trace ?counters ?tracer ?metrics ~graph ~cache
        ~capacities:plan.Plan.capacities ())

let run ?budget ?record_trace ?counters ?tracer ?metrics ~graph ~cache ~plan
    ~outputs () =
  let* machine =
    create ?record_trace ?counters ?tracer ?metrics ~graph ~cache plan
  in
  let* () = drive ?budget machine ~plan ~outputs in
  Machine.sync_metrics machine;
  Ok (result_of ~plan machine, machine)

type latency = { max_inputs_behind : int; mean_inputs_behind : float }

let run_with_latency ~graph ~cache ~plan ~outputs () =
  let* a = Ccs_sdf.Rates.analyze_checked graph in
  let* machine = create ~graph ~cache plan in
  let sink = Graph.sink graph in
  (* Inputs necessary for k sink firings: k / gain(sink), rounded up. *)
  let inv_gain = Ccs_sdf.Rational.inv a.Ccs_sdf.Rates.node_gain.(sink) in
  let max_behind = ref 0 in
  let sum_behind = ref 0 in
  let samples = ref 0 in
  Machine.set_fire_hook machine
    (Some
       (fun v ->
         if v = sink then begin
           let k = Machine.sink_outputs machine in
           let necessary =
             Ccs_sdf.Rational.ceil (Ccs_sdf.Rational.mul_int inv_gain k)
           in
           let behind = Machine.source_inputs machine - necessary in
           if behind > !max_behind then max_behind := behind;
           sum_behind := !sum_behind + max 0 behind;
           incr samples
         end));
  let* () = drive machine ~plan ~outputs in
  let latency =
    {
      max_inputs_behind = !max_behind;
      mean_inputs_behind =
        (if !samples = 0 then Float.nan
         else float_of_int !sum_behind /. float_of_int !samples);
    }
  in
  Ok (result_of ~plan machine, latency)

let pp_result fmt r =
  Format.fprintf fmt
    "%-28s inputs=%-8d outputs=%-8d misses=%-10d misses/input=%.4f \
     buffers=%dw"
    r.plan_name r.inputs r.outputs r.misses r.misses_per_input r.buffer_words
