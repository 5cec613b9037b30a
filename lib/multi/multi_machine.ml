module Graph = Ccs_sdf.Graph
module E = Ccs_sdf.Error
module Spec = Ccs_partition.Spec
module Cache = Ccs_cache.Cache
module Machine = Ccs_exec.Machine
module Plan = Ccs_sched.Plan
module Schedule = Ccs_sched.Schedule

type config = {
  processors : int;
  cache : Cache.config;
  miss_penalty : float;
}

type result = {
  per_processor_misses : int array;
  per_processor_work : float array;
  per_processor_time : float array;
  makespan : float;
  uniprocessor_time : float;
  speedup : float;
  total_misses : int;
  inputs : int;
}

let replay machine period k =
  for _ = 1 to k do
    Schedule.iter period ~f:(Machine.fire machine)
  done

(* The placement simulator replays a static batch schedule on machines
   that enforce the firing rule, so the plan must certify first: a plan
   that cannot run is a structured caller error, not numbers. *)
let certified_period g plan =
  let invalid reason =
    E.fail (E.Plan_invalid { plan = plan.Plan.name; reason })
  in
  let period =
    match plan.Plan.period with
    | Some p -> p
    | None ->
        invalid
          "plan is aperiodic (no static period); Multi_machine replays \
           periodic batch schedules only"
  in
  (match Plan.validate g plan with
  | Ok () -> ()
  | Error errs -> (
      match List.filter (fun e -> E.severity e = `Error) errs with
      | [] -> ()
      | errs -> invalid (String.concat "; " (List.map E.to_string errs))));
  period

let run_plan ?counters ?tracer g _a spec assign ~plan ~batches cfg =
  if cfg.processors <> assign.Assign.processors then
    invalid_arg "Multi_machine.run: assignment processor count mismatch";
  let period = certified_period g plan in
  (* One address space, one private cache per processor. *)
  let m =
    Machine.create ?counters ?tracer ~caches:cfg.processors
      ~cache_of:
        (Array.init (Graph.num_nodes g) (fun v ->
             assign.Assign.processor_of_component.(Spec.component_of spec v)))
      ~graph:g ~cache:cfg.cache ~capacities:plan.Plan.capacities ()
  in
  replay m period batches;
  (* The speedup baseline: the same batches on one cache of the same size. *)
  let uni =
    Machine.create ~graph:g ~cache:cfg.cache ~capacities:plan.Plan.capacities
      ()
  in
  replay uni period batches;
  let per_processor_misses = Array.map Cache.misses (Machine.caches m) in
  (* Words one firing of [v] touches: its state plus every pop and push.
     Work is an int sum converted once: exact, so it equals a per-firing
     float accumulation bit for bit. *)
  let rate edges rate_of =
    List.fold_left (fun acc e -> acc + rate_of g e) 0 edges
  in
  let work = Array.make cfg.processors 0 in
  List.iter
    (fun v ->
      let words =
        Graph.state g v
        + rate (Graph.in_edges g v) Graph.pop
        + rate (Graph.out_edges g v) Graph.push
      in
      let p = Machine.cache_of m v in
      work.(p) <- work.(p) + (Machine.fires m v * words))
    (Graph.nodes g);
  let inputs = Machine.source_inputs m in
  let per_input x = x /. float_of_int (max 1 inputs) in
  let time w misses =
    per_input (float_of_int w +. (cfg.miss_penalty *. float_of_int misses))
  in
  let per_processor_time =
    Array.mapi (fun p w -> time w per_processor_misses.(p)) work
  in
  let makespan = Array.fold_left Float.max 0. per_processor_time in
  let uniprocessor_time =
    time (Array.fold_left ( + ) 0 work) (Machine.misses uni)
  in
  {
    per_processor_misses;
    per_processor_work = Array.map (fun w -> per_input (float_of_int w)) work;
    per_processor_time;
    makespan;
    uniprocessor_time;
    speedup = (if makespan = 0. then 1. else uniprocessor_time /. makespan);
    total_misses = Array.fold_left ( + ) 0 per_processor_misses;
    inputs;
  }

let run ?counters ?tracer g a spec assign ~t ~batches cfg =
  let plan = Ccs_sched.Partitioned.batch g a spec ~t in
  run_plan ?counters ?tracer g a spec assign ~plan ~batches cfg
