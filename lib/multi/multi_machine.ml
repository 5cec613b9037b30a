module Graph = Ccs_sdf.Graph
module E = Ccs_sdf.Error
module Spec = Ccs_partition.Spec
module Cache = Ccs_cache.Cache
module Machine = Ccs_exec.Machine
module Checkpoint = Ccs_exec.Checkpoint
module Plan = Ccs_sched.Plan
module Schedule = Ccs_sched.Schedule
module Metrics = Ccs_obs.Metrics

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

type session = {
  cfg : config;
  plan : Plan.t;
  period : Schedule.t;
  (* One address space, one private cache per processor. *)
  machine : Machine.t;
  (* Words one firing of [v] touches: its state plus every pop and push. *)
  words : int array;
  mutable batches_done : int;
  metrics : Metrics.t option;
}

let create_session ?counters ?tracer ?metrics g _a spec assign ~plan cfg =
  if cfg.processors <> assign.Assign.processors then
    invalid_arg "Multi_machine.run: assignment processor count mismatch";
  let invalid reason =
    E.fail (E.Plan_invalid { plan = plan.Plan.name; reason })
  in
  (* The placement simulator replays a static batch schedule on machines
     that enforce the firing rule, so the plan must certify first: a
     plan that cannot run is a structured caller error, not numbers. *)
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
  let rate edges rate_of =
    List.fold_left (fun acc e -> acc + rate_of g e) 0 edges
  in
  {
    cfg;
    plan;
    period;
    machine =
      Machine.create ?counters ?tracer ~caches:cfg.processors
        ~cache_of:
          (Array.init (Graph.num_nodes g) (fun v ->
               assign.Assign.processor_of_component.(Spec.component_of spec v)))
        ~graph:g ~cache:cfg.cache ~capacities:plan.Plan.capacities ();
    words =
      Array.init (Graph.num_nodes g) (fun v ->
          Graph.state g v
          + rate (Graph.in_edges g v) Graph.pop
          + rate (Graph.out_edges g v) Graph.push);
    batches_done = 0;
    metrics;
  }

let replay machine period k =
  for _ = 1 to k do
    Schedule.iter period ~f:(Machine.fire machine)
  done

let run_batches session k =
  replay session.machine session.period k;
  session.batches_done <- session.batches_done + k

let batches_done session = session.batches_done

(* Pull-model sync: one labeled gauge set per processor cache, refreshed at
   measurement points only — the machine's firing path carries no metrics
   code, so attaching a registry cannot perturb replacement. *)
let sync_metrics session =
  match session.metrics with
  | None -> ()
  | Some reg ->
      Metrics.set
        (Metrics.gauge reg ~help:"Batches of the period schedule replayed"
           "ccs_multi_batches")
        session.batches_done;
      Metrics.set
        (Metrics.gauge reg ~help:"Source firings executed" "ccs_multi_inputs")
        (Machine.source_inputs session.machine);
      Array.iteri
        (fun p cache ->
          let labels = [ ("proc", string_of_int p) ] in
          let g name help = Metrics.gauge reg ~help ~labels name in
          Metrics.set
            (g "ccs_cache_accesses" "Simulated cache accesses")
            (Cache.accesses cache);
          Metrics.set
            (g "ccs_cache_hits" "Simulated cache hits")
            (Cache.hits cache);
          Metrics.set
            (g "ccs_cache_misses" "Simulated cache misses")
            (Cache.misses cache);
          Metrics.set
            (g "ccs_cache_evictions" "Blocks displaced by replacement")
            (Cache.evictions cache))
        (Machine.caches session.machine)

(* The speedup baseline: the same batches on one cache of the same size.
   It is determined by (graph, plan, cache, batches done), so sessions
   neither keep nor save it; it is replayed when a result is asked for. *)
let uniprocessor_misses session =
  let uni =
    Machine.create
      ~graph:(Machine.graph session.machine)
      ~cache:session.cfg.cache ~capacities:session.plan.Plan.capacities ()
  in
  replay uni session.period session.batches_done;
  Machine.misses uni

let result session =
  sync_metrics session;
  let m = session.machine in
  let per_processor_misses = Array.map Cache.misses (Machine.caches m) in
  (* Work is an int sum converted once: exact, so it equals a per-firing
     float accumulation bit for bit. *)
  let work = Array.make session.cfg.processors 0 in
  Array.iteri
    (fun v words ->
      let p = Machine.cache_of m v in
      work.(p) <- work.(p) + (Machine.fires m v * words))
    session.words;
  let inputs = Machine.source_inputs m in
  let per_input x = x /. float_of_int (max 1 inputs) in
  let time w misses =
    per_input
      (float_of_int w +. (session.cfg.miss_penalty *. float_of_int misses))
  in
  let per_processor_time =
    Array.mapi (fun p w -> time w per_processor_misses.(p)) work
  in
  let makespan = Array.fold_left Float.max 0. per_processor_time in
  let uniprocessor_time =
    time (Array.fold_left ( + ) 0 work) (uniprocessor_misses session)
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

(* --- session snapshots ----------------------------------------------------- *)

let save_session ~path session =
  Checkpoint.save ~path
    (Checkpoint.capture ~plan_name:session.plan.Plan.name
       ~epoch:session.batches_done session.machine)

(* A session mismatch names the cache parameter that differs
   ("cache.size_words"), where a machine checkpoint says "cache". *)
let name_cache_field ~saved ~mine = function
  | E.Checkpoint_mismatch ({ field = "cache"; _ } as m) as e -> (
      let fields (c : Cache.config) =
        let tag, ways = Ccs_exec.Plan_key.policy_tag c.Cache.policy in
        [
          ("size_words", c.Cache.size_words);
          ("block_words", c.Cache.block_words);
          ("policy", tag);
          ("ways", ways);
        ]
      in
      match
        List.find_opt
          (fun ((_, a), (_, b)) -> a <> b)
          (List.combine (fields saved) (fields mine))
      with
      | Some ((field, a), (_, b)) ->
          E.Checkpoint_mismatch
            {
              m with
              field = "cache." ^ field;
              expected = string_of_int a;
              found = string_of_int b;
            }
      | None -> e)
  | e -> e

let load_session ~path session =
  let ( let* ) = Result.bind in
  let* ckpt = Checkpoint.load ~path () in
  let* () =
    Checkpoint.validate ~path ckpt session.machine
    |> Result.map_error
         (name_cache_field ~saved:ckpt.Checkpoint.cache_config
            ~mine:session.cfg.cache)
  in
  let* () =
    if ckpt.Checkpoint.plan_name = session.plan.Plan.name then Ok ()
    else
      Error
        (E.Checkpoint_mismatch
           {
             path;
             field = "plan";
             expected = ckpt.Checkpoint.plan_name;
             found = session.plan.Plan.name;
           })
  in
  let* () = Checkpoint.restore ~path ckpt session.machine in
  session.batches_done <- ckpt.Checkpoint.epoch;
  Ok ()

(* --- one-shot wrappers ----------------------------------------------------- *)

let run_plan ?counters ?tracer ?metrics g a spec assign ~plan ~batches cfg =
  let session =
    create_session ?counters ?tracer ?metrics g a spec assign ~plan cfg
  in
  run_batches session batches;
  result session

let run ?counters ?tracer ?metrics g a spec assign ~t ~batches cfg =
  let plan = Ccs_sched.Partitioned.batch g a spec ~t in
  run_plan ?counters ?tracer ?metrics g a spec assign ~plan ~batches cfg
