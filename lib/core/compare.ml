module Graph = Ccs_sdf.Graph
module Rates = Ccs_sdf.Rates
module Sched = Ccs_sched
module Runner = Ccs_sched.Runner

type row = {
  result : Runner.result;
  ok : bool;
  error : string option;
}

type report = {
  graph_name : string;
  config : Config.t;
  lower_bound : float option;
  prediction : float option;
  rows : row list;
}

let standard_plans g analysis cfg =
  let m = cfg.Config.cache_words in
  let choice = Auto.plan ~dynamic:false g cfg in
  let static_partitioned = choice.Auto.plan in
  let dynamic_partitioned =
    if Graph.is_pipeline g then [ (Auto.plan ~dynamic:true g cfg).Auto.plan ]
    else if
      Graph.is_homogeneous g
      && List.for_all (fun e -> Graph.delay g e = 0) (Graph.edges g)
      && Ccs_partition.Spec.num_components choice.Auto.partition > 1
    then
      [
        Sched.Partitioned.dag_dynamic g analysis choice.Auto.partition
          ~m_tokens:m;
      ]
    else []
  in
  [ static_partitioned ]
  @ dynamic_partitioned
  @ [
      Sched.Baseline.single_appearance g analysis;
      Sched.Baseline.round_robin g analysis;
      Sched.Baseline.minimal_memory g analysis;
      Sched.Scaling.auto g analysis ~cache_words:m ();
      Sched.Kohli.auto g analysis ~cache_words:m;
    ]

let failed_result name =
  {
    Runner.plan_name = name;
    inputs = 0;
    outputs = 0;
    misses = 0;
    accesses = 0;
    misses_per_input = Float.nan;
    buffer_words = 0;
    address_space_words = 0;
  }

let run ?outputs ?plans g cfg =
  let analysis = Rates.analyze_exn g in
  let outputs =
    match outputs with Some o -> o | None -> 10 * cfg.Config.cache_words
  in
  let plans =
    match plans with Some p -> p | None -> standard_plans g analysis cfg
  in
  let cache = Config.cache_config cfg in
  let rows =
    List.map
      (fun plan ->
        let failed msg =
          {
            result = failed_result plan.Sched.Plan.name;
            ok = false;
            error = Some msg;
          }
        in
        match Runner.run ~graph:g ~cache ~plan ~outputs () with
        | Ok (result, _) -> { result; ok = true; error = None }
        | Error e -> failed (Ccs_sdf.Error.to_string e)
        | exception e -> failed (Printexc.to_string e))
      plans
  in
  let m = cfg.Config.cache_words and b = cfg.Config.block_words in
  let lower_bound =
    if Graph.is_pipeline g then
      Some (Sched.Analysis.pipeline_lower_bound g analysis ~m ~b)
    else Sched.Analysis.dag_lower_bound g analysis ~m ~b ~max_nodes:16 ()
  in
  let prediction =
    let choice = Auto.plan ~dynamic:false g cfg in
    Some
      (Sched.Analysis.partition_cost_prediction choice.Auto.partition analysis
         ~b ~t:choice.Auto.batch)
  in
  { graph_name = Graph.name g; config = cfg; lower_bound; prediction; rows }

let print report =
  Printf.printf "graph %s  [%s]\n" report.graph_name
    (Format.asprintf "%a" Config.pp report.config);
  (match report.lower_bound with
  | Some lb -> Printf.printf "lower bound (misses/input): %s\n" (Table.fmt_float lb)
  | None -> ());
  (match report.prediction with
  | Some p ->
      Printf.printf "partitioned prediction (misses/input): %s\n"
        (Table.fmt_float p)
  | None -> ());
  let rows =
    List.map
      (fun { result = r; ok; error } ->
        [
          r.Runner.plan_name;
          string_of_int r.Runner.inputs;
          string_of_int r.Runner.outputs;
          string_of_int r.Runner.misses;
          Table.fmt_float r.Runner.misses_per_input;
          string_of_int r.Runner.buffer_words;
          (if ok then "ok" else "FAIL: " ^ Option.value ~default:"?" error);
        ])
      report.rows
  in
  Table.print
    ~header:
      [ "scheduler"; "inputs"; "outputs"; "misses"; "miss/in"; "buffers"; "status" ]
    ~rows
