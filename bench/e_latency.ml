(* E17: the latency cost of cache efficiency.  The paper optimizes misses
   only; its batching holds Θ(M) tokens per cross edge, so input-to-output
   latency necessarily grows with T and the component count, while the
   miss-heavy minimal-memory schedule keeps latency at the pipeline depth.
   Quantify that tradeoff: a Pareto frontier between misses/input and
   backlog. *)

module G = Ccs.Graph
module R = Ccs.Rates
open Util

let e17 () =
  section "E17-latency" "misses/input vs input backlog (latency) tradeoff";
  let g = Ccs.Generators.uniform_pipeline ~n:16 ~state:64 () in
  let a = R.analyze_exn g in
  let m = 256 and b = 16 in
  let cache = Ccs.Cache.config ~size_words:m ~block_words:b () in
  let spec = fitting_partition ~b g ~m in
  let plans =
    [
      Ccs.Baseline.minimal_memory g a;
      Ccs.Scaling.auto g a ~cache_words:m ();
      Ccs.Partitioned.batch g a spec ~t:(m / 4);
      Ccs.Partitioned.batch g a spec ~t:m;
      Ccs.Partitioned.batch g a spec ~t:(4 * m);
      Ccs.Partitioned.pipeline_dynamic g a spec ~m_tokens:m;
    ]
  in
  let rows =
    List.map
      (fun plan ->
        let result, lat =
          ok_exn
            (Ccs.Runner.run_with_latency ~graph:g ~cache ~plan ~outputs:8192
               ())
        in
        if Json.enabled () then
          Json.point
            [
              ("kind", Json.String "latency");
              ("graph", Json.String (G.name g));
              ("plan", Json.String plan.Ccs.Plan.name);
              ("m", Json.Int m);
              ("b", Json.Int b);
              ( "misses_per_input",
                Json.Float result.Ccs.Runner.misses_per_input );
              ("max_backlog", Json.Int lat.Ccs.Runner.max_inputs_behind);
              ("mean_backlog", Json.Float lat.Ccs.Runner.mean_inputs_behind);
            ];
        [
          plan.Ccs.Plan.name;
          f result.Ccs.Runner.misses_per_input;
          string_of_int lat.Ccs.Runner.max_inputs_behind;
          f lat.Ccs.Runner.mean_inputs_behind;
        ])
      plans
  in
  Ccs.Table.print
    ~header:[ "scheduler"; "miss/in"; "max backlog"; "mean backlog" ]
    ~rows;
  note
    "expect: a Pareto frontier — minimal-memory has depth-sized backlog \
     and huge misses; batch T sweeps backlog up (T x components) as \
     misses fall; the dynamic half-full rule sits between"
