(* Cache sweep: how does the partitioned scheduler's miss rate scale with
   the cache size on a fixed application?  Demonstrates the library's
   analytic predictions next to simulated measurements.

   Run with: dune exec examples/cache_sweep.exe *)

let () =
  let g = Ccs_apps.Des.graph () in
  Printf.printf "DES pipeline: %d modules, %d words of state\n"
    (Ccs.Graph.num_nodes g) (Ccs.Graph.total_state g);
  let b = 16 in
  let rows =
    List.map
      (fun m ->
        let cfg = Ccs.Config.make ~cache_words:m ~block_words:b () in
        let choice = Ccs.Auto.plan ~dynamic:false g cfg in
        let result, _ =
          match
            Ccs.Runner.run ~graph:g ~cache:(Ccs.Config.cache_config cfg)
              ~plan:choice.Ccs.Auto.plan ~outputs:4000 ()
          with
          | Ok run -> run
          | Error e -> failwith (Ccs.Error.to_string e)
        in
        let predicted =
          Ccs.Analysis.partition_cost_prediction choice.Ccs.Auto.partition
            choice.Ccs.Auto.analysis ~b ~t:choice.Ccs.Auto.batch
        in
        let lower =
          Ccs.Analysis.pipeline_lower_bound g choice.Ccs.Auto.analysis ~m ~b
        in
        [
          string_of_int m;
          string_of_int (Ccs.Spec.num_components choice.Ccs.Auto.partition);
          Ccs.Table.fmt_float lower;
          Ccs.Table.fmt_float predicted;
          Ccs.Table.fmt_float result.Ccs.Runner.misses_per_input;
        ])
      [ 512; 1024; 2048; 4096; 8192; 16384 ]
  in
  Ccs.Table.print
    ~header:[ "M (words)"; "components"; "lower-bound"; "predicted"; "measured" ]
    ~rows
