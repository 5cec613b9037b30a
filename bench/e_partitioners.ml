(* E15: partitioner quality study — the NP-complete problem attacked four
   ways, as the paper's conclusion suggests (exact for small graphs,
   heuristics otherwise).  Compare bandwidth and resulting measured misses
   of: first-fit interval greedy, multi-order DP ("best"), multilevel
   (coarsen + exact on the contracted graph), and the exact order-ideal
   optimum where tractable. *)

module G = Ccs.Graph
module R = Ccs.Rates
module Sp = Ccs.Spec
open Util

let e15 () =
  section "E15-partitioners" "heuristics vs exact on the NP-complete problem";
  let m = 192 and b = 8 in
  let cache = Ccs.Cache.config ~size_words:m ~block_words:b () in
  let cfg = Ccs.Config.make ~cache_words:m ~block_words:b () in
  let graphs =
    List.map
      (fun seed ->
        ( Printf.sprintf "layered s%d" seed,
          Ccs.Generators.layered ~seed ~layers:4 ~width:3
            ~state:(fun k -> 8 + (k mod 17))
            ~edge_prob:0.35 () ))
      [ 11; 12; 13 ]
    @ [
        ("split-join 4x3", Ccs.Generators.split_join ~branches:4 ~depth:3 ~state:12 ());
      ]
  in
  let header =
    [ "graph"; "partitioner"; "comps"; "bandwidth"; "miss/in" ]
  in
  let rows =
    List.concat_map
      (fun (name, g) ->
        let a = R.analyze_exn g in
        let bound = Ccs.Auto.fitting_bound g cfg in
        let schemes =
          [
            ("greedy", Some (Ccs.Dag_partition.greedy g ~bound));
            ("order-dp", Some (Ccs.Dag_partition.best g a ~bound ()));
            ( "multilevel",
              Some (Ccs.Cluster.hierarchical g a ~bound ~coarsen_to:6 ()) );
            ("exact", Ccs.Dag_partition.exact g a ~bound ~max_nodes:20 ());
          ]
        in
        List.filter_map
          (fun (scheme, spec) ->
            Option.map
              (fun spec ->
                let t = R.granularity g a ~at_least:m in
                let plan = Ccs.Partitioned.batch g a spec ~t in
                let mpi = run_mpi g cache plan 2000 in
                [
                  name;
                  scheme;
                  string_of_int (Sp.num_components spec);
                  f (Ccs.Analysis.bandwidth_per_input spec a);
                  f mpi;
                ])
              spec)
          schemes)
      graphs
  in
  Ccs.Table.print ~header ~rows;
  note
    "expect: bandwidth(exact) <= bandwidth(order-dp) <= bandwidth(greedy); \
     misses track bandwidth; multilevel close to exact at a fraction of \
     the cost"
