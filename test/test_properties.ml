(* Cross-cutting property-based tests: random graphs through the whole
   stack, checking the invariants the paper's machinery rests on. *)

module G = Ccs.Graph
module R = Ccs.Rates
module S = Ccs.Schedule
module Sp = Ccs.Spec
module Q = Ccs.Rational

(* Generators of random streaming graphs (as QCheck generators of seeds and
   size parameters; graph construction itself is deterministic per seed). *)

let gen_pipeline =
  QCheck2.Gen.(
    map
      (fun (seed, n) ->
        Ccs.Generators.random_pipeline ~seed ~n:(n + 2) ~max_state:12
          ~max_rate:4 ())
      (pair (int_range 0 10_000) (int_range 2 20)))

let gen_sdf_dag =
  QCheck2.Gen.(
    map
      (fun (seed, n, extra) ->
        Ccs.Generators.random_sdf_dag ~seed ~n:(n + 2) ~max_state:12
          ~max_rate:4 ~extra_edges:extra ())
      (triple (int_range 0 10_000) (int_range 2 12) (int_range 0 6)))

let gen_layered =
  QCheck2.Gen.(
    map
      (fun (seed, layers, width) ->
        Ccs.Generators.layered ~seed ~layers ~width
          ~state:(fun k -> 1 + (k mod 7))
          ~edge_prob:0.35 ())
      (triple (int_range 0 10_000) (int_range 1 4) (int_range 1 4)))

let gen_any_graph = QCheck2.Gen.oneof [ gen_pipeline; gen_sdf_dag; gen_layered ]

(* --- Rate analysis invariants -------------------------------------------- *)

let prop_repetition_balances =
  QCheck2.Test.make ~name:"repetition vector balances every channel"
    ~count:150 gen_any_graph (fun g ->
      let a = R.analyze_exn g in
      List.for_all
        (fun e ->
          a.R.repetition.(G.src g e) * G.push g e
          = a.R.repetition.(G.dst g e) * G.pop g e)
        (G.edges g))

let prop_edge_gain_consistent =
  QCheck2.Test.make ~name:"edge gain = gain(src) * push" ~count:150
    gen_any_graph (fun g ->
      let a = R.analyze_exn g in
      List.for_all
        (fun e ->
          Q.equal (Sdf_oracle.edge_gain a e)
            (Q.mul_int (R.gain a (G.src g e)) (G.push g e)))
        (G.edges g))

(* --- Minbuf / PASS invariants -------------------------------------------- *)

let prop_pass_legal_and_periodic =
  QCheck2.Test.make ~name:"minbuf PASS is legal and periodic" ~count:150
    gen_any_graph (fun g ->
      let a = R.analyze_exn g in
      let mb = Ccs.Minbuf.compute g a in
      let plan =
        Ccs.Plan.of_period ~name:"pass" ~capacities:mb.Ccs.Minbuf.capacity
          (S.of_list mb.Ccs.Minbuf.schedule)
      in
      Ccs.Plan.validate g plan = Ok ())

(* --- Partition invariants ------------------------------------------------ *)

let prop_greedy_partition_valid =
  QCheck2.Test.make ~name:"greedy DAG partition is well-ordered and bounded"
    ~count:150 gen_any_graph (fun g ->
      let max_state =
        List.fold_left (fun acc v -> max acc (G.state g v)) 1 (G.nodes g)
      in
      let bound = max max_state (G.total_state g / 3) in
      let sp = Ccs.Dag_partition.greedy g ~bound in
      Sp.is_well_ordered sp && Sdf_oracle.is_c_bounded sp ~bound)

let prop_pipeline_dp_optimal_under_greedy =
  QCheck2.Test.make ~name:"pipeline DP never worse than theorem-5 greedy"
    ~count:100 gen_pipeline (fun g ->
      let a = R.analyze_exn g in
      let m =
        List.fold_left (fun acc v -> max acc (G.state g v)) 4 (G.nodes g)
      in
      let greedy = Ccs.Pipeline_partition.greedy g a ~m in
      let bound = max (8 * m) (Sp.max_component_state greedy) in
      let dp = Ccs.Pipeline_partition.optimal_dp g a ~bound in
      Q.compare (Sp.bandwidth dp a) (Sp.bandwidth greedy a) <= 0)

let prop_whole_partition_zero_bandwidth =
  QCheck2.Test.make ~name:"whole partition has zero bandwidth" ~count:80
    gen_any_graph (fun g ->
      let a = R.analyze_exn g in
      Q.equal (Sp.bandwidth (Sp.whole g) a) (Q.of_int 0))

let prop_singletons_bandwidth_total =
  QCheck2.Test.make ~name:"singleton partition bandwidth = sum of edge gains"
    ~count:80 gen_any_graph (fun g ->
      let a = R.analyze_exn g in
      let total =
        List.fold_left
          (fun acc e -> Q.add acc (Sdf_oracle.edge_gain a e))
          (Q.of_int 0) (G.edges g)
      in
      Q.equal (Sp.bandwidth (Sdf_oracle.singletons g) a) total)

(* --- Scheduler invariants ------------------------------------------------ *)

let prop_partitioned_batch_legal =
  QCheck2.Test.make ~name:"partitioned batch schedule legal and periodic"
    ~count:100 gen_any_graph (fun g ->
      let a = R.analyze_exn g in
      let max_state =
        List.fold_left (fun acc v -> max acc (G.state g v)) 1 (G.nodes g)
      in
      let bound = max max_state (G.total_state g / 3) in
      let spec = Ccs.Dag_partition.greedy g ~bound in
      let t = R.granularity g a ~at_least:32 in
      let plan = Ccs.Partitioned.batch g a spec ~t in
      Option.is_some plan.Ccs.Plan.period && Ccs.Plan.validate g plan = Ok ())

let prop_partitioned_runs_on_machine =
  QCheck2.Test.make ~name:"partitioned plan reaches output target" ~count:60
    gen_any_graph (fun g ->
      let a = R.analyze_exn g in
      let max_state =
        List.fold_left (fun acc v -> max acc (G.state g v)) 1 (G.nodes g)
      in
      let bound = max max_state (G.total_state g / 3) in
      let spec = Ccs.Dag_partition.greedy g ~bound in
      let t = R.granularity g a ~at_least:32 in
      let plan = Ccs.Partitioned.batch g a spec ~t in
      let r, machine =
        Must.ok
          (Ccs.Runner.run ~graph:g
             ~cache:(Ccs.Cache.config ~size_words:512 ~block_words:8 ())
             ~plan ~outputs:20 ())
      in
      r.Ccs.Runner.outputs >= 20
      && List.for_all
           (fun e ->
             Ccs.Machine.produced machine e - Ccs.Machine.consumed machine e
             = Ccs.Machine.tokens machine e)
           (G.edges g))

let prop_single_appearance_periodic =
  QCheck2.Test.make ~name:"single-appearance periodic on random graphs"
    ~count:100 gen_any_graph (fun g ->
      let a = R.analyze_exn g in
      let plan = Ccs.Baseline.single_appearance g a in
      Option.is_some plan.Ccs.Plan.period && Ccs.Plan.validate g plan = Ok ())

(* --- Cache invariants ----------------------------------------------------- *)

let prop_misses_monotone_in_cache_size =
  (* LRU has the inclusion property, so misses never increase with a
     bigger cache of the same block size. *)
  QCheck2.Test.make ~name:"LRU misses monotone in cache size" ~count:60
    QCheck2.Gen.(
      pair
        (array_size (int_range 1 400) (int_range 0 30))
        (int_range 1 8))
    (fun (blocks, k) ->
      let run size =
        let c =
          Ccs.Cache.create
            (Ccs.Cache.config ~size_words:(size * 8) ~block_words:8 ())
        in
        Array.iter (fun b -> ignore (Ccs.Cache.touch c (b * 8))) blocks;
        Ccs.Cache.misses c
      in
      run (k + 1) <= run k)

let prop_machine_misses_bounded_by_accesses =
  QCheck2.Test.make ~name:"misses <= accesses on machine runs" ~count:60
    gen_any_graph (fun g ->
      let a = R.analyze_exn g in
      let plan = Ccs.Baseline.minimal_memory g a in
      let r, _ =
        Must.ok
          (Ccs.Runner.run ~graph:g
             ~cache:(Ccs.Cache.config ~size_words:128 ~block_words:8 ())
             ~plan ~outputs:10 ())
      in
      r.Ccs.Runner.misses <= r.Ccs.Runner.accesses)

(* Fuzz the machine's firing rule: attempt random firings; every rejection
   must be a Not_fireable exception, every acceptance must preserve token
   conservation and non-negative occupancies within capacity. *)
let prop_machine_fuzz =
  QCheck2.Test.make ~name:"machine firing rule under random firings" ~count:80
    QCheck2.Gen.(
      triple gen_any_graph (int_range 0 10_000)
        (list_size (int_range 1 300) (int_range 0 1_000_000)))
    (fun (g, _salt, picks) ->
      let a = R.analyze_exn g in
      let mb = Ccs.Minbuf.compute g a in
      let machine =
        Ccs.Machine.create ~graph:g
          ~cache:(Ccs.Cache.config ~size_words:128 ~block_words:8 ())
          ~capacities:mb.Ccs.Minbuf.capacity ()
      in
      let n = G.num_nodes g in
      List.for_all
        (fun pick ->
          let v = pick mod n in
          let expected = Ccs.Machine.can_fire machine v in
          let fired =
            match Ccs.Machine.fire machine v with
            | () -> true
            | exception Ccs.Machine.Not_fireable _ -> false
          in
          fired = expected
          && List.for_all
               (fun e ->
                 let tokens = Ccs.Machine.tokens machine e in
                 tokens >= 0
                 && tokens <= Ccs.Machine.capacity machine e
                 && Ccs.Machine.produced machine e
                    - Ccs.Machine.consumed machine e
                    = tokens)
               (G.edges g))
        picks)

(* Every static plan in the standard roster passes offline validation. *)
let prop_standard_plans_validate =
  QCheck2.Test.make ~name:"standard plans pass Plan.validate" ~count:40
    gen_any_graph
    (fun g ->
      let a = R.analyze_exn g in
      let cfg = Ccs.Config.make ~cache_words:256 ~block_words:8 () in
      List.for_all
        (fun plan -> Ccs.Plan.validate g plan = Ok ())
        (Ccs.Compare.standard_plans g a cfg))

let all =
  [
    prop_machine_fuzz;
    prop_standard_plans_validate;
    prop_repetition_balances;
    prop_edge_gain_consistent;
    prop_pass_legal_and_periodic;
    prop_greedy_partition_valid;
    prop_pipeline_dp_optimal_under_greedy;
    prop_whole_partition_zero_bandwidth;
    prop_singletons_bandwidth_total;
    prop_partitioned_batch_legal;
    prop_partitioned_runs_on_machine;
    prop_single_appearance_periodic;
    prop_misses_monotone_in_cache_size;
    prop_machine_misses_bounded_by_accesses;
  ]

let () =
  Alcotest.run "properties"
    [ ("stack", List.map QCheck_alcotest.to_alcotest all) ]
