(* Tests for the workload generators: every generated family must satisfy
   the structural guarantees the rest of the library relies on. *)

module G = Ccs.Graph
module R = Ccs.Rates

let check_invariants ?(expect_homog = false) ?(expect_pipeline = false) name g
    =
  Alcotest.(check bool) (name ^ ": connected") true (G.is_connected g);
  Alcotest.(check bool) (name ^ ": rate matched") true
    (Sdf_oracle.is_rate_matched g);
  Alcotest.(check int)
    (name ^ ": unique source") 1
    (List.length (G.sources g));
  Alcotest.(check int) (name ^ ": unique sink") 1 (List.length (G.sinks g));
  if expect_homog then
    Alcotest.(check bool) (name ^ ": homogeneous") true (G.is_homogeneous g);
  if expect_pipeline then
    Alcotest.(check bool) (name ^ ": pipeline") true (G.is_pipeline g)

let test_pipeline () =
  let g =
    Ccs.Generators.pipeline ~n:7
      ~state:(fun i -> i + 1)
      ~rates:(fun _ -> (2, 3))
      ()
  in
  check_invariants ~expect_pipeline:true "pipeline" g;
  Alcotest.(check int) "n nodes" 7 (G.num_nodes g);
  Alcotest.(check int) "states assigned" 4 (G.state g 3);
  Alcotest.check_raises "n=0 rejected"
    (Invalid_argument "Generators.pipeline: n must be >= 1") (fun () ->
      ignore
        (Ccs.Generators.pipeline ~n:0 ~state:(fun _ -> 1)
           ~rates:(fun _ -> (1, 1))
           ()))

let test_uniform_pipeline () =
  let g = Ccs.Generators.uniform_pipeline ~n:5 ~state:16 () in
  check_invariants ~expect_homog:true ~expect_pipeline:true "uniform" g;
  List.iter
    (fun v -> Alcotest.(check int) "state" 16 (G.state g v))
    (G.nodes g)

let test_random_pipeline_deterministic () =
  let g1 =
    Ccs.Generators.random_pipeline ~seed:42 ~n:20 ~max_state:10 ~max_rate:5 ()
  in
  let g2 =
    Ccs.Generators.random_pipeline ~seed:42 ~n:20 ~max_state:10 ~max_rate:5 ()
  in
  check_invariants ~expect_pipeline:true "random pipeline" g1;
  List.iter
    (fun v ->
      Alcotest.(check int) "same states" (G.state g1 v) (G.state g2 v))
    (G.nodes g1);
  List.iter
    (fun e -> Alcotest.(check int) "same rates" (G.push g1 e) (G.push g2 e))
    (G.edges g1)

let test_layered () =
  let g =
    Ccs.Generators.layered ~seed:7 ~layers:4 ~width:5
      ~state:(fun _ -> 3)
      ~edge_prob:0.3 ()
  in
  check_invariants ~expect_homog:true "layered" g;
  Alcotest.(check int) "node count" (2 + (4 * 5)) (G.num_nodes g);
  (* Every interior node must lie on a source-to-sink path. *)
  let s = G.source g and t = G.sink g in
  List.iter
    (fun v ->
      Alcotest.(check bool) "on a path" true
        (Sdf_oracle.precedes g s v && Sdf_oracle.precedes g v t))
    (G.nodes g)

let test_split_join () =
  let g = Ccs.Generators.split_join ~branches:4 ~depth:3 ~state:2 () in
  check_invariants ~expect_homog:true "split-join" g;
  Alcotest.(check int) "node count" (2 + 2 + (4 * 3)) (G.num_nodes g)

let test_diamond () =
  let g = Ccs.Generators.split_join ~branches:6 ~depth:1 ~state:2 () in
  check_invariants ~expect_homog:true "diamond" g

(* The most common StreamIt program shape: a pipeline of [segments]
   split-joins, each of [branches] chains of [depth] modules. *)
let chain_of_split_joins ~segments ~branches ~depth ~state =
  let b = G.Builder.create ~name:"sj-chain" () in
  let unit_edge src dst =
    ignore (G.Builder.add_channel b ~src ~dst ~push:1 ~pop:1 ())
  in
  let source = G.Builder.add_module b ~state:1 "source" in
  let block prev seg =
    let split =
      G.Builder.add_module b ~state (Printf.sprintf "s%d-split" seg)
    in
    unit_edge prev split;
    let join = G.Builder.add_module b ~state (Printf.sprintf "s%d-join" seg) in
    for br = 0 to branches - 1 do
      let rec chain prev d =
        if d = 0 then prev
        else begin
          let v =
            G.Builder.add_module b ~state
              (Printf.sprintf "s%d-b%d-%d" seg br (depth - d))
          in
          unit_edge prev v;
          chain v (d - 1)
        end
      in
      unit_edge (chain split depth) join
    done;
    join
  in
  let last = ref source in
  for seg = 0 to segments - 1 do
    last := block !last seg
  done;
  let sink = G.Builder.add_module b ~state:1 "sink" in
  unit_edge !last sink;
  G.Builder.build b

let test_chain_of_split_joins () =
  let g = chain_of_split_joins ~segments:3 ~branches:4 ~depth:2 ~state:8 in
  check_invariants ~expect_homog:true "sj-chain" g;
  (* source + sink + per segment: split + join + branches*depth *)
  Alcotest.(check int) "node count" (2 + (3 * (2 + (4 * 2)))) (G.num_nodes g);
  (* The partitioned machinery accepts it end-to-end. *)
  let cfg = Ccs.Config.make ~cache_words:64 ~block_words:8 () in
  let choice = Ccs.Auto.plan g cfg in
  let r, _ =
    Must.ok
      (Ccs.Runner.run ~graph:g ~cache:(Ccs.Config.cache_config cfg)
         ~plan:choice.Ccs.Auto.plan ~outputs:50 ())
  in
  Alcotest.(check bool) "runs" true (r.Ccs.Runner.outputs >= 50)

let test_butterfly () =
  let g = Ccs.Generators.butterfly ~stages:3 ~state:4 () in
  check_invariants ~expect_homog:true "butterfly" g;
  (* 8 lanes, stages 0..3 of 8 nodes each, plus source and sink. *)
  Alcotest.(check int) "node count" (2 + (4 * 8)) (G.num_nodes g);
  (* Nodes in stages 1 .. stages-1 have 2 inputs and 2 outputs; stage 0
     has 1 input (source) and the last stage 1 output (sink). *)
  let two_by_two = ref 0 in
  List.iter
    (fun v ->
      if
        List.length (G.in_edges g v) = 2 && List.length (G.out_edges g v) = 2
      then incr two_by_two)
    (G.nodes g);
  Alcotest.(check int) "2-in 2-out nodes" (2 * 8) !two_by_two

let test_binary_trees () =
  let red = Ccs.Generators.binary_tree ~depth:3 ~state:2 ~reduce:true () in
  check_invariants ~expect_homog:true "reduce tree" red;
  let exp = Ccs.Generators.binary_tree ~depth:3 ~state:2 ~reduce:false () in
  check_invariants ~expect_homog:true "expand tree" exp;
  Alcotest.(check int) "reduce node count" (2 + 7) (G.num_nodes red);
  Alcotest.(check int) "expand node count" (2 + 7) (G.num_nodes exp)

let test_random_sdf_dag () =
  for seed = 0 to 14 do
    let g =
      Ccs.Generators.random_sdf_dag ~seed ~n:15 ~max_state:20 ~max_rate:6
        ~extra_edges:8 ()
    in
    check_invariants (Printf.sprintf "random sdf %d" seed) g;
    Alcotest.(check int) "node count" 15 (G.num_nodes g);
    Alcotest.(check bool) "has extra edges" true (G.num_edges g >= 14)
  done

let test_up_down_sampler () =
  let g = Ccs.Generators.up_down_sampler ~stages:3 ~factor:4 ~state:8 () in
  check_invariants ~expect_pipeline:true "up-down" g;
  let a = R.analyze_exn g in
  (* All gains are 1 by construction. *)
  List.iter
    (fun v ->
      Alcotest.(check bool) "unit gain" true
        (Ccs.Rational.equal (R.gain a v) Ccs.Rational.one))
    (G.nodes g)

let () =
  Alcotest.run "generators"
    [
      ( "unit",
        [
          Alcotest.test_case "pipeline" `Quick test_pipeline;
          Alcotest.test_case "uniform pipeline" `Quick test_uniform_pipeline;
          Alcotest.test_case "random pipeline deterministic" `Quick
            test_random_pipeline_deterministic;
          Alcotest.test_case "layered" `Quick test_layered;
          Alcotest.test_case "split-join" `Quick test_split_join;
          Alcotest.test_case "diamond" `Quick test_diamond;
          Alcotest.test_case "chain of split-joins" `Quick
            test_chain_of_split_joins;
          Alcotest.test_case "butterfly" `Quick test_butterfly;
          Alcotest.test_case "binary trees" `Quick test_binary_trees;
          Alcotest.test_case "random sdf dag" `Quick test_random_sdf_dag;
          Alcotest.test_case "up-down sampler" `Quick test_up_down_sampler;
        ] );
    ]
