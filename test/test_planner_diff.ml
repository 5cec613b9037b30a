(* Differential tests: the incremental planner loops (Dag.refine,
   Minbuf.compute/feasible, Pipeline.optimal_dp, Partitioned.batch) must
   return exactly what the rescanning originals in [Planner_oracle]
   return — the same partition, schedule and capacities, or the same
   exception text. *)

module G = Ccs.Graph
module R = Ccs.Rates
module S = Ccs.Spec
module D = Ccs.Dag_partition
module P = Ccs.Pipeline_partition
module O = Planner_oracle

let outcome f =
  match f () with x -> Ok x | exception e -> Error (Printexc.to_string e)

let same eq old_ new_ =
  match (old_, new_) with
  | Ok x, Ok y -> eq x y
  | Error x, Error y -> String.equal x y
  | _ -> false

let show_outcome pp = function
  | Ok x -> pp x
  | Error msg -> "exception " ^ msg

let max_state g =
  List.fold_left (fun acc v -> max acc (G.state g v)) 1 (G.nodes g)

(* From the largest module, at which most components are singletons, up
   to half the total state. *)
let bounds g =
  let ms = max_state g and total = G.total_state g in
  List.sort_uniq compare
    [ ms; max ms (total / 8); max ms (total / 4); max ms (total / 2) ]

let degrees = [ None; Some 2; Some 4; Some 16 ]

let show_degree = function None -> "none" | Some d -> string_of_int d

(* Starting points for refine: the interval chunking of every candidate
   order, which may break the degree cap, and its order_dp partition;
   each distinct partition once. *)
let starts g a ~bound ?max_degree () =
  List.concat_map
    (fun order ->
      (match D.interval g ~order ~bound with
      | sp -> [ sp ]
      | exception Invalid_argument _ -> [])
      @
      match D.order_dp g a ~order ~bound ?max_degree () with
      | sp -> [ sp ]
      | exception Invalid_argument _ -> [])
    (D.candidate_orders g a)
  |> List.fold_left
       (fun acc sp -> if List.exists (S.equal sp) acc then acc else sp :: acc)
       []
  |> List.rev

let fail fmt = QCheck2.Test.fail_reportf fmt

let refine_agrees g =
  let a = R.analyze_exn g in
  List.iter
    (fun bound ->
      List.iter
        (fun max_degree ->
          List.iter
            (fun sp ->
              let old_ =
                outcome (fun () -> O.Dag.refine g a ~bound ?max_degree sp)
              and new_ =
                outcome (fun () -> D.refine g a ~bound ?max_degree sp)
              in
              if not (same S.equal old_ new_) then
                fail
                  "%s: refine differs at bound %d, degree cap %s:@.old %s@.new \
                   %s"
                  (G.name g) bound (show_degree max_degree)
                  (show_outcome (Format.asprintf "%a" S.pp) old_)
                  (show_outcome (Format.asprintf "%a" S.pp) new_))
            (starts g a ~bound ?max_degree ()))
        degrees)
    (bounds g);
  true

let show_minbuf (mb : Ccs.Minbuf.t) =
  Printf.sprintf "capacity [%s] schedule [%s]"
    (String.concat ";" (Array.to_list (Array.map string_of_int mb.capacity)))
    (String.concat ";" (List.map string_of_int mb.schedule))

let minbuf_agrees g =
  let a = R.analyze_exn g in
  let old_ = outcome (fun () -> O.Minbuf.compute g a)
  and new_ = outcome (fun () -> Ccs.Minbuf.compute g a) in
  if not (same ( = ) old_ new_) then
    fail "%s: Minbuf.compute differs:@.old %s@.new %s" (G.name g)
      (show_outcome show_minbuf old_) (show_outcome show_minbuf new_);
  (* Feasibility at the minimum buffers, with each channel in turn one
     token short, and at the per-channel rate floor. *)
  let caps = (Ccs.Minbuf.compute g a).capacity in
  let floor =
    Array.init (G.num_edges g) (fun e -> max (G.push g e) (G.pop g e))
  in
  let short =
    List.init (Array.length caps) (fun e ->
        let c = Array.copy caps in
        c.(e) <- c.(e) - 1;
        c)
  in
  List.iter
    (fun capacities ->
      if
        O.Minbuf.feasible g a ~capacities
        <> Ccs.Minbuf.feasible g a ~capacities
      then
        fail "%s: Minbuf.feasible differs at [%s]" (G.name g)
          (String.concat ";"
             (Array.to_list (Array.map string_of_int capacities))))
    ((caps :: floor :: short));
  true

let dp_agrees g =
  let a = R.analyze_exn g in
  List.iter
    (fun bound ->
      let old_ = outcome (fun () -> O.Pipeline.optimal_dp g a ~bound)
      and new_ = outcome (fun () -> P.optimal_dp g a ~bound) in
      if not (same S.equal old_ new_) then
        fail "%s: optimal_dp differs at bound %d:@.old %s@.new %s" (G.name g)
          bound
          (show_outcome (Format.asprintf "%a" S.pp) old_)
          (show_outcome (Format.asprintf "%a" S.pp) new_))
    (List.map (fun b -> b - 1) (bounds g) @ bounds g);
  true

let same_plan (p : Ccs.Plan.t) (q : Ccs.Plan.t) =
  p.name = q.name && p.capacities = q.capacities && p.period = q.period

(* The partitions a plan is batched over: every bound's planner choice
   with and without a degree cap, plus singletons and the whole graph. *)
let batch_agrees g =
  let a = R.analyze_exn g in
  let specs =
    S.singletons g :: S.whole g
    :: List.concat_map
         (fun bound ->
           List.filter_map
             (fun max_degree ->
               match D.best g a ~bound ?max_degree () with
               | sp -> Some sp
               | exception Invalid_argument _ -> None)
             [ None; Some 4 ])
         (bounds g)
  in
  List.iter
    (fun spec ->
      List.iter
        (fun at_least ->
          let t = R.granularity g a ~at_least in
          let old_ = outcome (fun () -> O.Partitioned.batch g a spec ~t)
          and new_ = outcome (fun () -> Ccs.Partitioned.batch g a spec ~t) in
          if not (same same_plan old_ new_) then
            fail "%s: batch differs at T=%d on %s" (G.name g) t
              (Format.asprintf "%a" S.pp spec))
        [ 1; 64 ];
      for c = 0 to S.num_components spec - 1 do
        if
          O.Partitioned.local_period g a spec c
          <> Ccs.Partitioned.local_period g a spec c
        then
          fail "%s: local_period differs for component %d" (G.name g) c
      done)
    specs;
  true

(* --- inputs ------------------------------------------------------------ *)

let gen_unit_dag =
  QCheck2.Gen.(
    map
      (fun (seed, (layers, width), p) ->
        Ccs.Generators.layered
          ~name:(Printf.sprintf "layered-s%d" seed)
          ~seed ~layers ~width
          ~state:(fun k -> 1 + ((((k * 37) + seed) mod 40)))
          ~edge_prob:p ())
      (triple (int_range 0 10_000)
         (pair (int_range 1 5) (int_range 1 6))
         (float_range 0.1 0.7)))

let gen_sdf_dag =
  QCheck2.Gen.(
    map
      (fun (seed, n, (max_rate, extra_edges)) ->
        Ccs.Generators.random_sdf_dag
          ~name:(Printf.sprintf "sdf-dag-s%d" seed)
          ~seed ~n ~max_state:40 ~max_rate ~extra_edges ())
      (triple (int_range 0 10_000) (int_range 3 24)
         (pair (int_range 1 4) (int_range 0 10))))

(* Rates multiply along a chain, so a random 40-stage chain can fire
   millions of times per period; the oracles simulate every firing with a
   scan of all modules, so the simulating properties take chains of at
   most 16 stages, while the segmentation DP, whose cost does not depend
   on the period, takes 40. *)
let gen_pipeline_upto max_n =
  QCheck2.Gen.(
    oneof
      [
        map
          (fun (seed, n, max_rate) ->
            Ccs.Generators.random_pipeline
              ~name:(Printf.sprintf "pipeline-s%d" seed)
              ~seed ~n ~max_state:40 ~max_rate ())
          (triple (int_range 0 10_000) (int_range 1 max_n) (int_range 1 4));
        map
          (fun (stages, factor, state) ->
            Ccs.Generators.up_down_sampler ~stages ~factor ~state ())
          (triple (int_range 1 6) (int_range 2 4) (int_range 1 30));
      ])

let gen_pipeline = gen_pipeline_upto 16

(* The same graph with initial tokens on some channels. *)
let with_delays seed g =
  let rng = Random.State.make [| seed |] in
  let b = G.Builder.create ~name:(G.name g ^ "-delayed") () in
  List.iter
    (fun v ->
      ignore (G.Builder.add_module b ~state:(G.state g v) (G.node_name g v)))
    (G.nodes g);
  List.iter
    (fun e ->
      let delay =
        if Random.State.bool rng then 0
        else Random.State.int rng (G.push g e + G.pop g e + 1)
      in
      ignore
        (G.Builder.add_channel b ~delay ~src:(G.src g e) ~dst:(G.dst g e)
           ~push:(G.push g e) ~pop:(G.pop g e) ()))
    (G.edges g);
  G.Builder.build b

let gen_any =
  QCheck2.Gen.(
    oneof
      [
        gen_unit_dag;
        gen_sdf_dag;
        gen_pipeline;
        map2 with_delays (int_range 0 10_000)
          (oneof [ gen_unit_dag; gen_sdf_dag; gen_pipeline ]);
      ])

let print = Ccs.Serial.to_text

let prop name ~count gen f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print gen f)

let suite_graphs () =
  List.concat_map
    (fun (entry : Ccs_apps.Suite.entry) -> [ entry.graph (); entry.scaled 4 ])
    Ccs_apps.Suite.all

let on_suite check () =
  List.iter
    (fun g -> Alcotest.(check bool) (G.name g) true (check g))
    (suite_graphs ())

let () =
  Alcotest.run "planner_diff"
    [
      ( "random",
        [
          prop "refine == oracle (DAGs)" ~count:150
            (QCheck2.Gen.oneof [ gen_unit_dag; gen_sdf_dag ])
            refine_agrees;
          prop "refine == oracle (pipelines)" ~count:50 gen_pipeline
            refine_agrees;
          prop "minbuf + feasible == oracle" ~count:300 gen_any minbuf_agrees;
          prop "optimal_dp == oracle" ~count:300 (gen_pipeline_upto 40)
            dp_agrees;
          prop "batch + local_period == oracle" ~count:150 gen_any
            batch_agrees;
        ] );
      ( "suite",
        [
          Alcotest.test_case "refine == oracle" `Quick (on_suite refine_agrees);
          Alcotest.test_case "minbuf + feasible == oracle" `Quick
            (on_suite minbuf_agrees);
          Alcotest.test_case "optimal_dp == oracle" `Quick
            (on_suite (fun g -> (not (G.is_pipeline g)) || dp_agrees g));
          Alcotest.test_case "batch + local_period == oracle" `Quick
            (on_suite batch_agrees);
        ] );
    ]
