(* Differential tests: the incremental planner loops (Dag.refine,
   Minbuf.compute/feasible, Pipeline.optimal_dp, Partitioned.batch) must
   return exactly what the rescanning originals in [Planner_oracle]
   return — the same partition, schedule and capacities, or the same
   exception text.  Plan certification (Plan.validate, Simulate.peaks)
   must return exactly what the replaying original in [Certify_oracle]
   returns — the same findings in the same order, with the same witness
   firing.  The partitioners that compare integer period tokens
   (candidate orders, order_dp, best, exact, Auto.partition) and the
   Analysis bounds over them must return exactly what their rational
   originals in [Planner_oracle.Rational_partition] return, float for
   float. *)

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
    Sdf_oracle.singletons g :: S.whole g
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

module Q_partition = O.Rational_partition

let show_spec = Format.asprintf "%a" S.pp

let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* Every candidate order, each order's order_dp, best and exact at every
   bound and degree cap, and the Analysis floats over the results. *)
let partition_agrees g =
  let a = R.analyze_exn g in
  let orders = D.candidate_orders g a in
  if orders <> Q_partition.Dag.candidate_orders g a then
    fail "%s: candidate_orders differ" (G.name g);
  let cost_agrees spec =
    let t = R.granularity g a ~at_least:64 in
    let old_ = Q_partition.Analysis.partition_cost_prediction spec a ~b:16 ~t
    and new_ = Ccs.Analysis.partition_cost_prediction spec a ~b:16 ~t in
    if not (same_float old_ new_) then
      fail "%s: partition_cost_prediction %h, oracle %h on %s" (G.name g)
        new_ old_ (show_spec spec)
  in
  List.iter
    (fun bound ->
      List.iter
        (fun max_degree ->
          List.iter
            (fun order ->
              let old_ =
                outcome (fun () ->
                    Q_partition.Dag.order_dp g a ~order ~bound ?max_degree ())
              and new_ =
                outcome (fun () -> D.order_dp g a ~order ~bound ?max_degree ())
              in
              if not (same S.equal old_ new_) then
                fail "%s: order_dp differs at bound %d, degree cap %s:@.old \
                      %s@.new %s"
                  (G.name g) bound (show_degree max_degree)
                  (show_outcome show_spec old_) (show_outcome show_spec new_))
            orders;
          let old_ =
            outcome (fun () -> Q_partition.Dag.best g a ~bound ?max_degree ())
          and new_ = outcome (fun () -> D.best g a ~bound ?max_degree ()) in
          if not (same S.equal old_ new_) then
            fail "%s: best differs at bound %d, degree cap %s:@.old %s@.new %s"
              (G.name g) bound (show_degree max_degree)
              (show_outcome show_spec old_) (show_outcome show_spec new_);
          Result.iter cost_agrees new_)
        degrees;
      let old_ = Q_partition.Dag.exact g a ~bound ()
      and new_ = D.exact g a ~bound () in
      if not (Option.equal S.equal old_ new_) then
        fail "%s: exact differs at bound %d:@.old %s@.new %s" (G.name g) bound
          (Option.fold ~none:"none" ~some:show_spec old_)
          (Option.fold ~none:"none" ~some:show_spec new_);
      Option.iter cost_agrees new_)
    (bounds g);
  if G.is_pipeline g then begin
    let chain = P.chain_order g in
    let n = Array.length chain in
    for lo = 0 to n - 2 do
      for hi = lo + 1 to n - 1 do
        if
          P.gain_minimizing_edge g a chain ~lo ~hi
          <> Q_partition.Pipeline.gain_minimizing_edge g a chain ~lo ~hi
        then
          fail "%s: gain_minimizing_edge differs on [%d, %d]" (G.name g) lo hi
      done
    done
  end;
  cost_agrees (Sdf_oracle.singletons g);
  cost_agrees (S.whole g);
  (* Small caches, where Auto.partition runs the exact search under a
     tight degree cap and weighs it against the heuristic. *)
  List.iter
    (fun cache_words ->
      let cfg = Ccs.Config.make ~cache_words ~block_words:4 () in
      let old_ = outcome (fun () -> Q_partition.Auto.partition g a cfg)
      and new_ = outcome (fun () -> Ccs.Auto.partition g a cfg) in
      if not (same S.equal old_ new_) then
        fail "%s: Auto.partition differs at M=%d:@.old %s@.new %s" (G.name g)
          cache_words
          (show_outcome show_spec old_) (show_outcome show_spec new_))
    [ 32; 64; 128 ];
  List.iter
    (fun m ->
      let old_ = Q_partition.Analysis.dag_lower_bound g a ~m ~b:16 ()
      and new_ = Ccs.Analysis.dag_lower_bound g a ~m ~b:16 () in
      if not (Option.equal same_float old_ new_) then
        fail "%s: dag_lower_bound differs at m %d" (G.name g) m;
      if G.is_pipeline g then begin
        let old_ = Q_partition.Analysis.pipeline_lower_bound g a ~m ~b:16
        and new_ = Ccs.Analysis.pipeline_lower_bound g a ~m ~b:16 in
        if not (same_float old_ new_) then
          fail "%s: pipeline_lower_bound %h, oracle %h at m %d" (G.name g) new_
            old_ m
      end)
    (List.sort_uniq compare
       (List.map (fun bound -> max 1 (bound / 3)) (bounds g)));
  true

(* Auto.partition of a suite application at three cache sizes, and the
   Analysis floats for its partition and graph. *)
let auto_agrees g =
  let a = R.analyze_exn g in
  List.iter
    (fun cache_words ->
      let cfg = Ccs.Config.make ~cache_words ~block_words:16 () in
      let old_ = outcome (fun () -> Q_partition.Auto.partition g a cfg)
      and new_ = outcome (fun () -> Ccs.Auto.partition g a cfg) in
      if not (same S.equal old_ new_) then
        fail "%s: Auto.partition differs at M=%d:@.old %s@.new %s" (G.name g)
          cache_words
          (show_outcome show_spec old_) (show_outcome show_spec new_);
      let t = R.granularity g a ~at_least:cache_words in
      Result.iter
        (fun spec ->
          if
            not
              (same_float
                 (Q_partition.Analysis.partition_cost_prediction spec a ~b:16
                    ~t)
                 (Ccs.Analysis.partition_cost_prediction spec a ~b:16 ~t))
          then
            fail "%s: partition_cost_prediction differs at M=%d" (G.name g)
              cache_words)
        new_;
      let m = cache_words / 4 in
      if
        not
          (Option.equal same_float
             (Q_partition.Analysis.dag_lower_bound g a ~m ~b:16 ~max_nodes:16 ())
             (Ccs.Analysis.dag_lower_bound g a ~m ~b:16 ~max_nodes:16 ()))
      then fail "%s: dag_lower_bound differs at m=%d" (G.name g) m;
      if
        G.is_pipeline g
        && not
             (same_float
                (Q_partition.Analysis.pipeline_lower_bound g a ~m ~b:16)
                (Ccs.Analysis.pipeline_lower_bound g a ~m ~b:16))
      then fail "%s: pipeline_lower_bound differs at m=%d" (G.name g) m)
    [ 256; 1024; 2048 ];
  true

module C = Certify_oracle
module Sch = Ccs.Schedule

let show_validation = function
  | Ok () -> "ok"
  | Error es -> String.concat "; " (List.map Ccs.Error.to_string es)

let show_caps caps =
  String.concat ";" (Array.to_list (Array.map string_of_int caps))

let oracle_peaks g sched =
  match C.Simulate.peaks g sched with
  | peak -> Ok peak
  | exception C.Simulate.Illegal { node; edge; at_firing } ->
      Error
        (Ccs.Error.Schedule_illegal
           {
             node = G.node_name g node;
             edge = G.edge_name g edge;
             at_firing;
             kind = `Underflow;
           })

let new_peaks g sched =
  match Ccs.Simulate.peaks g sched with
  | peak -> Ok peak
  | exception Ccs.Error.Error e -> Error e

let peaks_agree g sched =
  let old_ = oracle_peaks g sched and new_ = new_peaks g sched in
  if old_ <> new_ then
    fail "%s: peaks differ:@.old %s@.new %s" (G.name g)
      (show_outcome show_caps (Result.map_error Ccs.Error.to_string old_))
      (show_outcome show_caps (Result.map_error Ccs.Error.to_string new_))

let validate_agrees ?cache ?spec g (plan : Ccs.Plan.t) =
  let old_ = C.Plan.validate ?cache ?spec g plan
  and new_ = Ccs.Plan.validate ?cache ?spec g plan in
  if old_ <> new_ then
    fail "%s: Plan.validate differs for %s at [%s]:@.old %s@.new %s"
      (G.name g) plan.name (show_caps plan.capacities)
      (show_validation old_) (show_validation new_)

(* A plan's capacities, and the same with one of up to three channels a
   token short, which turns a legal period into an overflowing one. *)
let tightened caps =
  let m = Array.length caps in
  caps
  :: List.map
       (fun e ->
         let c = Array.copy caps in
         c.(e) <- c.(e) - 1;
         c)
       (List.sort_uniq compare (if m = 0 then [] else [ 0; m / 2; m - 1 ]))

let plan_agrees ?cache ?spec g (plan : Ccs.Plan.t) =
  Option.iter (peaks_agree g) plan.period;
  List.iter
    (fun capacities -> validate_agrees ?cache ?spec g { plan with capacities })
    (tightened plan.capacities)

(* Nested trees, 3 to 5 levels deep: [Repeat] counts 0 to 5 and [Seq]s
   of one to three children, one of which keeps the full depth.  Most
   leaves fire the modules of [walk], a legal firing sequence, in turn,
   so a tree runs legally for a while before a repeated body underflows
   or outgrows the capacities, which puts the first bad firing deep in
   the tree; the others fire a random module.  Trees the oracle could
   not replay quickly (over 2,000 firings) are dropped. *)
let nested_trees rng g walk =
  let walk = Array.of_list (Sdf_oracle.firings walk) in
  let next = ref 0 in
  let leaf () =
    if Array.length walk = 0 || Random.State.int rng 4 = 0 then
      Sch.fire (Random.State.int rng (G.num_nodes g))
    else begin
      let v = walk.(!next mod Array.length walk) in
      incr next;
      Sch.fire v
    end
  in
  let rec tree depth =
    if depth = 0 then leaf ()
    else if Random.State.bool rng then
      Sch.repeat (Random.State.int rng 6) (tree (depth - 1))
    else
      let width = 1 + Random.State.int rng 3 in
      let deep = Random.State.int rng width in
      Sch.seq
        (List.init width (fun i ->
             tree (if i = deep then depth - 1 else Random.State.int rng depth)))
  in
  List.init 12 (fun _ -> tree (3 + Random.State.int rng 3))
  |> List.filter (fun t -> Sch.length t <= 2_000)

(* Firing sequences of every kind: empty, legal and balanced (PASS, and
   PASS twice as a loop), unbalanced (one extra firing), underflowing
   (PASS reversed, random modules), legal but unbalanced random walks
   over modules whose inputs hold enough tokens, and nested trees. *)
let random_schedules g =
  let rng = Random.State.make [| G.num_edges g; Hashtbl.hash (G.name g) |] in
  let pass = Sch.of_list (Ccs.Minbuf.compute g (R.analyze_exn g)).schedule in
  let walk ~legal len =
    let tokens = Array.init (G.num_edges g) (G.delay g) in
    let fireable v =
      List.for_all (fun e -> tokens.(e) >= G.pop g e) (G.in_edges g v)
    in
    let fired = ref [] in
    for _ = 1 to len do
      let candidates =
        List.filter (fun v -> fireable v || not legal) (G.nodes g)
      in
      if candidates <> [] then begin
        let v =
          List.nth candidates (Random.State.int rng (List.length candidates))
        in
        List.iter
          (fun e -> tokens.(e) <- tokens.(e) - G.pop g e)
          (G.in_edges g v);
        List.iter
          (fun e -> tokens.(e) <- tokens.(e) + G.push g e)
          (G.out_edges g v);
        fired := v :: !fired
      end
    done;
    Sch.of_list (List.rev !fired)
  in
  [
    Sch.seq [];
    pass;
    Sch.repeat 2 pass;
    Sch.seq [ pass; Sch.fire (Random.State.int rng (G.num_nodes g)) ];
    Sch.of_list (List.rev (Sdf_oracle.firings pass));
    walk ~legal:false 40;
    walk ~legal:true 40;
  ]
  @ nested_trees rng g (walk ~legal:true 40)
  @ nested_trees rng g pass

(* Each random schedule at its own peaks (raised to the rate floor), at
   the rate floor, with a channel a token short, and unbounded. *)
let schedules_agree g =
  let floor =
    Array.init (G.num_edges g) (fun e -> max (G.push g e) (G.pop g e))
  in
  List.iter
    (fun sched ->
      let fits =
        match C.Simulate.peaks g sched with
        | peak -> Array.map2 max peak floor
        | exception C.Simulate.Illegal _ -> floor
      in
      peaks_agree g sched;
      List.iter
        (fun capacities ->
          validate_agrees g
            (Ccs.Plan.of_period ~name:"random" ~capacities sched))
        ((floor :: tightened fits) @ [ Array.make (G.num_edges g) max_int ]))
    (random_schedules g);
  true

(* Every static planner's output: Auto.plan at two cache sizes (checked
   with its partition and cache, as Check.plan does), the three baselines,
   execution scaling, and the partitioned batch and homogeneous plans. *)
let planners_agree g =
  let a = R.analyze_exn g in
  List.iter
    (fun cache_words ->
      let cfg = Ccs.Config.make ~cache_words ~block_words:16 () in
      let c = Ccs.Auto.plan ~dynamic:false g cfg in
      plan_agrees ~cache:(Ccs.Config.cache_config cfg) ~spec:c.partition g
        c.plan)
    [ 256; 2048 ];
  let spec = D.greedy g ~bound:(max (max_state g) (G.total_state g / 3)) in
  (* Scaling a PASS that starts by consuming initial tokens can underflow
     them: Scaling.plan then raises the oracle's underflow witness, and
     Scaling.auto keeps to the factors that stay legal. *)
  let scaled s =
    match Ccs.Scaling.plan g a ~s with
    | plan -> [ plan ]
    | exception Ccs.Error.Error e ->
        (* The scaled PASS: each invocation repeated [s] times. *)
        let scaled =
          Ccs.Schedule.seq
            (List.map
               (fun v -> Ccs.Schedule.repeat s (Ccs.Schedule.fire v))
               (Ccs.Minbuf.compute g a).Ccs.Minbuf.schedule)
        in
        let old_ = oracle_peaks g scaled in
        if old_ <> Error e then
          fail "%s: Scaling.plan ~s:%d raised %s, the oracle %s" (G.name g) s
            (Ccs.Error.to_string e)
            (show_outcome show_caps
               (Result.map_error Ccs.Error.to_string old_));
        []
  in
  let auto = Ccs.Scaling.auto g a ~cache_words:256 () in
  (match Ccs.Plan.validate g auto with
  | Ok () -> ()
  | Error es ->
      fail "%s: Scaling.auto's %s does not certify: %s" (G.name g) auto.name
        (show_validation (Error es)));
  List.iter (plan_agrees g)
    ([
       Ccs.Baseline.single_appearance g a;
       Ccs.Baseline.minimal_memory g a;
       Ccs.Baseline.round_robin g a;
       Ccs.Partitioned.batch g a spec ~t:(R.granularity g a ~at_least:64);
     ]
    @ (auto :: scaled 1)
    @ scaled 3
    @
    if G.is_homogeneous g then
      [ Ccs.Partitioned.homogeneous g a spec ~m_tokens:64 ]
    else []);
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

(* The same graph with non-unit rates: each module gets a random
   repetition k(v) in 1..3 and each channel (u, v) pushes k(v) and pops
   k(u), which keeps it rate-matched.  Successors that become ready
   together then differ in period tokens, which is what orders the
   token-weighted depth-first order. *)
let with_rates seed g =
  let rng = Random.State.make [| seed |] in
  let k = Array.init (G.num_nodes g) (fun _ -> 1 + Random.State.int rng 3) in
  let b = G.Builder.create ~name:(G.name g ^ "-multirate") () in
  List.iter
    (fun v ->
      ignore (G.Builder.add_module b ~state:(G.state g v) (G.node_name g v)))
    (G.nodes g);
  List.iter
    (fun e ->
      let u = G.src g e and v = G.dst g e in
      ignore
        (G.Builder.add_channel b ~src:u ~dst:v ~push:k.(v) ~pop:k.(u) ()))
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

(* Graphs small enough for the exact search (at most 16 modules): layered
   DAGs with unit and with random rates, random_sdf_dag with rates up to
   4, short pipelines, and the same with random channel delays.  Layers are at most 7 wide:
   the search visits every pair of nested order ideals that fit the
   bound, about 3^14 of them for one layer of 14, which takes the two
   searches tens of seconds. *)
let gen_small_dag =
  let layered =
    QCheck2.Gen.(
      map
        (fun (seed, (layers, width), p) ->
          Ccs.Generators.layered
            ~name:(Printf.sprintf "layered-s%d" seed)
            ~seed ~layers ~width
            ~state:(fun k -> 1 + (((k * 37) + seed) mod 40))
            ~edge_prob:p ())
        (triple (int_range 0 10_000)
           (int_range 1 4 >>= fun layers ->
            map
              (fun width -> (layers, width))
              (int_range 1 (min 7 (14 / layers))))
           (float_range 0.1 0.7)))
  and sdf =
    QCheck2.Gen.(
      map
        (fun (seed, n, (max_rate, extra_edges)) ->
          Ccs.Generators.random_sdf_dag
            ~name:(Printf.sprintf "sdf-dag-s%d" seed)
            ~seed ~n ~max_state:40 ~max_rate ~extra_edges ())
        (triple (int_range 0 10_000) (int_range 3 16)
           (pair (int_range 1 4) (int_range 0 10))))
  in
  QCheck2.Gen.(
    oneof
      [
        layered;
        map2 with_rates (int_range 0 10_000) layered;
        sdf;
        gen_pipeline;
        map2 with_delays (int_range 0 10_000) (oneof [ layered; sdf ]);
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
          prop "certify random schedules == oracle" ~count:200 gen_any
            schedules_agree;
          prop "certify planner plans == oracle" ~count:60 gen_any
            planners_agree;
          prop "integer partitioners == rational oracle" ~count:300
            gen_small_dag partition_agrees;
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
          Alcotest.test_case "certify random schedules == oracle" `Quick
            (on_suite schedules_agree);
          Alcotest.test_case "certify planner plans == oracle" `Quick
            (on_suite planners_agree);
          Alcotest.test_case "Auto.partition == rational oracle" `Quick
            (fun () ->
              List.iter
                (fun (entry : Ccs_apps.Suite.entry) ->
                  let g = entry.graph () in
                  Alcotest.(check bool) (G.name g) true (auto_agrees g))
                Ccs_apps.Suite.all);
        ] );
    ]
