(* plan-scale: [Auto.plan] over three families of graphs.  Non-pipeline
   DAGs spend their time in candidate orders, [order_dp] and refine;
   long unit-rate chains in [Pipeline.optimal_dp]; multirate chains in
   [Minbuf.compute].  Execution and serving do none of this work. *)

open Perfbench

let block_words = 16

(* A graph and the cache it is planned for. *)
type entry = { g : Ccs.Graph.t; cfg : Ccs.Config.t }

let at cache_words g = { g; cfg = Ccs.Config.make ~cache_words ~block_words () }

(* DAGs stay at or below 11x11: refine's cost grows steeply with size.
   Unit-rate chains get a 64K-word cache, so that each component spans
   hundreds of stages and the segmentation DP has real work to do.

   The seed draws the unit-rate chains' state order and the order graphs
   are planned in.  The DAGs and the multirate chains come from a fixed
   seed: their planning time swings by 10-15% from one draw to the next
   (refine's pass count and the multirate partition follow the
   structure), more than the run-to-run spread the benchmark can
   afford. *)
let generate seed =
  let rng = Random.State.make [| seed; 0x91a |] in
  let fixed = Random.State.make [| 0x91a |] in
  let layered k = Gen.layered fixed ~name:(Printf.sprintf "layered%d" k) ~layers:k ~width:k ~fan:3 in
  let random n = Gen.random_dag fixed ~name:(Printf.sprintf "random%d" n) ~n ~fan:2 ~window:12 in
  let dags =
    List.map (at 1024)
      [ layered 8; layered 9; layered 10; layered 11; random 80; random 100; random 120; random 140 ]
  in
  let chains =
    [
      at 65536 (Gen.uniform_chain rng ~name:"uniform2000" ~n:2000);
      at 65536 (Gen.uniform_chain rng ~name:"uniform3000" ~n:3000);
      at 1024 (Gen.multirate_chain fixed ~name:"multirate60" ~n:60 ~depth:10);
      at 1024 (Gen.multirate_chain fixed ~name:"multirate80" ~n:80 ~depth:12);
    ]
  in
  (Array.of_list dags, Array.of_list chains)

let predicted (c : Ccs.Auto.choice) =
  Ccs.Analysis.partition_cost_prediction c.partition c.analysis ~b:block_words
    ~t:c.batch

(* Plan every graph of [family] once per round, in a fresh seeded order,
   until [budget] runs out.  Returns each graph's timings of [plan] and
   the number of rounds. *)
let sample_family ~rng ~budget ~out family plan =
  let samples = Array.map (fun _ -> []) family in
  let order = Array.init (Array.length family) Fun.id in
  let n =
    Out.rounds ~budget (fun _ ->
        Gen.shuffle rng order;
        Array.iter
          (fun i ->
            match Out.time (fun () -> plan family.(i)) with
            | _, dt ->
                Refspeed.sample ();
                samples.(i) <- dt :: samples.(i)
            | exception e ->
                Out.check out false
                  (Printf.sprintf "plan %s raised %s" (Ccs.Graph.name family.(i).g)
                     (Printexc.to_string e)))
          order)
  in
  (samples, n)

(* A family's time: the sum of its graphs' median times. *)
let family_time family samples =
  let medians = Array.map (fun s -> if s = [] then 0. else Stats.median s) samples in
  Out.note "  per-graph medians (ms, unscaled): %s"
    (String.concat " "
       (Array.to_list
          (Array.mapi (fun i m -> Printf.sprintf "%s=%.1f" (Ccs.Graph.name family.(i).g) (m *. 1e3)) medians)));
  Array.fold_left ( +. ) 0. medians

let auto_plan e = ignore (Ccs.Auto.plan e.g e.cfg)

(* [Auto.plan] re-run stage by stage with the planner's own arguments,
   each stage a span.  Every family graph has more than 16 modules, so
   the exact-search branch of [Auto.partition] never applies. *)
type stage_counts = {
  mutable order_dp_calls : int;
  mutable refined : int;
  mutable refine_lowered : int;
  mutable components : int;
  mutable bandwidth : float;
}

let staged tr counts { g; cfg } =
  let span stage f = Spans.with_span tr stage f in
  span "core.plan" (fun () ->
      let a = span "sdf.rates" (fun () -> Ccs.Rates.analyze_exn g) in
      let bound = Ccs.Auto.fitting_bound g cfg in
      let mb = span "sdf.minbuf" (fun () -> Ccs.Minbuf.compute g a) in
      let whole_footprint =
        List.fold_left
          (fun acc v -> acc + ((Ccs.Graph.state g v + block_words - 1) / block_words * block_words))
          0 (Ccs.Graph.nodes g)
        + Array.fold_left ( + ) 0 mb.Ccs.Minbuf.capacity
        + block_words
      in
      let spec =
        if whole_footprint <= cfg.Ccs.Config.cache_words then Ccs.Spec.whole g
        else if Ccs.Graph.is_pipeline g then
          span "partition.pipeline_dp" (fun () -> Ccs.Pipeline_partition.optimal_dp g a ~bound)
        else begin
          let max_degree = max 2 (cfg.Ccs.Config.cache_words / (4 * block_words)) in
          let orders =
            span "partition.candidate_orders" (fun () -> Ccs.Dag_partition.candidate_orders g a)
          in
          let candidates =
            List.filter_map
              (fun order ->
                counts.order_dp_calls <- counts.order_dp_calls + 1;
                span "partition.order_dp" (fun () ->
                    match Ccs.Dag_partition.order_dp g a ~order ~bound ~max_degree () with
                    | sp -> Some sp
                    | exception Invalid_argument _ -> (
                        match Ccs.Dag_partition.interval g ~order ~bound with
                        | sp -> Some sp
                        | exception Invalid_argument _ -> None)))
              orders
          in
          let bw sp = Ccs.Spec.bandwidth sp a in
          let best =
            match candidates with
            | [] -> invalid_arg "no feasible partition"
            | first :: rest ->
                List.fold_left
                  (fun acc sp -> if Ccs.Rational.compare (bw sp) (bw acc) < 0 then sp else acc)
                  first rest
          in
          let refined =
            span "partition.refine" (fun () -> Ccs.Dag_partition.refine g a ~bound ~max_degree best)
          in
          counts.refined <- counts.refined + 1;
          if Ccs.Rational.compare (bw refined) (bw best) < 0 then
            counts.refine_lowered <- counts.refine_lowered + 1;
          refined
        end
      in
      let t =
        span "sched.batch" (fun () ->
            let m = cfg.Ccs.Config.cache_words in
            let t = Ccs.Rates.granularity g a ~at_least:m in
            ignore
              (if Ccs.Graph.is_pipeline g then
                 Ccs.Partitioned.pipeline_dynamic g a spec ~m_tokens:m
               else Ccs.Partitioned.batch g a spec ~t);
            t)
      in
      ignore
        (span "sched.predict" (fun () ->
             Ccs.Analysis.partition_cost_prediction spec a ~b:block_words ~t));
      counts.components <- counts.components + Ccs.Spec.num_components spec;
      counts.bandwidth <- counts.bandwidth +. Ccs.Rational.to_float (Ccs.Spec.bandwidth spec a);
      (a, spec))

(* The timed rounds run in [children] processes of their own, one after
   another, each for a share of the window: chain planning time depends
   on where a process's memory lands (a run with address randomization
   off repeats its chain time within 3%, while fresh processes differ by
   up to 40%), so pooling a few processes' samples keeps one unlucky
   layout from deciding a run; what is left follows the host's speed,
   which the reference kernels correct. *)
let children = 5

(* A timing child: print every sample as "sample FAMILY INDEX S..." and
   the host-speed samples as "sample ref KERNEL S...". *)
let child ~seed ~seconds ~index =
  let out = Out.create ~e2e:false in
  let dags, chains = generate seed in
  let rng = Random.State.make [| seed; index; 0x7153 |] in
  let print family samples =
    Array.iteri
      (fun i s ->
        print_endline
          (String.concat " " ("sample" :: family :: string_of_int i :: List.map (Printf.sprintf "%.17g") s)))
      samples
  in
  (* Untimed warm-up: this process's first plan of a graph is cold. *)
  Array.iter auto_plan dags;
  Array.iter auto_plan chains;
  print "dag" (fst (sample_family ~rng ~budget:(0.55 *. seconds) ~out dags auto_plan));
  print "chain" (fst (sample_family ~rng ~budget:(0.45 *. seconds) ~out chains auto_plan));
  print "ref" (Refspeed.all_samples ());
  if out.failed > 0 then exit 1

let run_children ~seed ~seconds ~out ~dags ~chains =
  let dag = Array.map (fun _ -> []) dags and chain = Array.map (fun _ -> []) chains in
  for index = 1 to children do
    let args =
      [| Sys.executable_name; "--workload"; "plan-scale"; "--seed"; string_of_int seed;
         "--seconds"; Printf.sprintf "%.17g" (seconds /. float_of_int children);
         "--trace"; "0"; "--child"; string_of_int index |]
    in
    let ic = Unix.open_process_args_in Sys.executable_name args in
    let rec read () =
      match input_line ic with
      | exception End_of_file -> ()
      | line ->
          (match String.split_on_char ' ' line with
          | "sample" :: family :: i :: xs -> (
              let i = int_of_string i and xs = List.map float_of_string xs in
              match family with
              | "dag" -> dag.(i) <- xs @ dag.(i)
              | "chain" -> chain.(i) <- xs @ chain.(i)
              | _ -> Refspeed.add i xs)
          | _ -> ());
          read ()
    in
    read ();
    Out.check out
      (Unix.close_process_in ic = Unix.WEXITED 0)
      (Printf.sprintf "plan-scale timing process %d failed" index)
  done;
  (dag, chain)

let run ~seed ~seconds ~trace ~out ~tracer =
  let dags, chains = Out.setup out ~reps:15 (fun () -> generate seed) in
  let all = Array.append dags chains in
  let sizes family =
    String.concat " "
      (Array.to_list
         (Array.map
            (fun e -> Printf.sprintf "%d@%d" (Ccs.Graph.num_nodes e.g) e.cfg.Ccs.Config.cache_words)
            family))
  in
  Out.note "plan-scale: DAGs %s; chains %s (modules@cache words)" (sizes dags) (sizes chains);
  (* Warm-up pass, which also verifies every plan and sums plan quality. *)
  let mpi = ref 0. in
  Array.iter
    (fun { g; cfg } ->
      let cache = Ccs.Config.cache_config cfg in
      let c = Ccs.Auto.plan g cfg in
      let report = Ccs.Check.plan ~cache ~spec:c.partition g c.plan in
      Out.check out (Ccs.Check.is_ok report)
        (Format.asprintf "Check.plan %s: %a" (Ccs.Graph.name g) Ccs.Check.pp report);
      Out.check out
        (Result.is_ok (Ccs.Plan.validate ~cache ~spec:c.partition g c.plan))
        (Printf.sprintf "Plan.validate %s" (Ccs.Graph.name g));
      mpi := !mpi +. predicted c)
    all;
  if not trace then begin
    let dag, chain = run_children ~seed ~seconds ~out ~dags ~chains in
    Out.note "plan-scale: %d samples per DAG, %d per chain, from %d processes"
      (List.length dag.(0)) (List.length chain.(0)) children;
    (* An operation is one plan; each family's time per plan is the mean
       of its graphs' median times. *)
    let dag_s = family_time dags dag and chain_s = family_time chains chain in
    Out.note "plan-scale: plan_dag_s %.6g, plan_chain_s %.6g (unscaled)" dag_s chain_s;
    Out.metric ~scale:Time out "latency_us" "us"
      (Stats.geomean
         [ dag_s /. float_of_int (Array.length dags); chain_s /. float_of_int (Array.length chains) ]
      *. 1e6);
    Out.metric out "misses_per_input" "misses/input" !mpi
  end
  else begin
    let tr = Option.get tracer in
    let rng = Random.State.make [| seed; 0x7153 |] in
    (* Words allocated per plan, from one pass outside any timing. *)
    let alloc =
      Array.fold_left (fun acc e -> acc +. snd (Out.words_allocated_by (fun () -> auto_plan e))) 0. all
      /. float_of_int (Array.length all)
    in
    let counts = { order_dp_calls = 0; refined = 0; refine_lowered = 0; components = 0; bandwidth = 0. } in
    (* Each graph is planned twice per pass, by [Auto.plan] and stage by
       stage under spans, back to back, so the two see the same host.  A
       pass records at most 16 spans per graph. *)
    let stop () = Spans.room tr < 16 * Array.length all in
    let plain = Array.map (fun _ -> []) all and spanned = Array.map (fun _ -> []) all in
    let results = Hashtbl.create 16 in
    let order = Array.init (Array.length all) Fun.id in
    let passes =
      Out.rounds ~stop ~budget:seconds (fun _ ->
          Gen.shuffle rng order;
          Array.iter
            (fun i ->
              let e = all.(i) in
              let (), d0 = Out.time (fun () -> auto_plan e) in
              let r, d1 = Out.time (fun () -> staged tr counts e) in
              Refspeed.sample ();
              Hashtbl.replace results (Ccs.Graph.name e.g) (e, r);
              plain.(i) <- d0 :: plain.(i);
              spanned.(i) <- d1 :: spanned.(i))
            order)
    in
    let untraced = family_time all plain and traced = family_time all spanned in
    (* Checked outside the timed passes. *)
    Hashtbl.iter
      (fun name (e, (a, spec)) ->
        Out.check out
          (Ccs.Spec.equal spec (Ccs.Auto.partition e.g a e.cfg))
          (Printf.sprintf "staged planner differs from Auto.partition on %s" name))
      results;
    Out.note "plan-scale: stage times are per pass over %d graphs, %d passes; refine lowered bandwidth on %d of %d DAGs refined; traced pass %.4f s, untraced %.4f s"
      (Array.length all) passes counts.refine_lowered counts.refined traced untraced;
    let passes = float_of_int passes in
    let self = Spans.self_times (Spans.to_list tr) in
    let stage_ms name =
      match List.assoc_opt name self with
      | Some (us, _) -> float_of_int us /. 1e3 /. passes
      | None -> 0.
    in
    List.iter
      (fun (metric, stage) -> Out.metric ~scale:Time out metric "ms" (stage_ms stage))
      [
        ("sdf.rates_ms", "sdf.rates");
        ("sdf.minbuf_ms", "sdf.minbuf");
        ("partition.candidate_orders_ms", "partition.candidate_orders");
        ("partition.order_dp_ms", "partition.order_dp");
        ("partition.refine_ms", "partition.refine");
        ("partition.pipeline_dp_ms", "partition.pipeline_dp");
        ("sched.batch_ms", "sched.batch");
        ("sched.predict_ms", "sched.predict");
      ];
    Out.metric out "partition.order_dp_calls" "count" (float_of_int counts.order_dp_calls /. passes);
    Out.metric out "partition.refine_useful_share" "ratio"
      (float_of_int counts.refine_lowered /. float_of_int (max 1 counts.refined));
    Out.metric out "partition.components" "count" (float_of_int counts.components /. passes);
    Out.metric out "partition.bandwidth" "tokens/input" (counts.bandwidth /. passes);
    Out.metric out "core.plan_alloc_words" "words" alloc;
    Out.metric out "obs.trace_overhead_share" "ratio" (traced /. untraced)
  end
