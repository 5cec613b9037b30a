module Graph = Ccs_sdf.Graph
module Rates = Ccs_sdf.Rates
module Minbuf = Ccs_sdf.Minbuf
module Spec = Ccs_partition.Spec
module Pipeline = Ccs_partition.Pipeline
module Dag = Ccs_partition.Dag
module Sched = Ccs_sched

type choice = {
  analysis : Rates.analysis;
  partition : Spec.t;
  batch : int;
  plan : Sched.Plan.t;
}

(* Bump whenever any planning decision below (partitioner choice, bounds,
   batch granularity, capacity sizing) changes observable output: cached
   plan artifacts are keyed on this, so stale plans from an older
   pipeline miss instead of being served. *)
let planner_version = 1

(* The paper's upper bounds run a cM-bounded partition on an O(cM) cache
   (constant-factor augmentation).  Auto targets the machine the user
   actually configured, so components get at most half the real cache —
   the other half absorbs internal buffers and one streaming block per
   cross edge — except when a single module is bigger than that, in which
   case we must allow it (the paper's s(v) <= M assumption in the tightest
   form the machine permits). *)
let fitting_bound g cfg =
  let max_state =
    List.fold_left (fun acc v -> max acc (Graph.state g v)) 1 (Graph.nodes g)
  in
  max (cfg.Config.cache_words / 2) max_state

(* Lemma 8 needs degree-limited components: one resident cache block per
   cross edge must fit next to the component's state (at most half the
   cache), so cap the degree at a quarter of the cache in blocks. *)
let degree_cap cfg =
  max 2 (cfg.Config.cache_words / (4 * cfg.Config.block_words))

let partition g analysis cfg =
  let bound = fitting_bound g cfg in
  (* Cache footprint of running the whole graph resident: module states
     rounded up to whole blocks (they are block-aligned), one block of
     slack for boundary sharing, and the packed minimum buffers, sized
     only when the rest fits (every buffer holds at least one token). *)
  let bw = cfg.Config.block_words and cache = cfg.Config.cache_words in
  let rest =
    List.fold_left
      (fun acc v -> acc + ((Graph.state g v + bw - 1) / bw * bw))
      bw (Graph.nodes g)
  in
  if
    rest <= cache
    && rest + Array.fold_left ( + ) 0 (Minbuf.compute g analysis).capacity
       <= cache
  then
    (* Everything — state and minimum buffers — fits at once: the whole
       graph is a single component and no tokens ever cross a partition
       boundary. *)
    Spec.whole g
  else if Graph.is_pipeline g then Pipeline.optimal_dp g analysis ~bound
  else begin
    let max_degree = degree_cap cfg in
    let heuristic () = Dag.best g analysis ~bound ~max_degree () in
    if Graph.num_nodes g <= 16 then
      match Dag.exact g analysis ~bound ~max_nodes:16 () with
      | Some spec when Spec.is_degree_limited spec ~bound:max_degree -> spec
      | Some spec ->
          (* Exact minimizes bandwidth but ignores degree; prefer it only
             if the heuristic cannot do better under the cap. *)
          let h = heuristic () in
          if
            Spec.period_bandwidth h analysis
            <= Spec.period_bandwidth spec analysis
          then h
          else spec
      | None -> heuristic ()
    else heuristic ()
  end

let plan ?(dynamic = true) g cfg =
  let analysis = Rates.analyze_exn g in
  let spec = partition g analysis cfg in
  let m = cfg.Config.cache_words in
  let t = Rates.granularity g analysis ~at_least:m in
  let plan =
    if Graph.is_pipeline g && dynamic then
      Sched.Partitioned.pipeline_dynamic g analysis spec ~m_tokens:m
    else Sched.Partitioned.batch g analysis spec ~t
  in
  { analysis; partition = spec; batch = t; plan }

(* Bridge to the adaptation layer: {!Ccs_sched.Adapt} sits below this
   library, so it takes planning as a callback.  The callback re-runs the
   full pipeline for whatever cache configuration the controller asks
   for and pairs the plan with its Lemma-4/8 predicted bound — the
   yardstick the degradation detector compares measured misses against. *)
let adapt_planner ?dynamic g (cache : Ccs_cache.Cache.config) =
  let cfg =
    {
      Config.cache_words = cache.Ccs_cache.Cache.size_words;
      block_words = cache.Ccs_cache.Cache.block_words;
      policy = cache.Ccs_cache.Cache.policy;
    }
  in
  let choice = plan ?dynamic g cfg in
  let predicted_mpi =
    Sched.Analysis.partition_cost_prediction choice.partition choice.analysis
      ~b:cfg.Config.block_words ~t:choice.batch
  in
  { Sched.Adapt.plan = choice.plan; predicted_mpi }
