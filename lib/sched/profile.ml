module Graph = Ccs_sdf.Graph
module Rates = Ccs_sdf.Rates
module Spec = Ccs_partition.Spec
module Machine = Ccs_exec.Machine
module Cache = Ccs_cache.Cache
module Counters = Ccs_obs.Counters
module Tracer = Ccs_obs.Tracer
module Trace_export = Ccs_obs.Trace_export

type t = {
  result : Runner.result;
  machine : Machine.t;
  counters : Counters.t;
  tracer : Tracer.t option;
}

let run ?(events = false) ?event_limit ~graph ~cache ~plan ~outputs () =
  let n = Graph.num_nodes graph and m = Graph.num_edges graph in
  let counters = Counters.create ~entities:(n + m) in
  let tracer =
    if events then Some (Tracer.create ?limit:event_limit ()) else None
  in
  Result.map
    (fun (result, machine) -> { result; machine; counters; tracer })
    (Runner.run ~counters ?tracer ~graph ~cache ~plan ~outputs ())

let per_entity t =
  Trace_export.entity_summary t.counters ~label:(Machine.entity_label t.machine)

let attributed_misses t = Counters.total_misses t.counters
let attributed_accesses t = Counters.total_accesses t.counters

(* --- predicted vs measured per-component decomposition ------------------- *)

type row = {
  label : string;
  measured : int;
  predicted : int;
}

type table = {
  components : row list;
  cross : row list;
  measured_total : int;
  predicted_total : int;
  batches : int;
}

(* The Lemma 4/8 decomposition of a batch schedule's miss traffic:

   - a component [c] reloads its working set — module states plus internal
     channel buffers — once per batch in which it runs, costing
     [ceil(words/B)] misses per region per batch (the intra-component term
     Lemma 4 charges as the O(n/B · T·s(P)/M) "reload" traffic, here with
     each component's set reloaded cold once per batch);
   - a cross edge carries [tokens_per_batch] words per batch, written by
     the producing component and read (no longer cached) by the consuming
     one: 2·ceil(tokens/B) misses per batch — the O(T/B · bandwidth(P))
     term of Lemmas 4 and 8.

   The reload term binds only when the components actually evict each
   other: when the whole working set fits in the cache together, every
   region is loaded cold exactly once and stays resident, so in that
   regime the model charges one load instead of one per batch.

   Measured numbers come from the attribution counters: a component's
   misses are its members' state-entity misses plus its internal buffer
   entities' misses; a cross edge's are its buffer entity's misses. *)
let component_table t spec ~t:batch_t =
  let g = Machine.graph t.machine in
  let a = Rates.analyze_exn g in
  let n = Graph.num_nodes g in
  let cache = Machine.cache t.machine in
  let b = Cache.block_words cache in
  let blocks w = if w <= 0 then 0 else (w + b - 1) / b in
  let batches =
    if batch_t <= 0 then invalid_arg "Profile.component_table: t must be > 0";
    t.result.Runner.inputs / batch_t
  in
  let resident =
    (* The machine lays every region out contiguously from address 0, so
       the whole simulated footprint spans exactly this many blocks. *)
    blocks (Machine.address_space_words t.machine) <= Cache.num_blocks cache
  in
  let per_batch x = if resident then x else batches * x in
  let ncomp = Spec.num_components spec in
  let comp_measured = Array.make ncomp 0 in
  let comp_predicted_per_batch = Array.make ncomp 0 in
  for c = 0 to ncomp - 1 do
    List.iter
      (fun v ->
        comp_measured.(c) <-
          comp_measured.(c) + Counters.misses t.counters v;
        comp_predicted_per_batch.(c) <-
          comp_predicted_per_batch.(c) + blocks (Graph.state g v))
      (Spec.members spec c)
  done;
  List.iter
    (fun e ->
      let c = Spec.component_of spec (Graph.src g e) in
      comp_measured.(c) <-
        comp_measured.(c) + Counters.misses t.counters (n + e);
      comp_predicted_per_batch.(c) <-
        comp_predicted_per_batch.(c)
        + blocks (Machine.capacity t.machine e))
    (Spec.internal_edges spec);
  let components =
    List.init ncomp (fun c ->
        {
          label = Printf.sprintf "component %d" c;
          measured = comp_measured.(c);
          predicted = per_batch comp_predicted_per_batch.(c);
        })
  in
  let cross =
    List.map
      (fun e ->
        {
          label = Graph.edge_name g e;
          measured = Counters.misses t.counters (n + e);
          predicted =
            (if resident then blocks (Machine.capacity t.machine e)
             else 2 * batches * blocks (Rates.tokens_per_batch a ~t:batch_t e));
        })
      (Spec.cross_edges spec)
  in
  let sum f rows = List.fold_left (fun acc r -> acc + f r) 0 rows in
  {
    components;
    cross;
    measured_total = sum (fun r -> r.measured) components + sum (fun r -> r.measured) cross;
    predicted_total =
      sum (fun r -> r.predicted) components + sum (fun r -> r.predicted) cross;
    batches;
  }

let pp_table fmt table =
  let line { label; measured; predicted } =
    let ratio =
      if predicted = 0 then Float.nan
      else float_of_int measured /. float_of_int predicted
    in
    Format.fprintf fmt "  %-24s measured=%-10d predicted=%-10d ratio=%.3f@,"
      label measured predicted ratio
  in
  Format.fprintf fmt "@[<v>per-component misses (%d batches):@," table.batches;
  List.iter line table.components;
  if table.cross <> [] then begin
    Format.fprintf fmt "cross edges:@,";
    List.iter line table.cross
  end;
  Format.fprintf fmt "total: measured=%d predicted=%d@]" table.measured_total
    table.predicted_total

(* --- trace export -------------------------------------------------------- *)

let chrome ?process_name t =
  match t.tracer with
  | None -> invalid_arg "Profile.chrome: profile ran without events"
  | Some tr ->
      let m = t.machine in
      let entities = Machine.num_entities m in
      let thread_names =
        List.init entities (fun i -> (i, Machine.entity_label m i))
      in
      let summary =
        [
          ("total_misses", t.result.Runner.misses);
          ("attributed_misses", attributed_misses t);
          ("total_accesses", t.result.Runner.accesses);
          ("attributed_accesses", attributed_accesses t);
          ("inputs", t.result.Runner.inputs);
          ("outputs", t.result.Runner.outputs);
        ]
      in
      Trace_export.chrome ?process_name ~thread_names ~summary
        ~label:(Machine.entity_label m)
        ~tid:(fun i -> i)
        tr
