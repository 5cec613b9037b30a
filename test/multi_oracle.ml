(* The multiprocessor placement simulator as it was before it ran on
   [Machine], kept as the oracle of the differential tests: its own
   shared layout, one private cache per processor touched block by block,
   and a uniprocessor shadow cache touched beside them, with work summed
   per firing.  It replays the period without checking the firing rule,
   so it is only meaningful on plans that certify. *)

module Graph = Ccs.Graph
module Spec = Ccs.Spec
module Cache = Ccs.Cache
module Layout = Ccs.Layout
module Counters = Ccs.Counters
module Tracer = Ccs.Tracer
module M = Ccs.Multi_machine

type chan = { region : Layout.region; mutable head : int; mutable tail : int }

let run_plan ?counters ?tracer g spec assign ~plan ~batches (cfg : M.config) =
  let period =
    match plan.Ccs.Plan.period with
    | Some p -> p
    | None -> invalid_arg "Multi_oracle.run_plan: aperiodic plan"
  in
  let capacities = plan.Ccs.Plan.capacities in
  let n = Graph.num_nodes g in
  let m = Graph.num_edges g in
  let block = cfg.M.cache.Cache.block_words in
  let layout = Layout.create ~align:block () in
  let states =
    Array.init n (fun v -> Layout.alloc layout ~len:(Graph.state g v))
  in
  let chans =
    Array.init m (fun e ->
        {
          region = Layout.alloc ~align:1 layout ~len:capacities.(e);
          head = 0;
          tail = Graph.delay g e;
        })
  in
  let caches =
    Array.init cfg.M.processors (fun _ -> Cache.create cfg.M.cache)
  in
  let uni_cache = Cache.create cfg.M.cache in
  let work = Array.make cfg.M.processors 0. in
  let uni_work = ref 0. in
  let inputs = ref 0 in
  let proc_of_node v =
    assign.Ccs.Assign.processor_of_component.(Spec.component_of spec v)
  in
  let touch_observed cache owner blk =
    match tracer with
    | None ->
        let hit = Cache.touch_block cache blk in
        Option.iter (fun c -> Counters.record c owner ~hit) counters
    | Some tr ->
        let hit, victim = Cache.touch_block_traced cache blk in
        Option.iter (fun c -> Counters.record c owner ~hit) counters;
        Tracer.advance tr 1;
        if not hit then begin
          Tracer.load tr ~owner ~block:blk;
          if victim >= 0 then Tracer.evict tr ~owner ~block:victim
        end
  in
  let touch_span ?owner cache addr len =
    if len > 0 then begin
      let first = addr / block and last = (addr + len - 1) / block in
      match owner with
      | None ->
          for blk = first to last do
            ignore (Cache.touch_block cache blk)
          done
      | Some o ->
          for blk = first to last do
            touch_observed cache o blk
          done
    end
  in
  let touch_ring ?owner cache (region : Layout.region) pos k =
    if k > 0 then begin
      let len = region.Layout.length in
      let start = pos mod len in
      if start + k <= len then
        touch_span ?owner cache (region.Layout.base + start) k
      else begin
        touch_span ?owner cache (region.Layout.base + start) (len - start);
        touch_span ?owner cache region.Layout.base (k - (len - start))
      end
    end
  in
  let source = Graph.source g in
  let fire v =
    let p = proc_of_node v in
    let cache = caches.(p) in
    let fire_ev =
      match tracer with Some tr -> Tracer.begin_fire tr ~node:v | None -> -1
    in
    let words = ref 0 in
    let st = states.(v) in
    touch_span ~owner:v cache st.Layout.base st.Layout.length;
    touch_span uni_cache st.Layout.base st.Layout.length;
    words := !words + st.Layout.length;
    List.iter
      (fun e ->
        let c = chans.(e) in
        let k = Graph.pop g e in
        touch_ring ~owner:(n + e) cache c.region c.head k;
        touch_ring uni_cache c.region c.head k;
        c.head <- c.head + k;
        words := !words + k)
      (Graph.in_edges g v);
    List.iter
      (fun e ->
        let c = chans.(e) in
        let k = Graph.push g e in
        touch_ring ~owner:(n + e) cache c.region c.tail k;
        touch_ring uni_cache c.region c.tail k;
        c.tail <- c.tail + k;
        words := !words + k)
      (Graph.out_edges g v);
    work.(p) <- work.(p) +. float_of_int !words;
    uni_work := !uni_work +. float_of_int !words;
    (match tracer with Some tr -> Tracer.end_fire tr fire_ev | None -> ());
    if v = source then incr inputs
  in
  for _ = 1 to batches do
    Ccs.Schedule.iter period ~f:fire
  done;
  let per_processor_misses = Array.map Cache.misses caches in
  let per_input x = x /. float_of_int (max 1 !inputs) in
  let per_processor_time =
    Array.mapi
      (fun p w ->
        per_input
          (w +. (cfg.M.miss_penalty *. float_of_int per_processor_misses.(p))))
      work
  in
  let makespan = Array.fold_left Float.max 0. per_processor_time in
  let uniprocessor_time =
    per_input
      (!uni_work
      +. (cfg.M.miss_penalty *. float_of_int (Cache.misses uni_cache)))
  in
  {
    M.per_processor_misses;
    per_processor_work = Array.map per_input work;
    per_processor_time;
    makespan;
    uniprocessor_time;
    speedup = (if makespan = 0. then 1. else uniprocessor_time /. makespan);
    total_misses = Array.fold_left ( + ) 0 per_processor_misses;
    inputs = !inputs;
  }
