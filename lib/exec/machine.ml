module Graph = Ccs_sdf.Graph
module Cache = Ccs_cache.Cache
module Layout = Ccs_cache.Layout
module Counters = Ccs_obs.Counters
module Tracer = Ccs_obs.Tracer
module Metrics = Ccs_obs.Metrics

exception Not_fireable of { node : Graph.node; reason : string }
exception Budget_exceeded of { budget : int }

type chan = {
  region : Layout.region;
  capacity : int;
  mutable head : int; (* absolute index of next token to read *)
  mutable tail : int; (* absolute index of next slot to write *)
  mutable consumed_total : int;
  mutable produced_total : int;
}

(* Handles into an attached metrics registry.  The fires counter is pushed
   incrementally (one branch + one array store per firing); the cache-level
   series are gauges synced from the cache's own statistics at pull points
   ([sync_metrics]) so the block-touch hot path carries no metrics code at
   all and replacement decisions cannot be perturbed. *)
type mstats = {
  m_registry : Metrics.t;
  m_fires : Metrics.counter;
  m_accesses : Metrics.gauge;
  m_hits : Metrics.gauge;
  m_misses : Metrics.gauge;
  m_evictions : Metrics.gauge;
  m_flushes : Metrics.gauge;
}

type t = {
  graph : Graph.t;
  (* One address space, one cache per processor: module [v]'s firings
     touch [caches.(cache_of.(v))].  A uniprocessor machine has one cache
     and [cache_of] all zeros. *)
  caches : Cache.t array;
  cache_of : int array;
  states : Layout.region array;
  chans : chan array;
  (* Firing-loop specialization: per-node edge ids and per-edge rates as
     flat int arrays, so [fire] walks no lists and allocates nothing. *)
  in_edges : int array array;
  out_edges : int array array;
  pop_rate : int array;
  push_rate : int array;
  fire_count : int array;
  mutable total_fires : int;
  source : Graph.node option;
  sink : Graph.node option;
  space_words : int;
  recorder : Intvec.t option;
  (* Observability: per-entity miss attribution and event tracing.  Both
     are [None] by default and the hot path tests for that once per span,
     so a machine without observers runs the exact seed code path. *)
  counters : Counters.t option;
  tracer : Tracer.t option;
  mstats : mstats option;
  observed : bool; (* [counters <> None || tracer <> None], precomputed *)
  num_nodes : int; (* entity id of buffer e is [num_nodes + e] *)
  mutable fire_hook : (Graph.node -> unit) option;
  mutable fire_budget : int option;
}

(* The simulated address space a (graph, cache, capacities) triple induces:
   module state regions in node order (block-aligned by default, so a
   module's state never false-shares with a neighbour), then channel ring
   buffers in edge order, packed (align 1) — the paper's buffer-versus-state
   amortization argument counts buffer words, and padding every tiny
   internal buffer to a whole block would inflate a component's working set
   by a factor of B.  [create] builds its machine on exactly this layout,
   and the compiled backend (Ccs_codegen) lowers plans through it too, so a
   compiled schedule's word-access trace replays against the interpreted
   machine address-for-address. *)
type layout = {
  l_states : Layout.region array;
  l_buffers : Layout.region array;
  l_total_words : int;
}

let plan_layout ?(align_to_block = true) ~graph ~cache ~capacities () =
  let m = Graph.num_edges graph in
  if Array.length capacities <> m then
    invalid_arg "Machine.plan_layout: capacities length mismatch";
  let align = if align_to_block then cache.Cache.block_words else 1 in
  let layout = Layout.create ~align () in
  let states =
    Array.init (Graph.num_nodes graph) (fun v ->
        Layout.alloc layout ~len:(Graph.state graph v))
  in
  let buffers =
    Array.init m (fun e ->
        let cap = capacities.(e) in
        let need = max (Graph.push graph e) (Graph.pop graph e) in
        if cap < need then
          invalid_arg
            (Printf.sprintf
               "Machine.create: channel %d capacity %d < max rate %d" e cap
               need);
        Layout.alloc ~align:1 layout ~len:cap)
  in
  { l_states = states; l_buffers = buffers; l_total_words = Layout.size layout }

let make_mstats registry labels =
  let counter name help = Metrics.counter registry ~help ~labels name in
  let gauge name help = Metrics.gauge registry ~help ~labels name in
  {
    m_registry = registry;
    m_fires = counter "ccs_machine_fires_total" "Module firings executed";
    m_accesses = gauge "ccs_cache_accesses" "Simulated cache accesses";
    m_hits = gauge "ccs_cache_hits" "Simulated cache hits";
    m_misses = gauge "ccs_cache_misses" "Simulated cache misses";
    m_evictions = gauge "ccs_cache_evictions" "Blocks displaced by replacement";
    m_flushes = gauge "ccs_cache_flushes" "Whole-cache flushes";
  }

let create ?(align_to_block = true) ?(record_trace = false) ?counters ?tracer
    ?metrics ?(metrics_labels = []) ?(caches = 1) ?cache_of ~graph ~cache
    ~capacities () =
  let m = Graph.num_edges graph in
  let n = Graph.num_nodes graph in
  if Array.length capacities <> m then
    invalid_arg "Machine.create: capacities length mismatch";
  let cache_of =
    match cache_of with None -> Array.make n 0 | Some a -> Array.copy a
  in
  if
    caches < 1
    || Array.length cache_of <> n
    || Array.exists (fun p -> p < 0 || p >= caches) cache_of
  then
    invalid_arg
      (Printf.sprintf
         "Machine.create: cache_of must place each of %d modules on one of \
          %d caches"
         n caches);
  (match counters with
  | Some c
    when Counters.entities c <> Graph.num_nodes graph + m ->
      invalid_arg
        (Printf.sprintf
           "Machine.create: counters sized for %d entities, need %d \
            (num_nodes + num_edges)"
           (Counters.entities c)
           (Graph.num_nodes graph + m))
  | _ -> ());
  let layout = plan_layout ~align_to_block ~graph ~cache ~capacities () in
  let states = layout.l_states in
  let chans =
    Array.init m (fun e ->
        {
          region = layout.l_buffers.(e);
          capacity = capacities.(e);
          head = 0;
          tail = Graph.delay graph e;
          consumed_total = 0;
          produced_total = 0;
        })
  in
  let single = function [ v ] -> Some v | _ -> None in
  {
    graph;
    caches = Array.init caches (fun _ -> Cache.create cache);
    cache_of;
    states;
    chans;
    in_edges = Array.init n (fun v -> Array.of_list (Graph.in_edges graph v));
    out_edges = Array.init n (fun v -> Array.of_list (Graph.out_edges graph v));
    pop_rate = Array.init m (fun e -> Graph.pop graph e);
    push_rate = Array.init m (fun e -> Graph.push graph e);
    fire_count = Array.make (Graph.num_nodes graph) 0;
    total_fires = 0;
    source = single (Graph.sources graph);
    sink = single (Graph.sinks graph);
    space_words = layout.l_total_words;
    recorder = (if record_trace then Some (Intvec.create ()) else None);
    counters;
    tracer;
    mstats = Option.map (fun reg -> make_mstats reg metrics_labels) metrics;
    observed = counters <> None || tracer <> None;
    num_nodes = n;
    fire_hook = None;
    fire_budget = None;
  }

let graph t = t.graph
let cache t = t.caches.(0)
let caches t = t.caches
let cache_of t v = t.cache_of.(v)
let capacity t e = t.chans.(e).capacity
let tokens t e = t.chans.(e).tail - t.chans.(e).head
let space t e = t.chans.(e).capacity - tokens t e

let fireable_reason t v =
  let g = t.graph in
  let lacking =
    List.find_opt (fun e -> tokens t e < Graph.pop g e) (Graph.in_edges g v)
  in
  match lacking with
  | Some e ->
      Some
        (Printf.sprintf "input channel %s has %d < %d tokens"
           (Graph.edge_name g e) (tokens t e) (Graph.pop g e))
  | None -> (
      let full =
        List.find_opt
          (fun e -> space t e < Graph.push g e)
          (Graph.out_edges g v)
      in
      match full with
      | Some e ->
          Some
            (Printf.sprintf "output channel %s has %d < %d free slots"
               (Graph.edge_name g e) (space t e) (Graph.push g e))
      | None -> None)

let can_fire t v = fireable_reason t v = None

let deadlocked t =
  List.for_all (fun v -> not (can_fire t v)) (Graph.nodes t.graph)

let source_inputs t =
  match t.source with Some s -> t.fire_count.(s) | None -> 0

let sink_outputs t =
  match t.sink with Some s -> t.fire_count.(s) | None -> 0

let snapshot t =
  let g = t.graph in
  let module E = Ccs_sdf.Error in
  {
    E.fired = t.total_fires;
    inputs = source_inputs t;
    outputs = sink_outputs t;
    channels =
      List.map
        (fun e ->
          {
            E.chan = Graph.edge_name g e;
            edge = e;
            occupied = tokens t e;
            capacity = t.chans.(e).capacity;
          })
        (Graph.edges g);
    blocked =
      List.filter_map
        (fun v ->
          Option.map
            (fun reason -> { E.node = Graph.node_name g v; reason })
            (fireable_reason t v))
        (Graph.nodes g);
  }

(* All touches are block-granular: within one firing, touching each block of
   a contiguous span once produces exactly the same sequence of distinct
   blocks (hence the same misses under any demand replacement policy) as
   touching every word, at a fraction of the simulation cost.  Blocks are
   touched by id (no per-word address arithmetic, no allocation). *)
(* Instrumented per-block touch: attribute the hit/miss to [owner] and,
   when tracing, advance the logical clock and emit load/evict events.
   Lives off the fast path — [touch_span] only enters here when at least
   one observer is attached. *)
let touch_block_observed t cache owner blk =
  match t.tracer with
  | None ->
      let hit = Cache.touch_block cache blk in
      (match t.counters with
      | Some c -> Counters.record c owner ~hit
      | None -> ())
  | Some tr ->
      let hit, victim = Cache.touch_block_traced cache blk in
      (match t.counters with
      | Some c -> Counters.record c owner ~hit
      | None -> ());
      Tracer.advance tr 1;
      if not hit then begin
        Tracer.load tr ~owner ~block:blk;
        if victim >= 0 then Tracer.evict tr ~owner ~block:victim
      end

let touch_span t cache owner addr len =
  if len > 0 then begin
    let b = Cache.block_words cache in
    let first = addr / b and last = (addr + len - 1) / b in
    if t.observed then
      for blk = first to last do
        (match t.recorder with
        | Some r -> Intvec.push r (blk * b)
        | None -> ());
        touch_block_observed t cache owner blk
      done
    else
      match t.recorder with
      | None ->
          for blk = first to last do
            ignore (Cache.touch_block cache blk)
          done
      | Some r ->
          for blk = first to last do
            Intvec.push r (blk * b);
            ignore (Cache.touch_block cache blk)
          done
  end

(* Touch [k] logical ring-buffer slots starting at absolute index [pos]:
   at most two contiguous spans (wrap-around). *)
let touch_ring t cache owner (region : Layout.region) pos k =
  if k > 0 then begin
    let len = region.Layout.length in
    let start = pos mod len in
    if start + k <= len then
      touch_span t cache owner (region.Layout.base + start) k
    else begin
      touch_span t cache owner (region.Layout.base + start) (len - start);
      touch_span t cache owner region.Layout.base (k - (len - start))
    end
  end

(* Allocation-free firing-rule check; [fireable_reason] reproduces the
   verdict with a diagnostic when this returns [false]. *)
let fireable_fast t v =
  let ins = t.in_edges.(v) and outs = t.out_edges.(v) in
  let ok = ref true in
  for i = 0 to Array.length ins - 1 do
    let e = Array.unsafe_get ins i in
    let c = t.chans.(e) in
    if c.tail - c.head < t.pop_rate.(e) then ok := false
  done;
  for i = 0 to Array.length outs - 1 do
    let e = Array.unsafe_get outs i in
    let c = t.chans.(e) in
    if c.capacity - (c.tail - c.head) < t.push_rate.(e) then ok := false
  done;
  !ok

let fire t v =
  (match t.fire_budget with
  | Some budget when t.total_fires >= budget -> raise (Budget_exceeded { budget })
  | _ -> ());
  if not (fireable_fast t v) then begin
    (match t.tracer with Some tr -> Tracer.stall tr ~node:v | None -> ());
    match fireable_reason t v with
    | Some reason -> raise (Not_fireable { node = v; reason })
    | None ->
        (* The allocation-free check and the diagnostic re-check disagree:
           an internal invariant is broken (e.g. a channel mutated behind
           the machine's back).  Surface a structured error with the full
           machine state instead of dying on an assert. *)
        let module E = Ccs_sdf.Error in
        E.fail
          (E.Deadlocked
             {
               plan = "machine";
               detail =
                 Printf.sprintf
                   "internal invariant violation: module %s fails the fast \
                    firing-rule check but no obstruction can be diagnosed"
                   (Graph.node_name t.graph v);
               snapshot = snapshot t;
             })
  end;
  let fire_ev =
    match t.tracer with
    | Some tr -> Tracer.begin_fire tr ~node:v
    | None -> -1
  in
  (* The firing's cache, picked once: every touch below goes through it. *)
  let cache = t.caches.(t.cache_of.(v)) in
  (* Load the module's entire state. *)
  let st = t.states.(v) in
  touch_span t cache v st.Layout.base st.Layout.length;
  (* Consume inputs. *)
  let ins = t.in_edges.(v) in
  for i = 0 to Array.length ins - 1 do
    let e = Array.unsafe_get ins i in
    let c = t.chans.(e) in
    let k = t.pop_rate.(e) in
    touch_ring t cache (t.num_nodes + e) c.region c.head k;
    c.head <- c.head + k;
    c.consumed_total <- c.consumed_total + k
  done;
  (* Produce outputs. *)
  let outs = t.out_edges.(v) in
  for i = 0 to Array.length outs - 1 do
    let e = Array.unsafe_get outs i in
    let c = t.chans.(e) in
    let k = t.push_rate.(e) in
    touch_ring t cache (t.num_nodes + e) c.region c.tail k;
    c.tail <- c.tail + k;
    c.produced_total <- c.produced_total + k
  done;
  t.fire_count.(v) <- t.fire_count.(v) + 1;
  t.total_fires <- t.total_fires + 1;
  (match t.mstats with Some ms -> Metrics.inc ms.m_fires | None -> ());
  (match t.tracer with Some tr -> Tracer.end_fire tr fire_ev | None -> ());
  match t.fire_hook with Some hook -> hook v | None -> ()

let set_fire_hook t hook = t.fire_hook <- hook
let set_fire_budget t budget = t.fire_budget <- budget

let fire_many t v k =
  for _ = 1 to k do
    fire t v
  done

let run t seq = List.iter (fire t) seq
let fires t v = t.fire_count.(v)
let total_fires t = t.total_fires
let consumed t e = t.chans.(e).consumed_total
let produced t e = t.chans.(e).produced_total

(* Sum of a cache statistic over every processor's cache. *)
let total stat t = Array.fold_left (fun acc c -> acc + stat c) 0 t.caches
let misses t = total Cache.misses t

let misses_per_input t =
  let inputs = source_inputs t in
  if inputs = 0 then Float.nan
  else float_of_int (misses t) /. float_of_int inputs

let trace t =
  match t.recorder with
  | Some r -> Intvec.to_array r
  | None -> invalid_arg "Machine.trace: machine created without record_trace"

let address_space_words t = t.space_words
let state_region t v = t.states.(v)
let buffer_region t e = t.chans.(e).region

(* --- observability ------------------------------------------------------- *)

let num_entities t = t.num_nodes + Array.length t.chans
let entity_of_state _t v = v
let entity_of_buffer t e = t.num_nodes + e
let counters t = t.counters
let tracer t = t.tracer
let metrics t = Option.map (fun ms -> ms.m_registry) t.mstats

(* Pull point: copy the cache's statistics into the attached gauges.  Called
   at epoch and run boundaries by the drivers, never from the touch path. *)
let sync_metrics t =
  match t.mstats with
  | None -> ()
  | Some ms ->
      Metrics.set ms.m_accesses (total Cache.accesses t);
      Metrics.set ms.m_hits (total Cache.hits t);
      Metrics.set ms.m_misses (total Cache.misses t);
      Metrics.set ms.m_evictions (total Cache.evictions t);
      Metrics.set ms.m_flushes (total Cache.flushes t)

let entity_label t i =
  if i < t.num_nodes then Graph.node_name t.graph i
  else Graph.edge_name t.graph (i - t.num_nodes)

let fire_budget t = t.fire_budget

(* --- adaptation hooks ----------------------------------------------------

   [resize_cache] reconfigures the simulated cache under the running
   machine — regions and cursors are untouched, only future replacement
   behavior changes (the adverse event the adaptation layer reacts to).

   [migrate] moves a run onto a machine built for a different plan: firing
   counts and cumulative channel traffic carry over, and each channel's
   buffered tokens are renormalized to the new ring buffer (head 0, tail =
   token count).  Because the simulator models addresses rather than data,
   renormalizing cursors preserves execution exactly; the destination cache
   starts cold, which is the honest cost of moving state to a new layout. *)

let resize_cache t cfg = Array.iter (fun c -> Cache.resize c cfg) t.caches

let migrate ~src dst =
  let n = Array.length src.chans in
  if
    Array.length src.fire_count <> Array.length dst.fire_count
    || Array.length dst.chans <> n
    || Array.length dst.caches <> Array.length src.caches
  then
    invalid_arg
      (Printf.sprintf
         "Machine.migrate: source has %d nodes / %d channels / %d caches, \
          destination %d nodes / %d channels / %d caches"
         (Array.length src.fire_count)
         n
         (Array.length src.caches)
         (Array.length dst.fire_count)
         (Array.length dst.chans)
         (Array.length dst.caches));
  for e = 0 to n - 1 do
    let toks = src.chans.(e).tail - src.chans.(e).head in
    if toks > dst.chans.(e).capacity then
      invalid_arg
        (Printf.sprintf
           "Machine.migrate: channel %d holds %d tokens, destination capacity \
            %d"
           e toks
           dst.chans.(e).capacity)
  done;
  Array.blit src.fire_count 0 dst.fire_count 0 (Array.length src.fire_count);
  dst.total_fires <- src.total_fires;
  for e = 0 to n - 1 do
    let s = src.chans.(e) and d = dst.chans.(e) in
    d.head <- 0;
    d.tail <- s.tail - s.head;
    d.consumed_total <- s.consumed_total;
    d.produced_total <- s.produced_total
  done;
  dst.fire_budget <- src.fire_budget;
  Array.iteri (fun i c -> Cache.carry_stats ~src:c dst.caches.(i)) src.caches

(* --- checkpoint persistence ---------------------------------------------- *)

type persisted = {
  p_fire_count : int array;
  p_total_fires : int;
  p_heads : int array;
  p_tails : int array;
  p_consumed : int array;
  p_produced : int array;
  p_budget : int option;
}

let persist t =
  let n = Array.length t.chans in
  {
    p_fire_count = Array.copy t.fire_count;
    p_total_fires = t.total_fires;
    p_heads = Array.init n (fun e -> t.chans.(e).head);
    p_tails = Array.init n (fun e -> t.chans.(e).tail);
    p_consumed = Array.init n (fun e -> t.chans.(e).consumed_total);
    p_produced = Array.init n (fun e -> t.chans.(e).produced_total);
    p_budget = t.fire_budget;
  }

let restore t p =
  let n = Array.length t.chans in
  if
    Array.length p.p_fire_count <> Array.length t.fire_count
    || Array.length p.p_heads <> n
    || Array.length p.p_tails <> n
    || Array.length p.p_consumed <> n
    || Array.length p.p_produced <> n
  then
    invalid_arg
      (Printf.sprintf
         "Machine.restore: state for %d nodes / %d channels does not fit a \
          machine with %d nodes / %d channels"
         (Array.length p.p_fire_count)
         (Array.length p.p_heads)
         (Array.length t.fire_count)
         n);
  Array.blit p.p_fire_count 0 t.fire_count 0 (Array.length t.fire_count);
  t.total_fires <- p.p_total_fires;
  for e = 0 to n - 1 do
    let c = t.chans.(e) in
    c.head <- p.p_heads.(e);
    c.tail <- p.p_tails.(e);
    c.consumed_total <- p.p_consumed.(e);
    c.produced_total <- p.p_produced.(e)
  done;
  t.fire_budget <- p.p_budget
