type policy = Lru | Set_associative of int | Direct_mapped

type config = { size_words : int; block_words : int; policy : policy }

let config ?(policy = Lru) ~size_words ~block_words () =
  if block_words <= 0 then invalid_arg "Cache.config: block_words must be > 0";
  if size_words < block_words then
    invalid_arg "Cache.config: size_words must be >= block_words";
  { size_words; block_words; policy }

type engine =
  | Full of Lru.t
  | Sets of { sets : Lru.t array; nsets : int }

type t = {
  mutable cfg : config;
  mutable nblocks : int;
  mutable engine : engine;
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
  (* Eviction counting is delegated to the per-set LRU engines (the only
     place that knows a replacement displaced a block); this baseline
     lets [restore], [resize] and [carry_stats] set the reported count
     without a hot-path cost. *)
  mutable evict_base : int;
}

let make_engine cfg nblocks =
  match cfg.policy with
  | Lru -> Full (Lru.create ~capacity:nblocks)
  | Direct_mapped ->
      let nsets = nblocks in
      Sets { sets = Array.init nsets (fun _ -> Lru.create ~capacity:1); nsets }
  | Set_associative ways ->
      if ways < 1 then invalid_arg "Cache.create: ways must be >= 1";
      let ways = min ways nblocks in
      (* Round the set count up and shrink the last set, so the modeled
         capacity is exactly [nblocks] even when [ways] does not divide it
         (33 blocks / 4 ways -> 9 sets, the last holding 1 block). *)
      let nsets = (nblocks + ways - 1) / ways in
      let set_capacity s =
        if s = nsets - 1 then nblocks - ((nsets - 1) * ways) else ways
      in
      Sets
        {
          sets =
            Array.init nsets (fun s -> Lru.create ~capacity:(set_capacity s));
          nsets;
        }

let create cfg =
  let nblocks = max 1 (cfg.size_words / cfg.block_words) in
  {
    cfg;
    nblocks;
    engine = make_engine cfg nblocks;
    accesses = 0;
    hits = 0;
    misses = 0;
    flushes = 0;
    evict_base = 0;
  }

let size_words t = t.cfg.size_words
let block_words t = t.cfg.block_words
let num_blocks t = t.nblocks
let config_of t = t.cfg

let num_sets t = match t.engine with Full _ -> 1 | Sets { nsets; _ } -> nsets

let block_of t addr = addr / t.cfg.block_words

let touch_block t blk =
  t.accesses <- t.accesses + 1;
  let hit =
    match t.engine with
    | Full lru -> Lru.touch_hit lru blk
    | Sets { sets; nsets } -> Lru.touch_hit sets.(blk mod nsets) blk
  in
  if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
  hit

(* Traced variant for the observability layer: same statistics, same
   replacement decisions, but reports the evicted victim (or -1) so the
   tracer can emit evict events.  Uses [Lru.touch], whose option result
   allocates — acceptable off the default path. *)
let touch_block_traced t blk =
  t.accesses <- t.accesses + 1;
  let engine =
    match t.engine with
    | Full lru -> lru
    | Sets { sets; nsets } -> sets.(blk mod nsets)
  in
  match Lru.touch engine blk with
  | `Hit ->
      t.hits <- t.hits + 1;
      (true, -1)
  | `Miss evicted ->
      t.misses <- t.misses + 1;
      (false, Option.value evicted ~default:(-1))

let touch t addr = touch_block t (block_of t addr)

let cached t addr =
  let blk = block_of t addr in
  match t.engine with
  | Full lru -> Lru.mem lru blk
  | Sets { sets; nsets } -> Lru.mem sets.(blk mod nsets) blk

let flush t =
  (match t.engine with
  | Full lru -> Lru.clear lru
  | Sets { sets; _ } -> Array.iter Lru.clear sets);
  t.flushes <- t.flushes + 1

let accesses t = t.accesses
let hits t = t.hits
let misses t = t.misses
let flushes t = t.flushes

let engine_evictions t =
  match t.engine with
  | Full lru -> Lru.evictions lru
  | Sets { sets; _ } ->
      Array.fold_left (fun acc s -> acc + Lru.evictions s) 0 sets

let evictions t = engine_evictions t - t.evict_base

(* --- online reconfiguration ----------------------------------------------

   [resize] models the cache changing shape underneath a running machine:
   contention shrinking the effective capacity, the contending tenant
   leaving again, or an associativity change.  The rule for which residents
   survive is deterministic so adapted runs replay bit-identically:

   - a global hotness order ranks every resident block — recency depth
     first (depth 0 = MRU of its set), set index second — which for the
     fully-associative engine is exactly its MRU-first list;
   - each new replacement set keeps the hottest blocks that map to it, up
     to its capacity, in that order;
   - blocks that fit nowhere were displaced by the reconfiguration and are
     counted as evictions.

   Statistics (accesses/hits/misses/flushes) are continuous across the
   resize; only future replacement behavior changes. *)

let hotness_order t =
  match t.engine with
  | Full lru -> Lru.to_list_mru_first lru
  | Sets { sets; _ } ->
      let lists = Array.map Lru.to_list_mru_first sets in
      let out = ref [] in
      let any = ref true in
      while !any do
        any := false;
        Array.iteri
          (fun i l ->
            match l with
            | [] -> ()
            | k :: rest ->
                lists.(i) <- rest;
                out := k :: !out;
                any := true)
          lists
      done;
      List.rev !out

let resize t cfg =
  if cfg.block_words <> t.cfg.block_words then
    invalid_arg
      (Printf.sprintf
         "Cache.resize: block size cannot change online (%d words -> %d)"
         t.cfg.block_words cfg.block_words);
  let reported_evictions = evictions t in
  let hot = hotness_order t in
  let population = List.length hot in
  let nblocks = max 1 (cfg.size_words / cfg.block_words) in
  let engine = make_engine cfg nblocks in
  let survivors = ref 0 in
  let load lru keys =
    (* [keys] is hottest-first and already clipped to capacity. *)
    Lru.restore_mru_first lru (Array.of_list keys);
    survivors := !survivors + List.length keys
  in
  let rec take n = function
    | k :: rest when n > 0 -> k :: take (n - 1) rest
    | _ -> []
  in
  (match engine with
  | Full lru -> load lru (take (Lru.capacity lru) hot)
  | Sets { sets; nsets } ->
      Array.iteri
        (fun s lru ->
          load lru
            (take (Lru.capacity lru)
               (List.filter (fun blk -> blk mod nsets = s) hot)))
        sets);
  t.cfg <- cfg;
  t.nblocks <- nblocks;
  t.engine <- engine;
  (* Keep the reported eviction count continuous, charging the residents
     the reconfiguration displaced. *)
  let dropped = population - !survivors in
  t.evict_base <- engine_evictions t - (reported_evictions + dropped)

(* Fold [src]'s statistics into [dst] — used when a run migrates to a new
   machine so miss totals stay cumulative across the migration.  Residency
   is NOT transferred (the new layout makes old residents meaningless);
   only the counters carry. *)
let carry_stats ~src dst =
  dst.accesses <- dst.accesses + src.accesses;
  dst.hits <- dst.hits + src.hits;
  dst.misses <- dst.misses + src.misses;
  dst.flushes <- dst.flushes + src.flushes;
  dst.evict_base <- dst.evict_base - (engine_evictions src - src.evict_base)

(* --- persistence ---------------------------------------------------------

   Everything that influences a future access is the per-set recency order
   plus the statistics counters; the hash-table layout inside each [Lru] is
   a lookup index with no bearing on replacement, so dumping recency lists
   and re-touching them restores bit-identical behavior. *)

type persisted = {
  p_accesses : int;
  p_hits : int;
  p_misses : int;
  p_flushes : int;
  p_sets : int array array; (* per replacement set, MRU first *)
}

let engine_sets t =
  match t.engine with Full lru -> [| lru |] | Sets { sets; _ } -> sets

let persist t =
  {
    p_accesses = t.accesses;
    p_hits = t.hits;
    p_misses = t.misses;
    p_flushes = t.flushes;
    p_sets =
      Array.map
        (fun lru -> Array.of_list (Lru.to_list_mru_first lru))
        (engine_sets t);
  }

let restore t p =
  let sets = engine_sets t in
  if Array.length p.p_sets <> Array.length sets then
    invalid_arg
      (Printf.sprintf "Cache.restore: %d sets persisted, engine has %d"
         (Array.length p.p_sets) (Array.length sets));
  Array.iteri (fun i keys -> Lru.restore_mru_first sets.(i) keys) p.p_sets;
  t.accesses <- p.p_accesses;
  t.hits <- p.p_hits;
  t.misses <- p.p_misses;
  t.flushes <- p.p_flushes;
  (* Eviction counts are a diagnostic, not persisted replacement state:
     restart them at the restore point. *)
  t.evict_base <- engine_evictions t

let pp_stats fmt t =
  Format.fprintf fmt
    "accesses=%d hits=%d misses=%d flushes=%d (miss rate %.2f%%)" t.accesses
    t.hits t.misses t.flushes
    (if t.accesses = 0 then 0.0
     else 100.0 *. float_of_int t.misses /. float_of_int t.accesses)

module Opt = struct
  (* Belady's algorithm with next-use indices: keep resident blocks in a
     max-heap ordered by next use; on a miss with a full cache, evict the
     block whose next use is farthest in the future.  Lazy deletion keeps
     the heap simple: entries are (next_use, block) and stale entries are
     skipped when popped. *)

  module Heap = struct
    type t = { mutable data : (int * int) array; mutable len : int }

    let create () = { data = Array.make 64 (0, 0); len = 0 }

    let push h x =
      if h.len = Array.length h.data then begin
        let bigger = Array.make (2 * h.len) (0, 0) in
        Array.blit h.data 0 bigger 0 h.len;
        h.data <- bigger
      end;
      h.data.(h.len) <- x;
      h.len <- h.len + 1;
      let rec up i =
        if i > 0 then begin
          let p = (i - 1) / 2 in
          if fst h.data.(p) < fst h.data.(i) then begin
            let tmp = h.data.(p) in
            h.data.(p) <- h.data.(i);
            h.data.(i) <- tmp;
            up p
          end
        end
      in
      up (h.len - 1)

    let pop h =
      if h.len = 0 then None
      else begin
        let top = h.data.(0) in
        h.len <- h.len - 1;
        h.data.(0) <- h.data.(h.len);
        let rec down i =
          let l = (2 * i) + 1 and r = (2 * i) + 2 in
          let m = ref i in
          if l < h.len && fst h.data.(l) > fst h.data.(!m) then m := l;
          if r < h.len && fst h.data.(r) > fst h.data.(!m) then m := r;
          if !m <> i then begin
            let tmp = h.data.(!m) in
            h.data.(!m) <- h.data.(i);
            h.data.(i) <- tmp;
            down !m
          end
        in
        down 0;
        Some top
      end
  end

  type stats = { misses : int; peak_heap : int }

  let misses_stats ~block_capacity trace =
    if block_capacity < 1 then
      invalid_arg "Cache.Opt.misses: capacity must be >= 1";
    let n = Array.length trace in
    (* next.(i) = index of next occurrence of trace.(i) after i, or n. *)
    let next = Array.make n n in
    let last_seen = Hashtbl.create 64 in
    for i = n - 1 downto 0 do
      (match Hashtbl.find_opt last_seen trace.(i) with
      | Some j -> next.(i) <- j
      | None -> next.(i) <- n);
      Hashtbl.replace last_seen trace.(i) i
    done;
    let resident = Hashtbl.create 64 in
    (* resident: block -> current next-use index (for stale detection) *)
    let heap = Heap.create () in
    let miss_count = ref 0 in
    let peak_heap = ref 0 in
    for i = 0 to n - 1 do
      let blk = trace.(i) in
      (match Hashtbl.find_opt resident blk with
      | Some _ -> () (* hit: only the next-use refresh below *)
      | None ->
          incr miss_count;
          if Hashtbl.length resident >= block_capacity then begin
            (* Evict the resident block with the farthest next use,
               skipping stale heap entries. *)
            let rec evict () =
              match Heap.pop heap with
              | None -> ()
              | Some (nu, b) -> (
                  match Hashtbl.find_opt resident b with
                  | Some cur when cur = nu ->
                      Hashtbl.remove resident b
                  | _ -> evict ())
            in
            evict ()
          end);
      (* Whether hit or miss, [blk] is now resident and its next use
         advances: exactly one heap entry per access, so the heap never
         outgrows the trace. *)
      Hashtbl.replace resident blk next.(i);
      Heap.push heap (next.(i), blk);
      if heap.Heap.len > !peak_heap then peak_heap := heap.Heap.len
    done;
    { misses = !miss_count; peak_heap = !peak_heap }

  let misses ~block_capacity trace =
    (misses_stats ~block_capacity trace).misses

  let block_trace ~block_words trace =
    if block_words <= 0 then
      invalid_arg "Cache.Opt.block_trace: block_words must be > 0";
    Array.map (fun addr -> addr / block_words) trace
end
