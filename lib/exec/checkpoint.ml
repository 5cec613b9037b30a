module E = Ccs_sdf.Error
module Binio = Ccs_sdf.Binio
module Graph = Ccs_sdf.Graph
module Cache = Ccs_cache.Cache
module Counters = Ccs_obs.Counters
module Tracer = Ccs_obs.Tracer
module Metrics = Ccs_obs.Metrics

let magic = "CCSCKPT1"
let version = 2

type t = {
  graph_digest : string;
  plan_name : string;
  epoch : int;
  cache_config : Cache.config;
  capacities : int array;
  placement : int array;
  machine : Machine.persisted;
  caches : Cache.persisted array;
  counters : (int array * int array) option;
  tracer : (int * int) option; (* logical clock, dropped-event count *)
}

let graph_digest = Plan_key.graph_digest

let placement_of machine =
  Array.init
    (Graph.num_nodes (Machine.graph machine))
    (Machine.cache_of machine)

let capture ~plan_name ~epoch machine =
  let g = Machine.graph machine in
  {
    graph_digest = graph_digest g;
    plan_name;
    epoch;
    cache_config = Cache.config_of (Machine.cache machine);
    capacities =
      Array.init
        (Graph.num_edges g)
        (fun e -> Machine.capacity machine e);
    placement = placement_of machine;
    machine = Machine.persist machine;
    caches = Array.map Cache.persist (Machine.caches machine);
    counters = Option.map Counters.dump (Machine.counters machine);
    tracer =
      Option.map
        (fun tr -> (Tracer.clock tr, Tracer.dropped tr))
        (Machine.tracer machine);
  }

(* --- wire format ---------------------------------------------------------- *)

let policy_tag = Plan_key.policy_tag
let policy_of_tag = Plan_key.policy_of_tag

let encode_cache w (p : Cache.persisted) =
  Binio.W.int w p.Cache.p_accesses;
  Binio.W.int w p.Cache.p_hits;
  Binio.W.int w p.Cache.p_misses;
  Binio.W.int w p.Cache.p_flushes;
  Binio.W.int w (Array.length p.Cache.p_sets);
  Array.iter (Binio.W.int_array w) p.Cache.p_sets

(* Counts read from the payload are bounded by its length: every element
   they announce takes at least one byte. *)
let plausible_count ~path ~what payload k =
  if k < 0 || k > String.length payload then
    E.fail
      (E.Checkpoint_corrupt
         { path; reason = Printf.sprintf "implausible %s count %d" what k })

let decode_cache ~path payload r =
  let p_accesses = Binio.R.int r in
  let p_hits = Binio.R.int r in
  let p_misses = Binio.R.int r in
  let p_flushes = Binio.R.int r in
  let num_sets = Binio.R.int r in
  plausible_count ~path ~what:"set" payload num_sets;
  let p_sets = Array.init num_sets (fun _ -> Binio.R.int_array r) in
  { Cache.p_accesses; p_hits; p_misses; p_flushes; p_sets }

let encode t =
  let w = Binio.W.create () in
  Binio.W.string w t.graph_digest;
  Binio.W.string w t.plan_name;
  Binio.W.int w t.epoch;
  Binio.W.int w t.cache_config.Cache.size_words;
  Binio.W.int w t.cache_config.Cache.block_words;
  let tag, ways = policy_tag t.cache_config.Cache.policy in
  Binio.W.int w tag;
  Binio.W.int w ways;
  Binio.W.int_array w t.capacities;
  Binio.W.int_array w t.placement;
  Binio.W.int_array w t.machine.Machine.p_fire_count;
  Binio.W.int w t.machine.Machine.p_total_fires;
  Binio.W.int_array w t.machine.Machine.p_heads;
  Binio.W.int_array w t.machine.Machine.p_tails;
  Binio.W.int_array w t.machine.Machine.p_consumed;
  Binio.W.int_array w t.machine.Machine.p_produced;
  (match t.machine.Machine.p_budget with
  | None -> Binio.W.int w 0
  | Some b ->
      Binio.W.int w 1;
      Binio.W.int w b);
  Binio.W.int w (Array.length t.caches);
  Array.iter (encode_cache w) t.caches;
  (match t.counters with
  | None -> Binio.W.int w 0
  | Some (accesses, misses) ->
      Binio.W.int w 1;
      Binio.W.int_array w accesses;
      Binio.W.int_array w misses);
  (match t.tracer with
  | None -> Binio.W.int w 0
  | Some (clock, dropped) ->
      Binio.W.int w 1;
      Binio.W.int w clock;
      Binio.W.int w dropped);
  Binio.W.contents w

let decode ~path payload =
  let r = Binio.R.of_string ~path payload in
  let graph_digest = Binio.R.string r in
  let plan_name = Binio.R.string r in
  let epoch = Binio.R.int r in
  let size_words = Binio.R.int r in
  let block_words = Binio.R.int r in
  let tag = Binio.R.int r in
  let ways = Binio.R.int r in
  let policy = policy_of_tag ~path tag ways in
  let cache_config =
    try Cache.config ~policy ~size_words ~block_words ()
    with Invalid_argument msg ->
      E.fail (E.Checkpoint_corrupt { path; reason = msg })
  in
  let capacities = Binio.R.int_array r in
  let placement = Binio.R.int_array r in
  let p_fire_count = Binio.R.int_array r in
  let p_total_fires = Binio.R.int r in
  let p_heads = Binio.R.int_array r in
  let p_tails = Binio.R.int_array r in
  let p_consumed = Binio.R.int_array r in
  let p_produced = Binio.R.int_array r in
  let p_budget =
    match Binio.R.int r with 0 -> None | _ -> Some (Binio.R.int r)
  in
  let num_caches = Binio.R.int r in
  plausible_count ~path ~what:"cache" payload num_caches;
  let caches = Array.init num_caches (fun _ -> decode_cache ~path payload r) in
  let counters =
    match Binio.R.int r with
    | 0 -> None
    | _ ->
        let accesses = Binio.R.int_array r in
        let misses = Binio.R.int_array r in
        Some (accesses, misses)
  in
  let tracer =
    match Binio.R.int r with
    | 0 -> None
    | _ ->
        let clock = Binio.R.int r in
        let dropped = Binio.R.int r in
        Some (clock, dropped)
  in
  Binio.R.expect_end r;
  {
    graph_digest;
    plan_name;
    epoch;
    cache_config;
    capacities;
    placement;
    machine =
      {
        Machine.p_fire_count;
        p_total_fires;
        p_heads;
        p_tails;
        p_consumed;
        p_produced;
        p_budget;
      };
    caches;
    counters;
    tracer;
  }

(* Checkpoint I/O telemetry.  Latency is monotonic wall-clock time
   ({!Clock.now_us}): CPU time hid I/O stalls entirely and misreported
   latency whenever several processes shared a core.  The [_us] fields
   stay warn-only in the bench regression gate. *)
let record_io reg ~op ~us ~bytes =
  Metrics.inc
    (Metrics.counter reg
       ~help:(Printf.sprintf "Checkpoint %ss completed" op)
       (Printf.sprintf "ccs_checkpoint_%ss_total" op));
  Metrics.observe
    (Metrics.histogram reg
       ~help:
         (Printf.sprintf "Checkpoint %s latency (wall-clock microseconds)" op)
       (Printf.sprintf "ccs_checkpoint_%s_us" op))
    us;
  Metrics.observe
    (Metrics.histogram reg ~help:"Checkpoint payload size (bytes)"
       "ccs_checkpoint_bytes")
    bytes

let save ?metrics ~path t =
  let t0 = Clock.now_us () in
  let payload = encode t in
  Binio.write_file ~path ~magic ~version payload;
  match metrics with
  | None -> ()
  | Some reg ->
      record_io reg ~op:"save" ~us:(Clock.elapsed_us ~since:t0)
        ~bytes:(String.length payload)

let load ?metrics ~path () =
  let t0 = Clock.now_us () in
  match Binio.read_file ~path ~magic ~version () with
  | Error e -> Error e
  | Ok payload -> (
      match E.protect (fun () -> decode ~path payload) with
      | Error e -> Error e
      | Ok t ->
          (match metrics with
          | None -> ()
          | Some reg ->
              record_io reg ~op:"load" ~us:(Clock.elapsed_us ~since:t0)
                ~bytes:(String.length payload));
          Ok t)

(* --- validation + restore ------------------------------------------------- *)

let key_of t =
  Plan_key.make ~capacities:t.capacities ~graph_digest:t.graph_digest
    ~cache_config:t.cache_config ()

let machine_key machine =
  let g = Machine.graph machine in
  Plan_key.of_graph g
    ~cache:(Cache.config_of (Machine.cache machine))
    ~capacities:
      (Array.init (Graph.num_edges g) (fun e -> Machine.capacity machine e))

let validate ~path t machine =
  (* The identity checks — graph digest, cache configuration, capacity
     vector — are exactly a {!Plan_key} comparison (checkpoints don't
     involve the planner, so both sides carry planner version 0). *)
  match Plan_key.check ~path ~expected:(key_of t) ~found:(machine_key machine) with
  | Error _ as e -> e
  | Ok () -> (
      let mismatch field expected found =
        Error (E.Checkpoint_mismatch { path; field; expected; found })
      in
      let caches = Array.length (Machine.caches machine) in
      let placement = placement_of machine in
      let ints a =
        String.concat "," (Array.to_list (Array.map string_of_int a))
      in
      match (t.counters, Machine.counters machine) with
      | _ when Array.length t.caches <> caches ->
          mismatch "processors"
            (string_of_int (Array.length t.caches))
            (string_of_int caches)
      | _ when t.placement <> placement ->
          mismatch "placement" (ints t.placement) (ints placement)
      | Some (accesses, _), Some c
        when Array.length accesses <> Counters.entities c ->
          mismatch "counters"
            (string_of_int (Array.length accesses))
            (string_of_int (Counters.entities c))
      | _ -> Ok ())

let restore ~path t machine =
  match validate ~path t machine with
  | Error e -> Error e
  | Ok () ->
      E.protect (fun () ->
          (try
             Machine.restore machine t.machine;
             Array.iteri
               (fun i p -> Cache.restore (Machine.caches machine).(i) p)
               t.caches
           with Invalid_argument msg ->
             E.fail (E.Checkpoint_corrupt { path; reason = msg }));
          (match (t.counters, Machine.counters machine) with
          | Some (accesses, misses), Some c -> Counters.load c ~accesses ~misses
          | None, Some c -> Counters.reset c
          | _, None -> ());
          match (t.tracer, Machine.tracer machine) with
          | Some (clock, dropped), Some tr -> Tracer.restore tr ~clock ~dropped
          | _, _ -> ())

let load_into ?metrics ~path machine =
  match load ?metrics ~path () with
  | Error e -> Error e
  | Ok t -> ( match restore ~path t machine with Error e -> Error e | Ok () -> Ok t)
