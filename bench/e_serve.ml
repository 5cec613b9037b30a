(* E24: serve plan-cache effectiveness.  For every app in the suite, one
   cold request against a fresh daemon state (runs the NP-hard
   partitioning and stores the artifact) and one warm request (served
   from the persistent cache).  The warm response must be bit-identical
   to the cold one apart from the cached flag and latency — the
   equivalence the daemon's cache-key contract promises — since the warm
   path replaces the partitioner with one framed read.  Every field (hit
   flags, equivalence, the composite cache key) gates the CI regression
   diff exactly; perfbench/ serve-mix times the two paths. *)

open Util

let fresh_state =
  let counter = ref 0 in
  fun app ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ccs-e24-%d-%s-%d" (Unix.getpid ()) app !counter)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      try Sys.rmdir path with Sys_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let strip_volatile line =
  match Ccs.Json.of_string line with
  | Ok (Ccs.Json.Obj fields) ->
      Ccs.Json.to_string
        (Ccs.Json.Obj
           (List.filter
              (fun (k, _) ->
                k <> "cached" && k <> "elapsed_us" && k <> "trace_id")
              fields))
  | _ -> line

let response_field line name =
  match Ccs.Json.of_string line with
  | Ok v -> Ccs.Json.member name v
  | Error _ -> None

let e24 () =
  section "E24-serve" "serve plan-cache effectiveness (cold vs warm)";
  let m = 2048 and b = 16 in
  let rows =
    List.map
      (fun entry ->
        let app = entry.Ccs_apps.Suite.name in
        let g = entry.Ccs_apps.Suite.graph () in
        let state = fresh_state app in
        Fun.protect ~finally:(fun () -> remove_tree state) @@ fun () ->
        let daemon =
          Ccs_serve.Server.make
            (Ccs_serve.Server.default_config
               ~address:(Ccs_serve.Server.Unix_socket "/nonexistent")
               ~dir:state)
        in
        let line =
          Ccs.Json.to_string
            (Ccs.Json.Obj
               [
                 ("op", Ccs.Json.String "plan");
                 ("graph", Ccs.Json.String (Ccs.Serial.to_text g));
                 ("cache_words", Ccs.Json.Int m);
                 ("block_words", Ccs.Json.Int b);
               ])
        in
        let cold = Ccs_serve.Server.handle_line daemon line in
        let warm = Ccs_serve.Server.handle_line daemon line in
        let hit =
          response_field warm "cached" = Some (Ccs.Json.Bool true)
        in
        let identical = strip_volatile cold = strip_volatile warm in
        let key =
          match response_field cold "key" with
          | Some (Ccs.Json.String k) -> k
          | _ -> "?"
        in
        if Json.enabled () then
          Json.point
            [
              ("kind", Json.String "serve_cache");
              ("graph", Json.String app);
              ("m", Json.Int m);
              ("b", Json.Int b);
              ("key", Json.String key);
              ("cache_hit", Json.Bool hit);
              ("roundtrip_identical", Json.Bool identical);
            ];
        [
          app;
          key;
          (if hit then "yes" else "NO");
          (if identical then "yes" else "NO");
        ])
      Ccs_apps.Suite.all
  in
  Ccs.Table.print ~header:[ "app"; "key"; "hit"; "identical" ] ~rows;
  note
    "warm requests skip the NP-hard partitioning entirely: one framed \
     read, validated against the composite cache key, answers \
     bit-identically to the cold build"

(* E25: serve hardening — the bounded store across an eviction cycle, and
   overload shedding under concurrent clients.

   Part 1 drives an inline daemon whose plan store is bounded to half the
   application suite (6 records for 12 apps) with the hot cache off, so
   every request exercises the disk store.  Cycling the full suite twice
   is the classic LRU-thrash shape — the second cycle gets zero hits,
   because each build evicts exactly the record the cycle will want last
   — and a third cycle over the store's working-set-sized tail gets all
   hits.  Every re-build after an eviction must be bit-identical to the
   first build (determinism is what makes eviction safe), and the
   eviction count is exact, so all of part 1's fields gate the CI diff.

   Part 2 forks a real daemon and hammers it with concurrent client
   processes, once without shedding and once with [max_inflight] below
   the client count so the daemon sheds and clients retry with jittered
   backoff.  The contract — every request eventually completes, zero
   lost — gates the diff. *)

let plan_request g m b =
  Ccs.Json.to_string
    (Ccs.Json.Obj
       [
         ("op", Ccs.Json.String "plan");
         ("graph", Ccs.Json.String (Ccs.Serial.to_text g));
         ("cache_words", Ccs.Json.Int m);
         ("block_words", Ccs.Json.Int b);
       ])

let is_hit line =
  response_field line "cached" = Some (Ccs.Json.Bool true)

let e25_eviction_cycle () =
  let m = 2048 and b = 16 in
  let bound = 6 in
  let state = fresh_state "e25-cycle" in
  Fun.protect ~finally:(fun () -> remove_tree state) @@ fun () ->
  let daemon =
    Ccs_serve.Server.make
      {
        (Ccs_serve.Server.default_config
           ~address:(Ccs_serve.Server.Unix_socket "/nonexistent")
           ~dir:state)
        with
        Ccs_serve.Server.store_max_entries = bound;
        hot_cache = 0 (* every lookup exercises the disk store *);
      }
  in
  let apps = Ccs_apps.Suite.all in
  let lines =
    List.map
      (fun e -> plan_request (e.Ccs_apps.Suite.graph ()) m b)
      apps
  in
  let run_cycle ls = List.map (Ccs_serve.Server.handle_line daemon) ls in
  let hits rs = List.length (List.filter is_hit rs) in
  let cycle1 = run_cycle lines in
  let cycle2 = run_cycle lines in
  (* the store now holds the tail of the suite: its working set *)
  let tail n l = List.filteri (fun i _ -> i >= List.length l - n) l in
  let cycle3 = run_cycle (tail bound lines) in
  let rebuilt_identical =
    List.for_all2
      (fun c1 c2 -> strip_volatile c1 = strip_volatile c2)
      cycle1 cycle2
  in
  if Json.enabled () then
    Json.point
      [
        ("kind", Json.String "serve_eviction_cycle");
        ("apps", Json.Int (List.length apps));
        ("store_max_entries", Json.Int bound);
        ("cycle1_hits", Json.Int (hits cycle1));
        ("cycle2_hits", Json.Int (hits cycle2));
        ("cycle3_hits", Json.Int (hits cycle3));
        ("rebuilt_identical", Json.Bool rebuilt_identical);
      ];
  Ccs.Table.print
    ~header:[ "cycle"; "requests"; "hits"; "note" ]
    ~rows:
      [
        [ "1 (cold)"; string_of_int (List.length cycle1);
          string_of_int (hits cycle1); "all builds" ];
        [ "2 (thrash)"; string_of_int (List.length cycle2);
          string_of_int (hits cycle2); "LRU thrash: bound < working set" ];
        [ "3 (tail)"; string_of_int (List.length cycle3);
          string_of_int (hits cycle3); "working set fits: all hits" ];
      ];
  note
    "every post-eviction rebuild bit-identical to the first build: %s"
    (if rebuilt_identical then "yes" else "NO")

(* One client process: [reqs] sequential round-trips with retry/backoff.
   Returns how many completed; the child reports it as its exit status
   (at most [reqs], well under 256). *)
let overload_client address line reqs seed =
  List.length
    (List.filter
       (fun i ->
         match
           Ccs_serve.Server.request_retry ~retries:8 ~backoff_ms:5
             ~timeout_ms:10_000 ~seed:(seed + i) address line
         with
         | r -> response_field r "ok" = Some (Ccs.Json.Bool true)
         | exception _ -> false)
       (List.init reqs (fun i -> i + 1)))

let e25_overload_arm ~arm ~max_inflight ~clients ~reqs =
  let state = fresh_state (Printf.sprintf "e25-%s" arm) in
  Fun.protect ~finally:(fun () -> remove_tree state) @@ fun () ->
  Unix.mkdir state 0o755;
  let sock = Filename.concat state "d.sock" in
  let address = Ccs_serve.Server.Unix_socket sock in
  let config =
    {
      (Ccs_serve.Server.default_config ~address
         ~dir:(Filename.concat state "serve"))
      with
      Ccs_serve.Server.workers = 1;
      max_inflight;
      retry_after_ms = 5;
    }
  in
  flush stdout;
  flush stderr;
  let daemon =
    match Unix.fork () with
    | 0 ->
        (try Ccs_serve.Server.run config with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill daemon Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] daemon) with Unix.Unix_error _ -> ())
  @@ fun () ->
  let rec wait n =
    if n = 0 then failwith "daemon socket never appeared";
    if not (Sys.file_exists sock) then begin
      Unix.sleepf 0.05;
      wait (n - 1)
    end
  in
  wait 200;
  let g = Ccs.Generators.uniform_pipeline ~n:6 ~state:64 () in
  let line = plan_request g 2048 16 in
  (* warm the store so the arms measure serving, not one plan build *)
  ignore (Ccs_serve.Server.request_retry ~retries:8 ~backoff_ms:5 address line);
  let kids =
    List.init clients (fun i ->
        flush stdout;
        flush stderr;
        match Unix.fork () with
        | 0 ->
            Unix._exit
              (try overload_client address line reqs ((i * 7919) + 17)
               with _ -> 0)
        | pid -> pid)
  in
  let completed =
    List.fold_left
      (fun acc pid ->
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED n -> acc + n
        | _ -> acc)
      0 kids
  in
  let total = clients * reqs in
  if Json.enabled () then
    Json.point
      [
        ("kind", Json.String "serve_overload");
        ("arm", Json.String arm);
        ("max_inflight", Json.Int max_inflight);
        ("clients", Json.Int clients);
        ("requests", Json.Int total);
        ("completed", Json.Int completed);
        ("lost", Json.Int (total - completed));
      ];
  [
    arm;
    string_of_int max_inflight;
    string_of_int total;
    string_of_int completed;
    string_of_int (total - completed);
  ]

let e25 () =
  section "E25-serve" "serve hardening: bounded store + overload shedding";
  e25_eviction_cycle ();
  let clients = 6 and reqs = 10 in
  let rows =
    [
      e25_overload_arm ~arm:"no-shed" ~max_inflight:0 ~clients ~reqs;
      e25_overload_arm ~arm:"shed" ~max_inflight:2 ~clients ~reqs;
    ]
  in
  Ccs.Table.print
    ~header:[ "arm"; "max_inflight"; "sent"; "completed"; "lost" ]
    ~rows;
  note
    "with shedding, excess clients get structured overloaded answers and \
     retry with jittered backoff: every request still completes (zero \
     lost), the daemon never queues silently"

(* E26: serve tracing overhead.  For every app in the suite, the same
   cold+warm request pair is driven through two inline daemons — one
   with tracing off (the default) and one with per-stage span recording
   on.  The observability contract gates the diff exactly: the traced
   responses must be bit-identical to the untraced ones (modulo the
   volatile cached/elapsed_us/trace_id fields, with the client-supplied
   trace_id echoed by both arms), and the cache hit/miss counters read
   back from each daemon's registry must agree — tracing must never
   change what the daemon computes, only record when it happened.
   perfbench/ (obs.trace_overhead_share) times what the spans cost. *)

let e26 () =
  section "E26-serve" "serve tracing overhead (spans on vs off)";
  let m = 2048 and b = 16 in
  let arm ~tracing app g =
    let state = fresh_state (Printf.sprintf "e26-%s" app) in
    Fun.protect ~finally:(fun () -> remove_tree state) @@ fun () ->
    let daemon =
      Ccs_serve.Server.make
        {
          (Ccs_serve.Server.default_config
             ~address:(Ccs_serve.Server.Unix_socket "/nonexistent")
             ~dir:state)
          with
          Ccs_serve.Server.tracing;
        }
    in
    let line =
      Ccs.Json.to_string
        (Ccs.Json.Obj
           [
             ("op", Ccs.Json.String "plan");
             ("graph", Ccs.Json.String (Ccs.Serial.to_text g));
             ("cache_words", Ccs.Json.Int m);
             ("block_words", Ccs.Json.Int b);
             ("trace_id", Ccs.Json.String ("e26-" ^ app));
           ])
    in
    let cold = Ccs_serve.Server.handle_line daemon line in
    let warm = Ccs_serve.Server.handle_line daemon line in
    let counter name =
      Option.value
        (Ccs_serve.Server.metric_value daemon name)
        ~default:(-1)
    in
    (cold, warm, counter "ccs_serve_cache_misses_total",
     counter "ccs_serve_cache_hits_total")
  in
  let rows =
    List.map
      (fun entry ->
        let app = entry.Ccs_apps.Suite.name in
        let g = entry.Ccs_apps.Suite.graph () in
        let cold_off, warm_off, miss_off, hit_off = arm ~tracing:false app g in
        let cold_on, warm_on, miss_on, hit_on = arm ~tracing:true app g in
        let identical =
          strip_volatile cold_off = strip_volatile cold_on
          && strip_volatile warm_off = strip_volatile warm_on
        in
        let echoed =
          response_field cold_on "trace_id"
          = Some (Ccs.Json.String ("e26-" ^ app))
          && response_field cold_off "trace_id"
             = Some (Ccs.Json.String ("e26-" ^ app))
        in
        let counters_equal = miss_off = miss_on && hit_off = hit_on in
        if Json.enabled () then
          Json.point
            [
              ("kind", Json.String "serve_tracing_overhead");
              ("graph", Json.String app);
              ("m", Json.Int m);
              ("b", Json.Int b);
              ("identical", Json.Bool identical);
              ("trace_id_echoed", Json.Bool echoed);
              ("counters_equal", Json.Bool counters_equal);
              ("cache_misses", Json.Int miss_on);
              ("cache_hits", Json.Int hit_on);
            ];
        [
          app;
          string_of_int miss_on;
          string_of_int hit_on;
          (if identical then "yes" else "NO");
          (if counters_equal then "yes" else "NO");
        ])
      Ccs_apps.Suite.all
  in
  Ccs.Table.print
    ~header:[ "app"; "misses"; "hits"; "identical"; "counters" ]
    ~rows;
  note
    "tracing is observation only: responses bit-identical and cache \
     hit/miss counters exactly equal with spans on or off"
