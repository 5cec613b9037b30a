(* The scheduling daemon, from the protocol up: request parsing,
   composite cache keys, the persistent plan cache's framing/mismatch
   discipline, the request pipeline (driven through handle_line, no
   sockets), and a forked-daemon soak test — concurrent clients over a
   Unix socket, responses bit-identical to single-shot planning, metrics
   accounting exact, malformed lines answered structurally without
   dropping the connection, clean SIGTERM shutdown. *)

module E = Ccs.Error
module Json = Ccs.Json
module Srv = Ccs_serve.Server
module Proto = Ccs_serve.Protocol
module Cache = Ccs_serve.Plan_cache

let tmp_dir () =
  let path = Filename.temp_file "ccs-serve" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let plan_line ?(m = 2048) ?(b = 16) ?ways ?capacities ?(dry_run = false)
    ?trace_id graph =
  let fields =
    [
      ("op", Json.String "plan");
      ("graph", Json.String graph);
      ("cache_words", Json.Int m);
      ("block_words", Json.Int b);
    ]
    @ (match ways with None -> [] | Some w -> [ ("ways", Json.Int w) ])
    @ (match capacities with
      | None -> []
      | Some caps ->
          [ ("capacities", Json.List (List.map (fun c -> Json.Int c) caps)) ])
    @ (if dry_run then [ ("dry_run", Json.Bool true) ] else [])
    @
    match trace_id with
    | None -> []
    | Some id -> [ ("trace_id", Json.String id) ]
  in
  Json.to_string (Json.Obj fields)

let app_graph name =
  match Ccs_apps.Suite.find name with
  | Some entry -> Ccs.Serial.to_text (entry.Ccs_apps.Suite.graph ())
  | None -> Alcotest.failf "unknown app %s" name

let error_code line =
  match Json.of_string line with
  | Ok v -> (
      match Option.bind (Json.member "error" v) (Json.member "code") with
      | Some (Json.String c) -> Some c
      | _ -> None)
  | Error _ -> None

let str_field line name =
  match Json.of_string line with
  | Ok v -> Option.bind (Json.member name v) Json.to_str
  | Error _ -> None

let is_cached line =
  match Json.of_string line with
  | Ok v -> Json.member "cached" v = Some (Json.Bool true)
  | Error _ -> false

let is_ok line =
  match Json.of_string line with
  | Ok v -> Json.member "ok" v = Some (Json.Bool true)
  | Error _ -> false

(* Everything except the hit/miss flag and the latency must be
   byte-identical between a cold build and a cache hit. *)
let normalize line =
  match Json.of_string line with
  | Ok (Json.Obj fields) ->
      Json.to_string
        (Json.Obj
           (List.filter
              (fun (k, _) ->
                k <> "cached" && k <> "elapsed_us" && k <> "trace_id")
              fields))
  | Ok _ | Error _ -> Alcotest.failf "unparseable response %s" line

let make_daemon () =
  Srv.make
    (Srv.default_config ~address:(Srv.Unix_socket "/nonexistent")
       ~dir:(tmp_dir ()))

(* --- protocol -------------------------------------------------------------- *)

let check_invalid name line =
  match Proto.parse_request line with
  | Error (E.Request_invalid _) -> ()
  | Error e -> Alcotest.failf "%s: wrong error %s" name (E.to_string e)
  | Ok _ -> Alcotest.failf "%s: parsed" name

let test_parse_rejects () =
  check_invalid "garbage" "this is not json";
  check_invalid "non-object" "[1,2,3]";
  check_invalid "no op" "{}";
  check_invalid "unknown op" {|{"op":"nope"}|};
  check_invalid "mistyped op" {|{"op":7}|};
  check_invalid "plan without graph" {|{"op":"plan","cache_words":256}|};
  check_invalid "plan without cache"
    {|{"op":"plan","graph":"module a 1 1 1\n"}|};
  check_invalid "mistyped capacities"
    {|{"op":"plan","graph":"g","cache_words":256,"capacities":["x"]}|};
  check_invalid "mistyped dry_run"
    {|{"op":"plan","graph":"g","cache_words":256,"dry_run":3}|}

let test_parse_plan () =
  match Proto.parse_request (plan_line ~ways:2 ~capacities:[ 4; 4 ] "G") with
  | Ok (Proto.Plan r) ->
      Alcotest.(check string) "graph" "G" r.graph_text;
      Alcotest.(check int) "m" 2048 r.cache_words;
      Alcotest.(check int) "b" 16 r.block_words;
      Alcotest.(check (option int)) "ways" (Some 2) r.ways;
      Alcotest.(check bool) "caps" true (r.capacities = Some [| 4; 4 |]);
      Alcotest.(check bool) "dry_run" false r.dry_run
  | Ok Proto.Ping -> Alcotest.fail "parsed as ping"
  | Error e -> Alcotest.failf "rejected: %s" (E.to_string e)

let test_parse_ping () =
  match Proto.parse_request {|{"op":"ping"}|} with
  | Ok Proto.Ping -> ()
  | _ -> Alcotest.fail "ping did not parse"

(* --- plan keys ------------------------------------------------------------- *)

let key_fixture () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:8 () in
  let cache = Ccs.Cache.config ~size_words:256 ~block_words:16 () in
  Ccs.Plan_key.of_graph g ~cache ~capacities:[| 4; 4; 4 |] ~planner_version:1

let expect_mismatch field expected found =
  match Ccs.Plan_key.check ~path:"k" ~expected ~found with
  | Error (E.Checkpoint_mismatch m) ->
      Alcotest.(check string) "field" field m.field
  | Error e -> Alcotest.failf "wrong error %s" (E.to_string e)
  | Ok () -> Alcotest.fail "mismatch accepted"

let test_key_mismatch_fields () =
  let k = key_fixture () in
  expect_mismatch "graph" k { k with graph_digest = "0000" };
  expect_mismatch "cache" k
    { k with cache_config = { k.cache_config with size_words = 512 } };
  expect_mismatch "capacities" k { k with capacities = [| 4; 4; 8 |] };
  expect_mismatch "planner version" k { k with planner_version = 2 };
  match Ccs.Plan_key.check ~path:"k" ~expected:k ~found:k with
  | Ok () -> ()
  | Error e -> Alcotest.failf "equal key rejected: %s" (E.to_string e)

let test_key_digest_separates () =
  let k = key_fixture () in
  let digests =
    [
      Ccs.Plan_key.digest k;
      Ccs.Plan_key.digest { k with graph_digest = "0000" };
      Ccs.Plan_key.digest
        { k with cache_config = { k.cache_config with size_words = 512 } };
      Ccs.Plan_key.digest { k with capacities = [||] };
      Ccs.Plan_key.digest { k with planner_version = 2 };
    ]
  in
  Alcotest.(check int)
    "all distinct"
    (List.length digests)
    (List.length (List.sort_uniq String.compare digests))

(* --- plan cache ------------------------------------------------------------ *)

let artifact_fixture () =
  {
    Proto.plan_name = "partitioned-batch-T64";
    batch = 64;
    components = [| 0; 0; 1; 1 |];
    capacities = [| 4; 4; 4 |];
    period =
      Ccs.Schedule.Seq
        [
          Ccs.Schedule.Repeat (64, Ccs.Schedule.Fire 0);
          Ccs.Schedule.Fire 1;
          Ccs.Schedule.Repeat
            (2, Ccs.Schedule.Seq [ Ccs.Schedule.Fire 2; Ccs.Schedule.Fire 3 ]);
        ];
    predicted_mpi = 0.125;
    bandwidth_per_input = 2.5;
    buffer_words = 12;
  }

let test_cache_roundtrip () =
  let dir = tmp_dir () in
  let key = key_fixture () in
  let a = artifact_fixture () in
  (match Cache.lookup ~dir ~key with
  | Ok None -> ()
  | _ -> Alcotest.fail "empty cache should miss");
  Cache.store ~dir ~key a;
  match Cache.lookup ~dir ~key with
  | Ok (Some b) ->
      Alcotest.(check string) "name" a.Proto.plan_name b.Proto.plan_name;
      Alcotest.(check int) "batch" a.Proto.batch b.Proto.batch;
      Alcotest.(check bool)
        "components" true
        (a.Proto.components = b.Proto.components);
      Alcotest.(check bool)
        "capacities" true
        (a.Proto.capacities = b.Proto.capacities);
      Alcotest.(check bool)
        "period" true
        (Sdf_oracle.equivalent a.Proto.period b.Proto.period);
      Alcotest.(check (float 0.)) "mpi" a.Proto.predicted_mpi
        b.Proto.predicted_mpi;
      Alcotest.(check (float 0.))
        "bw" a.Proto.bandwidth_per_input b.Proto.bandwidth_per_input;
      Alcotest.(check int) "buffer" a.Proto.buffer_words b.Proto.buffer_words
  | Ok None -> Alcotest.fail "stored record missed"
  | Error e -> Alcotest.failf "lookup failed: %s" (E.to_string e)

let test_cache_rejects_corruption () =
  let dir = tmp_dir () in
  let key = key_fixture () in
  Cache.store ~dir ~key (artifact_fixture ());
  let path = Cache.path ~dir key in
  let bytes =
    In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string
  in
  Bytes.set bytes
    (Bytes.length bytes - 3)
    (Char.chr (Char.code (Bytes.get bytes (Bytes.length bytes - 3)) lxor 0x40));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc bytes);
  match Cache.lookup ~dir ~key with
  | Error (E.Checkpoint_corrupt _) -> ()
  | Error e -> Alcotest.failf "wrong error %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "corrupt record served"

let test_cache_rejects_renamed_record () =
  (* A record renamed onto another key's filename (or a digest collision)
     must be rejected by the embedded key, naming the differing field. *)
  let dir = tmp_dir () in
  let key = key_fixture () in
  let other =
    { key with cache_config = { key.cache_config with size_words = 512 } }
  in
  Cache.store ~dir ~key (artifact_fixture ());
  Sys.rename (Cache.path ~dir key) (Cache.path ~dir other);
  match Cache.lookup ~dir ~key:other with
  | Error (E.Checkpoint_mismatch m) ->
      Alcotest.(check string) "field" "cache" m.field
  | Error e -> Alcotest.failf "wrong error %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "mis-keyed record served"

(* --- request pipeline (no sockets) ----------------------------------------- *)

(* The plan key of every suite app at M=2048, B=16: the golden of
   [Plan_key] derivation (graph digest, cache config, capacities, planner
   version).  A changed key makes every stored plan miss, so it must be
   deliberate, such as a [planner_version] bump. *)
let suite_keys =
  [
    ("fm-radio", "c88fa9ec44f06096e6c2268965c0899d");
    ("fft", "5bd1b213538ef2218c1aad5aef232ecc");
    ("beamformer", "1ab027326b8cb604949fa824345183fe");
    ("filterbank", "a64869e0da8d9beddde5fd60b88cbb3e");
    ("bitonic", "77957627a12a4ead0754fe7fe9e7cfcc");
    ("des", "81649a436bc25bd163c1c32e8a187e96");
    ("vocoder", "ded61274a20df9a2e0d643bd39f1cca7");
    ("matmul", "71d66065eaac7a8b1a6184de0b0473e5");
    ("radar", "be566e6cfa9ac4856f2e0d23ef105838");
    ("ofdm", "988975a906fd6b8a4a7b1f059ea9b2be");
    ("dct-codec", "6ef8fc12cfb7c9706e91835121d8ff44");
    ("mp3", "e3480edfeadcbcb7a41ee6305e9226a0");
  ]

let test_miss_then_hit_identical () =
  let miss_then_hit label line =
    let t = make_daemon () in
    let r1 = Srv.handle_line t line in
    let r2 = Srv.handle_line t line in
    Alcotest.(check bool) (label ^ " first ok") true (is_ok r1);
    Alcotest.(check bool) (label ^ " first is a miss") false (is_cached r1);
    Alcotest.(check bool) (label ^ " second is a hit") true (is_cached r2);
    Alcotest.(check string) (label ^ " bit-identical") (normalize r1)
      (normalize r2);
    r1
  in
  ignore
    (miss_then_hit "dry run" (plan_line ~dry_run:true (app_graph "fm-radio")));
  List.iter
    (fun (app, key) ->
      let r = miss_then_hit app (plan_line (app_graph app)) in
      Alcotest.(check (option string)) (app ^ " key") (Some key)
        (str_field r "key"))
    suite_keys

let test_config_change_misses () =
  (* The regression the composite key exists for: changing any cache
     parameter must miss, never serve the other configuration's plan. *)
  let t = make_daemon () in
  let graph = app_graph "fft" in
  let r1 = Srv.handle_line t (plan_line ~m:2048 graph) in
  Alcotest.(check bool) "cold miss" false (is_cached r1);
  Alcotest.(check bool) "same config hits" true
    (is_cached (Srv.handle_line t (plan_line ~m:2048 graph)));
  Alcotest.(check bool) "cache size change misses" false
    (is_cached (Srv.handle_line t (plan_line ~m:4096 graph)));
  Alcotest.(check bool) "block size change misses" false
    (is_cached (Srv.handle_line t (plan_line ~m:2048 ~b:32 graph)));
  Alcotest.(check bool) "associativity change misses" false
    (is_cached (Srv.handle_line t (plan_line ~m:2048 ~ways:2 graph)));
  Alcotest.(check bool) "original config still hits" true
    (is_cached (Srv.handle_line t (plan_line ~m:2048 graph)))

let test_pinned_capacities () =
  let t = make_daemon () in
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:8 () in
  let graph = Ccs.Serial.to_text g in
  let caps = [ 8; 8; 8 ] in
  let r = Srv.handle_line t (plan_line ~m:256 ~capacities:caps graph) in
  Alcotest.(check bool) "ok" true (is_ok r);
  (match Json.of_string r with
  | Ok v ->
      let got =
        Option.bind (Json.member "plan" v) (Json.member "capacities")
      in
      Alcotest.(check bool)
        "capacities pinned" true
        (got = Some (Json.List (List.map (fun c -> Json.Int c) caps)))
  | Error _ -> Alcotest.fail "unparseable");
  Alcotest.(check bool) "pinned request hits its own cache line" true
    (is_cached (Srv.handle_line t (plan_line ~m:256 ~capacities:caps graph)));
  Alcotest.(check bool) "unpinned is a different cache line" false
    (is_cached (Srv.handle_line t (plan_line ~m:256 graph)))

let test_structured_errors () =
  let t = make_daemon () in
  let check name expected line =
    match error_code (Srv.handle_line t line) with
    | Some code -> Alcotest.(check string) name expected code
    | None -> Alcotest.failf "%s: no structured error" name
  in
  check "malformed line" "request-invalid" "{{{";
  check "bad graph text" "parse"
    (plan_line "module a 1 1\nthis is not a graph\n");
  check "bad cache numbers" "cache-config-invalid"
    (plan_line ~m:0 (app_graph "fm-radio"));
  check "bad associativity" "cache-config-invalid"
    (plan_line ~ways:100000 (app_graph "fm-radio"));
  check "wrong capacity count" "request-invalid"
    (plan_line ~capacities:[ 1 ] (app_graph "fm-radio"))

let test_dry_run_matches_codegen () =
  let t = make_daemon () in
  let name = "fm-radio" in
  let r = Srv.handle_line t (plan_line ~dry_run:true (app_graph name)) in
  let dry = Json.of_string r |> Result.get_ok |> Json.member "dry_run" in
  let field f =
    Option.bind dry (Json.member f) |> Option.get |> Json.to_float |> Option.get
  in
  (* The same plan lowered locally must reproduce the daemon's answer. *)
  let entry = Option.get (Ccs_apps.Suite.find name) in
  let g = entry.Ccs_apps.Suite.graph () in
  let cfg = Ccs.Config.make ~cache_words:2048 ~block_words:16 () in
  let choice = Ccs.Auto.plan ~dynamic:false g cfg in
  let lowered =
    Ccs.Lowering.exn g ~plan:choice.Ccs.Auto.plan
      ~cache:(Ccs.Config.cache_config cfg)
  in
  let c = Ccs.Compiled.create lowered in
  Ccs.Compiled.run_periods c 1;
  Alcotest.(check (float 0.))
    "outputs"
    (float_of_int (Ccs.Compiled.outputs c))
    (field "outputs");
  Alcotest.(check (float 0.)) "checksum" (Ccs.Compiled.checksum c)
    (field "checksum")

let metric page name =
  let prefix = name ^ " " in
  String.split_on_char '\n' page
  |> List.find_map (fun l ->
         if String.starts_with ~prefix l then
           int_of_string_opt
             (String.sub l (String.length prefix)
                (String.length l - String.length prefix))
         else None)
  |> Option.value ~default:(-1)

let test_metrics_accounting () =
  let t = make_daemon () in
  let graph = app_graph "bitonic" in
  ignore (Srv.handle_line t (plan_line graph));
  ignore (Srv.handle_line t (plan_line graph));
  ignore (Srv.handle_line t (plan_line graph));
  ignore (Srv.handle_line t "not json");
  ignore (Srv.handle_line t {|{"op":"ping"}|});
  let page = Srv.scrape t in
  Alcotest.(check int) "requests" 5 (metric page "ccs_serve_requests_total");
  Alcotest.(check int) "misses" 1 (metric page "ccs_serve_cache_misses_total");
  Alcotest.(check int) "hits" 2 (metric page "ccs_serve_cache_hits_total");
  Alcotest.(check int) "errors" 1 (metric page "ccs_serve_errors_total");
  Alcotest.(check int) "plan builds" 1
    (metric page "ccs_serve_plan_builds_total");
  Alcotest.(check int) "request latency count" 5
    (metric page "ccs_serve_request_us_count");
  Alcotest.(check int) "plan latency count" 1
    (metric page "ccs_serve_plan_us_count")

(* --- the soak test: a real forked daemon ----------------------------------- *)

(* Poll with a real connection, not just the socket file: the file
   appears at [bind], a moment before [listen] — a connect in that
   window is refused.  The probe sends EOF and waits for the daemon to
   close its end, which it does only after dropping the connection: when
   this returns, the probe no longer holds an in-flight slot. *)
let wait_for_socket sock =
  let ready () =
    Sys.file_exists sock
    &&
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> (
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
        match Unix.read fd (Bytes.create 1) 0 1 with
        | n -> n = 0
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            false)
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
        false
  in
  let rec go n =
    if ready () then ()
    else if n = 0 then Alcotest.fail "daemon socket never came up"
    else (
      Unix.sleepf 0.05;
      go (n - 1))
  in
  go 200

let http_get address target =
  let fd = Srv.connect address in
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  output_string oc (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" target);
  flush oc;
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Buffer.contents buf

let test_soak () =
  let dir = tmp_dir () in
  let sock = Filename.concat dir "d.sock" in
  let config =
    {
      (Srv.default_config ~address:(Srv.Unix_socket sock)
         ~dir:(Filename.concat dir "state"))
      with
      Srv.workers = 2;
    }
  in
  flush stdout;
  flush stderr;
  let server_pid =
    match Unix.fork () with
    | 0 ->
        (try Srv.run config with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill server_pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] server_pid) with Unix.Unix_error _ -> ())
  @@ fun () ->
  wait_for_socket sock;
  let apps = Ccs_apps.Suite.names in
  let lines = List.map (fun name -> plan_line (app_graph name)) apps in
  (* Round 1: every app once; all misses (cold cache). *)
  let round1 = List.map (Srv.request config.Srv.address) lines in
  List.iter
    (fun r ->
      Alcotest.(check bool) "round-1 ok" true (is_ok r);
      Alcotest.(check bool) "round-1 miss" false (is_cached r))
    round1;
  (* Round 2: concurrent clients replaying the full suite; every response
     must be a hit, bit-identical to round 1's build. *)
  let nclients = 4 in
  let out i = Filename.concat dir (Printf.sprintf "client-%d.out" i) in
  let spawn i =
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        let ok =
          try
            let oc = open_out (out i) in
            List.iter
              (fun line ->
                output_string oc (Srv.request config.Srv.address line);
                output_char oc '\n')
              lines;
            close_out oc;
            true
          with _ -> false
        in
        Unix._exit (if ok then 0 else 1)
    | pid -> pid
  in
  let clients = List.init nclients spawn in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "soak client failed")
    clients;
  let expected = List.map normalize round1 in
  List.iter
    (fun i ->
      let got =
        In_channel.with_open_text (out i) In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "client answered all" (List.length apps)
        (List.length got);
      List.iter2
        (fun want r ->
          Alcotest.(check bool) "round-2 hit" true (is_cached r);
          Alcotest.(check string) "round-2 identical" want (normalize r))
        expected got)
    (List.init nclients Fun.id);
  (* Malformed lines: structured error, connection stays usable. *)
  let fd = Srv.connect config.Srv.address in
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  output_string oc "this is not json\n";
  flush oc;
  let r = input_line ic in
  Alcotest.(check (option string))
    "malformed -> structured error" (Some "request-invalid") (error_code r);
  output_string oc "{\"op\":\"ping\"}\n";
  flush oc;
  Alcotest.(check bool) "connection survives" true (is_ok (input_line ic));
  Unix.close fd;
  (* A config change is a miss even with a hot cache. *)
  let r =
    Srv.request config.Srv.address (plan_line ~m:4096 (app_graph "fm-radio"))
  in
  Alcotest.(check bool) "config change misses" false (is_cached r);
  (* Metrics, merged across both workers, account for every request:
     12 misses + 48 hits + 1 miss (config change) + 1 error + 1 ping. *)
  let page = http_get config.Srv.address "/metrics" in
  let n = metric page in
  Alcotest.(check int) "requests" 63 (n "ccs_serve_requests_total");
  Alcotest.(check int) "hits" 48 (n "ccs_serve_cache_hits_total");
  Alcotest.(check int) "misses" 13 (n "ccs_serve_cache_misses_total");
  Alcotest.(check int) "errors" 1 (n "ccs_serve_errors_total");
  Alcotest.(check int)
    "hits + misses + errors + pings = requests"
    (n "ccs_serve_requests_total")
    (n "ccs_serve_cache_hits_total"
    + n "ccs_serve_cache_misses_total"
    + n "ccs_serve_errors_total"
    + 1);
  (* Clean shutdown: SIGTERM -> exit 0, socket file removed. *)
  Unix.kill server_pid Sys.sigterm;
  (match Unix.waitpid [] server_pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> Alcotest.fail "daemon did not exit cleanly on SIGTERM");
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists sock)

(* --- the bounded plan store ------------------------------------------------ *)

let mk_key i =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:8 () in
  let cache = Ccs.Cache.config ~size_words:256 ~block_words:16 () in
  Ccs.Plan_key.of_graph g ~cache ~capacities:[| 4; 4; 4 + i |]
    ~planner_version:1

let read_bin p = In_channel.with_open_bin p In_channel.input_all

let plan_files dir =
  if Sys.file_exists dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ccsplan")
  else []

(* Order records explicitly: each record's mtime set [age] seconds in
   the past, so eviction order never depends on the filesystem's
   timestamp granularity.  A hit or store afterwards stamps "now". *)
let age_record dir key age =
  let t = Unix.gettimeofday () -. age in
  Unix.utimes (Cache.path ~dir key) t t

let test_store_entry_bound_and_rebuild () =
  let dir = tmp_dir () in
  let a = artifact_fixture () in
  let b =
    Cache.Bounded.create ~dir
      ~bounds:{ Cache.Bounded.max_bytes = 0; max_entries = 2 }
      ()
  in
  Cache.Bounded.store b ~key:(mk_key 0) a;
  age_record dir (mk_key 0) 30.;
  Cache.Bounded.store b ~key:(mk_key 1) a;
  age_record dir (mk_key 1) 20.;
  let k1_bytes = read_bin (Cache.path ~dir (mk_key 1)) in
  (* a hit bumps recency, so key 0 is most-recent again *)
  Alcotest.(check bool)
    "hit" true
    (Cache.Bounded.lookup b ~key:(mk_key 0) <> None);
  Cache.Bounded.store b ~key:(mk_key 2) a;
  (* over the bound: the least-recently-used record (key 1) went *)
  Alcotest.(check int) "entries" 2 (Cache.Bounded.entries b);
  Alcotest.(check int) "evictions" 1 (Cache.Bounded.evictions b);
  Alcotest.(check int) "files" 2 (List.length (plan_files dir));
  Alcotest.(check bool)
    "evicted misses" true
    (Cache.Bounded.lookup b ~key:(mk_key 1) = None);
  Alcotest.(check bool)
    "survivor hits" true
    (Cache.Bounded.lookup b ~key:(mk_key 2) <> None);
  (* rebuilding the evicted record reproduces it bit-identically, and
     evicts key 0, now the older survivor *)
  age_record dir (mk_key 0) 10.;
  age_record dir (mk_key 2) 5.;
  Cache.Bounded.store b ~key:(mk_key 1) a;
  Alcotest.(check int) "still bounded" 2 (Cache.Bounded.entries b);
  Alcotest.(check bool)
    "oldest went" false
    (Sys.file_exists (Cache.path ~dir (mk_key 0)));
  Alcotest.(check string)
    "rebuilt bit-identical" k1_bytes
    (read_bin (Cache.path ~dir (mk_key 1)))

let test_store_byte_bound () =
  let dir = tmp_dir () in
  let a = artifact_fixture () in
  (* measure one record, then bound the store to just over two of them *)
  Cache.store ~dir ~key:(mk_key 0) a;
  age_record dir (mk_key 0) 30.;
  let record = String.length (read_bin (Cache.path ~dir (mk_key 0))) in
  let bound = (2 * record) + (record / 2) in
  let b =
    Cache.Bounded.create ~dir
      ~bounds:{ Cache.Bounded.max_bytes = bound; max_entries = 0 }
      ()
  in
  Cache.Bounded.store b ~key:(mk_key 1) a;
  age_record dir (mk_key 1) 20.;
  Cache.Bounded.store b ~key:(mk_key 2) a;
  Alcotest.(check bool)
    "bytes within bound" true
    (Cache.Bounded.bytes b <= bound);
  Alcotest.(check int) "entries" 2 (Cache.Bounded.entries b);
  Alcotest.(check bool)
    "oldest evicted" true
    (Cache.Bounded.lookup b ~key:(mk_key 0) = None)

(* The per-worker hot cache is LRU, not FIFO: with room for two plans,
   A B A C evicts B.  With the disk store emptied, only the hot cache
   can answer, so [cached] shows exactly who survived. *)
let test_hot_cache_lru () =
  let dir = tmp_dir () in
  let t =
    Srv.make
      {
        (Srv.default_config ~address:(Srv.Unix_socket "/nonexistent") ~dir)
        with
        Srv.hot_cache = 2;
      }
  in
  let plan app = is_cached (Srv.handle_line t (plan_line (app_graph app))) in
  Alcotest.(check bool) "build A" false (plan "fm-radio");
  Alcotest.(check bool) "build B" false (plan "des");
  Alcotest.(check bool) "hit A" true (plan "fm-radio");
  Alcotest.(check bool) "build C" false (plan "fft");
  let plans = Filename.concat dir "plans" in
  List.iter (fun f -> Sys.remove (Filename.concat plans f)) (plan_files plans);
  Alcotest.(check bool) "A survives" true (plan "fm-radio");
  Alcotest.(check bool) "C survives" true (plan "fft");
  Alcotest.(check bool) "B evicted" false (plan "des")

let truncate_file p =
  let size = (Unix.stat p).Unix.st_size in
  let fd = Unix.openfile p [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (size / 2);
  Unix.close fd

let test_store_sweep_quarantines () =
  let dir = tmp_dir () in
  let a = artifact_fixture () in
  Cache.store ~dir ~key:(mk_key 0) a;
  Cache.store ~dir ~key:(mk_key 1) a;
  truncate_file (Cache.path ~dir (mk_key 0));
  let b = Cache.Bounded.create ~dir ~bounds:Cache.Bounded.unbounded () in
  Alcotest.(check int) "quarantined" 1 (Cache.Bounded.quarantined b);
  Alcotest.(check int) "kept" 1 (Cache.Bounded.entries b);
  Alcotest.(check int) "quarantine dir" 1
    (Array.length (Sys.readdir (Filename.concat dir "quarantine")));
  Alcotest.(check bool)
    "torn record misses" true
    (Cache.Bounded.lookup b ~key:(mk_key 0) = None);
  Alcotest.(check bool)
    "healthy record hits" true
    (Cache.Bounded.lookup b ~key:(mk_key 1) <> None);
  (* the caller rebuilds; the store is whole again *)
  Cache.Bounded.store b ~key:(mk_key 0) a;
  Alcotest.(check bool)
    "rebuilt record hits" true
    (Cache.Bounded.lookup b ~key:(mk_key 0) <> None)

let test_store_self_heals_at_lookup () =
  let dir = tmp_dir () in
  let a = artifact_fixture () in
  let b = Cache.Bounded.create ~dir ~bounds:Cache.Bounded.unbounded () in
  Cache.Bounded.store b ~key:(mk_key 0) a;
  let healthy = read_bin (Cache.path ~dir (mk_key 0)) in
  truncate_file (Cache.path ~dir (mk_key 0));
  (* a torn record reads as a miss (quarantined), never an error *)
  Alcotest.(check bool)
    "torn -> miss" true
    (Cache.Bounded.lookup b ~key:(mk_key 0) = None);
  Alcotest.(check int) "quarantined" 1 (Cache.Bounded.quarantined b);
  Cache.Bounded.store b ~key:(mk_key 0) a;
  Alcotest.(check string)
    "rebuilt bit-identical" healthy
    (read_bin (Cache.path ~dir (mk_key 0)))

(* --- protocol fuzzing ------------------------------------------------------ *)

(* Whatever bytes arrive, the daemon's core must answer with exactly one
   line of well-formed JSON carrying an "ok" verdict — never raise,
   never go silent. *)
let responds_structurally t line =
  let r = Srv.handle_line t line in
  (not (String.contains r '\n'))
  &&
  match Json.of_string r with
  | Ok v -> (
      match Json.member "ok" v with Some (Json.Bool _) -> true | _ -> false)
  | Error _ -> false

let fuzz_random_bytes =
  let t = lazy (make_daemon ()) in
  QCheck2.Test.make ~name:"random bytes get one structured answer" ~count:300
    QCheck2.Gen.(string_size ~gen:char (int_range 0 120))
    (fun s -> responds_structurally (Lazy.force t) s)

let fuzz_mutated_json =
  let t = lazy (make_daemon ()) in
  let base =
    plan_line ~m:256
      (Ccs.Serial.to_text (Ccs.Generators.uniform_pipeline ~n:4 ~state:8 ()))
  in
  let gen =
    QCheck2.Gen.(
      map2
        (fun i c ->
          let b = Bytes.of_string base in
          Bytes.set b (i mod Bytes.length b) c;
          Bytes.to_string b)
        (int_range 0 (String.length base - 1))
        char)
  in
  QCheck2.Test.make ~name:"mutated requests get one structured answer"
    ~count:200 gen
    (fun s -> responds_structurally (Lazy.force t) s)

(* --- live-daemon hardening ------------------------------------------------- *)

let ping = {|{"op":"ping"}|}

let with_daemon config sock f =
  flush stdout;
  flush stderr;
  let pid =
    match Unix.fork () with
    | 0 ->
        (try Srv.run config with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
  @@ fun () ->
  wait_for_socket sock;
  f pid

(* A metric from one published snapshot document (e.g. the parent's). *)
let file_metric path name =
  match
    In_channel.with_open_text path In_channel.input_all |> Json.of_string
  with
  | Error _ | (exception Sys_error _) -> None
  | Ok doc ->
      let section key =
        match Json.member key doc with
        | Some (Json.List items) ->
            List.find_map
              (fun it ->
                match (Json.member "name" it, Json.member "value" it) with
                | Some (Json.String n), Some v when n = name -> Json.to_int v
                | _ -> None)
              items
        | _ -> None
      in
      (match section "counters" with
      | Some v -> Some v
      | None -> section "gauges")

let test_deadline_slow_client () =
  let dir = tmp_dir () in
  let sock = Filename.concat dir "d.sock" in
  let config =
    {
      (Srv.default_config ~address:(Srv.Unix_socket sock)
         ~dir:(Filename.concat dir "state"))
      with
      Srv.deadline_ms = 200;
    }
  in
  with_daemon config sock @@ fun _ ->
  (* a stalled half-request gets a structured answer, then the close *)
  let fd = Srv.connect config.Srv.address in
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  output_string oc "{\"op";
  flush oc;
  let r = input_line ic in
  Alcotest.(check (option string))
    "deadline code" (Some "deadline-exceeded") (error_code r);
  (match input_line ic with
  | exception End_of_file -> ()
  | l -> Alcotest.failf "connection not closed, got %s" l);
  Unix.close fd;
  (* the worker is free again: a prompt request succeeds *)
  Alcotest.(check bool)
    "daemon alive" true
    (is_ok (Srv.request config.Srv.address ping))

let test_overload_shed () =
  let dir = tmp_dir () in
  let sock = Filename.concat dir "d.sock" in
  let config =
    {
      (Srv.default_config ~address:(Srv.Unix_socket sock)
         ~dir:(Filename.concat dir "state"))
      with
      Srv.max_inflight = 1;
      retry_after_ms = 7;
    }
  in
  with_daemon config sock @@ fun daemon ->
  (* one idle connection fills the worker; the next is shed.  The kernel
     queues connects in order and the one worker accepts them in that
     order, so [a] holds the slot before [b] is accepted. *)
  let a = Srv.connect config.Srv.address in
  let b = Srv.connect config.Srv.address in
  let ic = Unix.in_channel_of_descr b in
  let r = input_line ic in
  Alcotest.(check (option string)) "shed code" (Some "overloaded")
    (error_code r);
  (match Json.of_string r with
  | Ok v ->
      Alcotest.(check (option int))
        "retry hint" (Some 7)
        (Option.bind (Json.member "error" v) (fun e ->
             Option.bind (Json.member "retry_after_ms" e) Json.to_int))
  | Error _ -> Alcotest.fail "unparseable shed response");
  (match input_line ic with
  | exception End_of_file -> ()
  | l -> Alcotest.failf "shed connection not closed, got %s" l);
  Unix.close b;
  (* a retrying client rides out the contention window: the slot frees
     while it backs off, and the replay succeeds *)
  flush stdout;
  flush stderr;
  let client =
    match Unix.fork () with
    | 0 ->
        (* drop the inherited copy of [a]: the parent's close must be
           the one that frees the worker slot *)
        Unix.close a;
        (* distinct exit codes so a flake names its failure mode: 1 =
           retries exhausted on a non-ok response, 2 = a transport
           exception escaped the retry loop *)
        let code =
          match
            Srv.request_retry ~retries:8 ~backoff_ms:40 ~seed:1
              config.Srv.address ping
          with
          | r -> if is_ok r then 0 else 1
          | exception _ -> 2
        in
        Unix._exit code
    | pid -> pid
  in
  (* hold the slot until the client has been shed at least once: [b] was
     the first shed, and the worker publishes its snapshot on each one *)
  let snapshot =
    Filename.concat
      (Filename.concat (Filename.concat dir "state") "metrics")
      (Printf.sprintf "worker-%d.json" daemon)
  in
  let rec await n =
    match file_metric snapshot "ccs_serve_shed_total" with
    | Some shed when shed >= 2 -> ()
    | _ when n = 0 -> Alcotest.fail "retrying client was never shed"
    | _ ->
        Unix.sleepf 0.01;
        await (n - 1)
  in
  await 1000;
  Unix.close a;
  (match Unix.waitpid [] client with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n ->
      Alcotest.failf "retrying client never got through (exit %d: %s)" n
        (if n = 1 then "non-ok response after retries"
         else "transport exception")
  | _ -> Alcotest.fail "retrying client was signalled")

let test_breaker_quarantines_crash_loop () =
  let dir = tmp_dir () in
  let sock = Filename.concat dir "d.sock" in
  let state = Filename.concat dir "state" in
  let config =
    {
      (Srv.default_config ~address:(Srv.Unix_socket sock) ~dir:state) with
      Srv.workers = 1;
      chaos = Ccs.Fault.parse_env Serve "kill@0";
      min_uptime_ms = 600_000;
      (* every death is "rapid" *)
      breaker_limit = 2;
    }
  in
  with_daemon config sock @@ fun _ ->
  (* each worker dies right after its first response: death one is
     respawned (with backoff), death two trips the breaker *)
  Alcotest.(check bool)
    "first response" true
    (is_ok (Srv.request config.Srv.address ping));
  Alcotest.(check bool)
    "respawned worker answers" true
    (is_ok (Srv.request config.Srv.address ping));
  let parent = Filename.concat (Filename.concat state "metrics") "parent.json" in
  let rec await n =
    match file_metric parent "ccs_serve_workers_quarantined" with
    | Some 1 -> ()
    | _ when n = 0 -> Alcotest.fail "breaker never quarantined the slot"
    | _ ->
        Unix.sleepf 0.05;
        await (n - 1)
  in
  await 100;
  Alcotest.(check (option int))
    "one respawn before the breaker opened" (Some 1)
    (file_metric parent "ccs_serve_worker_restarts_total")

(* /healthz counts live workers only.  Every worker dies after its first
   response (kill@0), so two submits leave two dead workers' snapshots
   behind: the scrape keeps them (counters never go backwards), the
   probe must not count them. *)
let test_healthz_counts_live_workers () =
  let dir = tmp_dir () in
  let sock = Filename.concat dir "d.sock" in
  let state = Filename.concat dir "state" in
  let config =
    {
      (Srv.default_config ~address:(Srv.Unix_socket sock) ~dir:state) with
      Srv.workers = 2;
      chaos = Ccs.Fault.parse_env Serve "kill@0";
      min_uptime_ms = 0;
    }
  in
  with_daemon config sock @@ fun _ ->
  List.iteri
    (fun i app ->
      let r =
        Srv.request_retry ~retries:6 ~backoff_ms:20 ~timeout_ms:10_000 ~seed:i
          config.Srv.address (plan_line (app_graph app))
      in
      Alcotest.(check bool) (app ^ " ok") true (is_ok r))
    [ "fm-radio"; "des" ];
  let parent = Filename.concat (Filename.concat state "metrics") "parent.json" in
  let rec await what n ready =
    if not (ready ()) then
      if n = 0 then Alcotest.failf "timed out waiting for %s" what
      else (
        Unix.sleepf 0.05;
        await what (n - 1) ready)
  in
  await "two respawns" 200 (fun () ->
      match file_metric parent "ccs_serve_worker_restarts_total" with
      | Some r -> r >= 2
      | None -> false);
  await "/healthz to report 2 workers" 200 (fun () ->
      String.ends_with ~suffix:"\"workers\":2}\n"
        (http_get config.Srv.address "/healthz"));
  let snapshots =
    Sys.readdir (Filename.concat state "metrics")
    |> Array.to_list
    |> List.filter (fun f -> String.starts_with ~prefix:"worker-" f)
  in
  if List.length snapshots < 4 then
    Alcotest.failf "dead workers' snapshots were dropped: %d left"
      (List.length snapshots)

let test_live_fuzz_flood () =
  let dir = tmp_dir () in
  let sock = Filename.concat dir "d.sock" in
  let config =
    Srv.default_config ~address:(Srv.Unix_socket sock)
      ~dir:(Filename.concat dir "state")
  in
  with_daemon config sock @@ fun _ ->
  let fd = Srv.connect config.Srv.address in
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  (* a seeded flood of junk lines: every line gets exactly one
     structured error and the connection survives all of them *)
  let seed = ref 0xbadf00d in
  let next () =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed
  in
  let n = 40 in
  for _ = 1 to n do
    let len = 1 + (next () mod 40) in
    let line =
      String.init len (fun i ->
          if i = 0 then 'z'
          else
            match Char.chr (1 + (next () mod 255)) with
            | '\n' | '\r' -> ' '
            | c -> c)
    in
    output_string oc line;
    output_char oc '\n'
  done;
  flush oc;
  for i = 1 to n do
    let r = input_line ic in
    if error_code r = None then
      Alcotest.failf "flood line %d: unstructured answer %s" i r
  done;
  output_string oc (ping ^ "\n");
  flush oc;
  Alcotest.(check bool) "connection survives flood" true (is_ok (input_line ic));
  Unix.close fd

(* --- the daemon chaos soak ------------------------------------------------- *)

let test_chaos_soak () =
  let dir = tmp_dir () in
  let sock = Filename.concat dir "d.sock" in
  let state = Filename.concat dir "state" in
  let store_bound = 6 in
  let config =
    {
      (Srv.default_config ~address:(Srv.Unix_socket sock) ~dir:state) with
      Srv.workers = 2;
      chaos = Ccs.Fault.parse_env Serve "iofault@1:2,truncate@3,kill@5";
      store_max_entries = store_bound;
      min_uptime_ms = 0;
      (* chaos deaths are expected; never trip the breaker here *)
    }
  in
  (* the fault-free reference: the same requests through an inline
     daemon, no chaos, no bounds *)
  let reference =
    Srv.make
      (Srv.default_config ~address:(Srv.Unix_socket "/nonexistent")
         ~dir:(tmp_dir ()))
  in
  let apps = Ccs_apps.Suite.names in
  let lines = List.map (fun name -> plan_line (app_graph name)) apps in
  let expected = List.map (fun l -> normalize (Srv.handle_line reference l)) lines in
  with_daemon config sock @@ fun _ ->
  (* two full rounds under chaos: worker kills, suppressed stores, torn
     records, LRU eviction pressure (12 apps against a 6-record bound).
     Every request must get exactly one well-formed response, and every
     plan must be bit-identical to the fault-free run. *)
  List.iteri
    (fun round _ ->
      List.iteri
        (fun i (line, want) ->
          let r =
            Srv.request_retry ~retries:6 ~backoff_ms:20 ~timeout_ms:10_000
              ~seed:((round * 100) + i)
              config.Srv.address line
          in
          if not (is_ok r) then
            Alcotest.failf "round %d app %d: error response %s" round i r;
          Alcotest.(check string)
            (Printf.sprintf "round %d app %d bit-identical" round i)
            want (normalize r))
        (List.combine lines expected))
    [ 0; 1 ];
  (* the plan store never exceeds its configured bound *)
  let files = plan_files (Filename.concat state "plans") in
  if List.length files > store_bound then
    Alcotest.failf "store over bound: %d records" (List.length files);
  (* at least one chaos kill happened and was supervised back up:
     24 requests over 2 workers pigeonhole some worker past epoch 5 *)
  let parent = Filename.concat (Filename.concat state "metrics") "parent.json" in
  let rec await n =
    match file_metric parent "ccs_serve_worker_restarts_total" with
    | Some r when r >= 1 -> ()
    | _ when n = 0 -> Alcotest.fail "no worker restart was recorded"
    | _ ->
        Unix.sleepf 0.05;
        await (n - 1)
  in
  await 100

(* --- observability: spans, flight recorder, tracing ------------------------ *)

let test_span_ring () =
  let ring = Ccs.Span.create ~capacity:4 () in
  for i = 0 to 5 do
    Ccs.Span.record ring ~trace_id:"t" ~span_id:i ~parent:(-1)
      ~stage:(Printf.sprintf "s%d" i) ~start_us:(10 * i)
      ~end_us:((10 * i) + 5)
  done;
  Alcotest.(check int) "length capped at capacity" 4 (Ccs.Span.length ring);
  Alcotest.(check int) "total counts every record" 6 (Ccs.Span.total ring);
  Alcotest.(check int) "dropped = overflow" 2 (Ccs.Span.dropped ring);
  Alcotest.(check (list string))
    "window is the newest spans, oldest first"
    [ "s2"; "s3"; "s4"; "s5" ]
    (List.map (fun s -> s.Ccs.Span.stage) (Ccs.Span.to_list ring));
  Alcotest.(check int) "duration" 5
    (Ccs.Span.duration_us (List.hd (Ccs.Span.to_list ring)));
  Alcotest.(check bool) "fresh ids are distinct" true
    (Ccs.Span.fresh_id ring <> Ccs.Span.fresh_id ring)

let test_flight_roundtrip () =
  let fl = Ccs.Flight.create ~span_capacity:8 ~log_capacity:4 () in
  Ccs.Flight.note_log fl "one";
  Ccs.Flight.note_log fl "two";
  for i = 0 to 2 do
    Ccs.Span.record (Ccs.Flight.spans fl) ~trace_id:"t0" ~span_id:i
      ~parent:(if i = 0 then -1 else 0)
      ~stage:"parse" ~start_us:i ~end_us:(i + 7)
  done;
  let dir = Filename.concat (tmp_dir ()) "flight" in
  let path =
    Ccs.Flight.dump fl ~dir ~trigger:"unit-test" ~pid:42 ~at_us:99
  in
  Alcotest.(check string)
    "one file per (worker, trigger)" "worker-42-unit-test.ccsflight"
    (Filename.basename path);
  match Ccs.Flight.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" (E.to_string e)
  | Ok d ->
      Alcotest.(check string) "trigger" "unit-test" d.Ccs.Flight.trigger;
      Alcotest.(check int) "pid" 42 d.Ccs.Flight.pid;
      Alcotest.(check int) "at_us" 99 d.Ccs.Flight.at_us;
      Alcotest.(check int) "seq" 0 d.Ccs.Flight.seq;
      Alcotest.(check int) "no spans dropped" 0 d.Ccs.Flight.dropped_spans;
      Alcotest.(check (list string))
        "logs oldest first" [ "one"; "two" ] d.Ccs.Flight.logs;
      Alcotest.(check int) "spans" 3 (List.length d.Ccs.Flight.spans);
      let s = List.nth d.Ccs.Flight.spans 2 in
      Alcotest.(check string) "span trace id" "t0" s.Ccs.Span.trace_id;
      Alcotest.(check int) "span id" 2 s.Ccs.Span.span_id;
      Alcotest.(check int) "span parent" 0 s.Ccs.Span.parent;
      Alcotest.(check int) "span duration" 7 (Ccs.Span.duration_us s)

let test_flight_rejects_corruption () =
  let fl = Ccs.Flight.create () in
  Ccs.Flight.note_log fl "evidence";
  let dir = Filename.concat (tmp_dir ()) "flight" in
  let path = Ccs.Flight.dump fl ~dir ~trigger:"t" ~pid:1 ~at_us:5 in
  let pristine = In_channel.with_open_bin path In_channel.input_all in
  (* a flipped byte is detected by the frame checksum *)
  let bytes = Bytes.of_string pristine in
  Bytes.set bytes
    (Bytes.length bytes - 3)
    (Char.chr (Char.code (Bytes.get bytes (Bytes.length bytes - 3)) lxor 0x40));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes);
  (match Ccs.Flight.load ~path with
  | Error (E.Checkpoint_corrupt _) -> ()
  | Error e -> Alcotest.failf "wrong error %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "corrupt dump decoded");
  (* truncation mid-payload is a structured error, not an exception *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub pristine 0 (String.length pristine / 2)));
  (match Ccs.Flight.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated dump decoded");
  (* and so is a foreign file *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "this is not a flight dump at all");
  match Ccs.Flight.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk decoded"

let test_trace_id_echo () =
  let t = make_daemon () in
  let line = plan_line ~trace_id:"req-7" (app_graph "fm-radio") in
  let r = Srv.handle_line t line in
  Alcotest.(check bool) "ok" true (is_ok r);
  Alcotest.(check (option string))
    "echoed on success" (Some "req-7") (str_field r "trace_id");
  let bad = plan_line ~m:0 ~trace_id:"req-8" (app_graph "fm-radio") in
  let r = Srv.handle_line t bad in
  Alcotest.(check bool) "error" false (is_ok r);
  Alcotest.(check (option string))
    "echoed on error" (Some "req-8") (str_field r "trace_id");
  (* no trace_id in, none out *)
  let r = Srv.handle_line t (plan_line (app_graph "fm-radio")) in
  Alcotest.(check (option string)) "absent stays absent" None
    (str_field r "trace_id")

let make_traced_daemon ~tracing =
  Srv.make
    {
      (Srv.default_config ~address:(Srv.Unix_socket "/nonexistent")
         ~dir:(tmp_dir ()))
      with
      Srv.tracing;
    }

let test_tracing_bit_identical () =
  (* The observability contract: spans on or off, the daemon computes the
     same answers and the same cache traffic — tracing only records. *)
  let off = make_traced_daemon ~tracing:false in
  let on = make_traced_daemon ~tracing:true in
  (* every suite app cold then warm, each with its own trace id, which
     both daemons must echo *)
  let suite =
    List.concat_map
      (fun app ->
        let id = "t-" ^ app in
        let line = plan_line ~trace_id:id (app_graph app) in
        [ (line, Some id); (line, Some id) ])
      Ccs_apps.Suite.names
  in
  let lines =
    [
      (plan_line ~dry_run:true (app_graph "bitonic"), None);
      (plan_line ~m:0 (app_graph "fft"), None);
    ]
    @ suite
  in
  List.iteri
    (fun i (line, id) ->
      let a = Srv.handle_line off line in
      let b = Srv.handle_line on line in
      Alcotest.(check string)
        (Printf.sprintf "request %d bit-identical" i)
        (normalize a) (normalize b);
      Alcotest.(check (list (option string)))
        (Printf.sprintf "request %d trace id echoed" i)
        [ id; id ]
        [ str_field a "trace_id"; str_field b "trace_id" ])
    lines;
  let counter t name = Option.value (Srv.metric_value t name) ~default:(-1) in
  (* bitonic's dry run stores the plan its later request hits: 1 + 11
     cold misses, 12 warm hits + 1 *)
  Alcotest.(check int) "cache misses" 12
    (counter on "ccs_serve_cache_misses_total");
  Alcotest.(check int) "cache hits" 13
    (counter on "ccs_serve_cache_hits_total");
  Alcotest.(check int)
    "cache misses equal"
    (counter off "ccs_serve_cache_misses_total")
    (counter on "ccs_serve_cache_misses_total");
  Alcotest.(check int)
    "cache hits equal"
    (counter off "ccs_serve_cache_hits_total")
    (counter on "ccs_serve_cache_hits_total");
  (* stage histograms observe only under tracing *)
  let stage t =
    Srv.metric_value t ~labels:[ ("stage", "plan_build") ] "ccs_serve_stage_us"
  in
  Alcotest.(check (option int)) "untraced records no stage spans" (Some 0)
    (stage off);
  (match stage on with
  | Some n when n >= 1 -> ()
  | v ->
      Alcotest.failf "traced daemon recorded %s plan_build spans"
        (match v with Some n -> string_of_int n | None -> "no"));
  (* and the merged scrape renders them as labelled histogram series *)
  let page = Srv.scrape on in
  let has needle page =
    let nl = String.length needle and pl = String.length page in
    let rec go i =
      i + nl <= pl && (String.sub page i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool)
    "stage series on the metrics page" true
    (has "ccs_serve_stage_us_count{stage=\"plan_build\"}" page)

(* --- the scrape merge: Metrics.absorb ---------------------------------------- *)

let snapshot_doc build =
  let r = Ccs.Metrics.create () in
  build r;
  match Json.of_string (Ccs.Metrics.to_json_string r) with
  | Ok v -> v
  | Error e -> Alcotest.failf "snapshot doc does not parse: %s" e

let absorb_all docs =
  let r = Ccs.Metrics.create () in
  List.iter (Ccs.Metrics.absorb r) docs;
  r

let test_snapshot_merge_histograms () =
  let doc pid observations =
    snapshot_doc (fun r ->
        let h =
          Ccs.Metrics.histogram r ~labels:[ ("stage", "parse") ] "stage_us"
        in
        List.iter (Ccs.Metrics.observe h) observations;
        let other =
          Ccs.Metrics.histogram r ~labels:[ ("stage", "write") ] "stage_us"
        in
        if pid = 1 then Ccs.Metrics.observe other 1)
  in
  let merged = absorb_all [ doc 1 [ 3; 100 ]; doc 2 [ 5 ] ] in
  let series stage =
    Ccs.Metrics.histogram merged ~labels:[ ("stage", stage) ] "stage_us"
  in
  let parse = series "parse" in
  Alcotest.(check int)
    "counts sum across workers" 3
    (Ccs.Metrics.histogram_count parse);
  Alcotest.(check int)
    "sums sum across workers" 108
    (Ccs.Metrics.histogram_sum parse);
  Alcotest.(check int)
    "per-bucket counts sum" 3
    (List.fold_left ( + ) 0 (Ccs.Metrics.histogram_buckets parse));
  (* label-set disjointness: the write series keeps its own count *)
  Alcotest.(check int)
    "disjoint labels not conflated" 1
    (Ccs.Metrics.histogram_count (series "write"));
  (* the rendered page has cumulative buckets ending in +Inf = count *)
  let page = Ccs.Metrics.to_prometheus merged in
  let prefix = "stage_us_bucket{stage=\"parse\"" in
  let cumulative =
    String.split_on_char '\n' page
    |> List.filter_map (fun l ->
           let n = String.length prefix in
           if String.length l > n && String.sub l 0 n = prefix then
             String.rindex_opt l ' '
             |> Option.map (fun i ->
                    int_of_string
                      (String.sub l (i + 1) (String.length l - i - 1)))
           else None)
  in
  Alcotest.(check bool) "bucket series rendered" true (cumulative <> []);
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative buckets are monotone" true
    (monotone cumulative);
  Alcotest.(check int)
    "+Inf bucket equals the count" 3
    (List.nth cumulative (List.length cumulative - 1))

let test_snapshot_merge_edge_cases () =
  (* zero snapshots: an empty page, not an error *)
  Alcotest.(check string)
    "empty merge renders an empty page" ""
    (Ccs.Metrics.to_prometheus (absorb_all []));
  (* a histogram series merged with itself doubles; counters likewise *)
  let d =
    snapshot_doc (fun r ->
        let h = Ccs.Metrics.histogram r "h_us" in
        Ccs.Metrics.observe h 9;
        Ccs.Metrics.inc (Ccs.Metrics.counter r "c_total"))
  in
  let merged = absorb_all [ d; d ] in
  Alcotest.(check (option int))
    "histogram doubled" (Some 2)
    (Ccs.Metrics.value merged "h_us");
  Alcotest.(check (option int))
    "counter doubled" (Some 2)
    (Ccs.Metrics.value merged "c_total")

(* Three published snapshots (two workers and the parent) and the page
   the daemon rendered for them before the merge moved into
   Metrics.absorb: summed values, first-seen series order, help text
   first seen in a later document, escaped label values. *)
let golden_docs =
  [
    {|{"counters":[{"name":"ccs_serve_requests_total","labels":{},"help":"Protocol requests received.","value":7},{"name":"ccs_serve_cache_hits_total","labels":{},"help":"Plan requests answered from the hot cache or the persistent plan store.","value":4},{"name":"late_help_total","labels":{},"value":1}],"gauges":[{"name":"ccs_serve_inflight","labels":{},"help":"Connections currently being served.","value":1}],"histograms":[{"name":"ccs_serve_request_us","labels":{},"help":"End-to-end request latency, wall-clock microseconds.","count":3,"sum":1300,"buckets":[{"le":7,"count":1},{"le":1023,"count":2}]},{"name":"ccs_serve_stage_us","labels":{"stage":"parse"},"help":"Per-stage request latency, wall-clock microseconds (tracing only).","count":2,"sum":30,"buckets":[{"le":15,"count":2}]},{"name":"ccs_serve_stage_us","labels":{"stage":"write"},"help":"Per-stage request latency, wall-clock microseconds (tracing only).","count":0,"sum":0,"buckets":[]}]}|};
    {|{"counters":[{"name":"ccs_serve_requests_total","labels":{},"help":"Protocol requests received.","value":5},{"name":"ccs_serve_cache_hits_total","labels":{},"help":"Plan requests answered from the hot cache or the persistent plan store.","value":2},{"name":"late_help_total","labels":{},"help":"Help first seen in the second doc; a back\\slash and a\nnewline.","value":2},{"name":"odd_labels_total","labels":{"path":"a\"b\\c\nd","zone":"eu"},"help":"Label values with every escaped character.","value":3}],"gauges":[{"name":"ccs_serve_inflight","labels":{},"help":"Connections currently being served.","value":0}],"histograms":[{"name":"ccs_serve_request_us","labels":{},"help":"End-to-end request latency, wall-clock microseconds.","count":4,"sum":70000,"buckets":[{"le":0,"count":1},{"le":7,"count":1},{"le":65535,"count":2}]},{"name":"ccs_serve_stage_us","labels":{"stage":"write"},"help":"Per-stage request latency, wall-clock microseconds (tracing only).","count":1,"sum":3,"buckets":[{"le":3,"count":1}]}]}|};
    {|{"counters":[{"name":"ccs_serve_worker_restarts_total","labels":{},"help":"Worker processes respawned by the parent after an unexpected death.","value":2}],"gauges":[{"name":"ccs_serve_store_bytes","labels":{},"help":"Bytes of live plan-store records.","value":4096},{"name":"ccs_serve_store_entries","labels":{},"help":"Live plan-store records.","value":3},{"name":"ccs_serve_workers_quarantined","labels":{},"help":"Worker slots retired by the crash-loop circuit breaker.","value":0}],"histograms":[]}|};
  ]

let golden_page =
  {|# HELP ccs_serve_requests_total Protocol requests received.
# TYPE ccs_serve_requests_total counter
ccs_serve_requests_total 12
# HELP ccs_serve_cache_hits_total Plan requests answered from the hot cache or the persistent plan store.
# TYPE ccs_serve_cache_hits_total counter
ccs_serve_cache_hits_total 6
# HELP late_help_total Help first seen in the second doc; a back\\slash and a\nnewline.
# TYPE late_help_total counter
late_help_total 3
# HELP ccs_serve_inflight Connections currently being served.
# TYPE ccs_serve_inflight gauge
ccs_serve_inflight 1
# HELP ccs_serve_request_us End-to-end request latency, wall-clock microseconds.
# TYPE ccs_serve_request_us histogram
ccs_serve_request_us_bucket{le="0"} 1
ccs_serve_request_us_bucket{le="7"} 3
ccs_serve_request_us_bucket{le="1023"} 5
ccs_serve_request_us_bucket{le="65535"} 7
ccs_serve_request_us_bucket{le="+Inf"} 7
ccs_serve_request_us_sum 71300
ccs_serve_request_us_count 7
# HELP ccs_serve_stage_us Per-stage request latency, wall-clock microseconds (tracing only).
# TYPE ccs_serve_stage_us histogram
ccs_serve_stage_us_bucket{stage="parse",le="15"} 2
ccs_serve_stage_us_bucket{stage="parse",le="+Inf"} 2
ccs_serve_stage_us_sum{stage="parse"} 30
ccs_serve_stage_us_count{stage="parse"} 2
ccs_serve_stage_us_bucket{stage="write",le="3"} 1
ccs_serve_stage_us_bucket{stage="write",le="+Inf"} 1
ccs_serve_stage_us_sum{stage="write"} 3
ccs_serve_stage_us_count{stage="write"} 1
# HELP odd_labels_total Label values with every escaped character.
# TYPE odd_labels_total counter
odd_labels_total{path="a\"b\\c\nd",zone="eu"} 3
# HELP ccs_serve_worker_restarts_total Worker processes respawned by the parent after an unexpected death.
# TYPE ccs_serve_worker_restarts_total counter
ccs_serve_worker_restarts_total 2
# HELP ccs_serve_store_bytes Bytes of live plan-store records.
# TYPE ccs_serve_store_bytes gauge
ccs_serve_store_bytes 4096
# HELP ccs_serve_store_entries Live plan-store records.
# TYPE ccs_serve_store_entries gauge
ccs_serve_store_entries 3
# HELP ccs_serve_workers_quarantined Worker slots retired by the crash-loop circuit breaker.
# TYPE ccs_serve_workers_quarantined gauge
ccs_serve_workers_quarantined 0
|}

let test_scrape_golden_page () =
  let docs =
    List.map
      (fun d ->
        match Json.of_string d with
        | Ok v -> v
        | Error e -> Alcotest.failf "golden doc does not parse: %s" e)
      golden_docs
  in
  Alcotest.(check string)
    "merged page" golden_page
    (Ccs.Metrics.to_prometheus (absorb_all docs))

(* Snapshot files are input from outside the process: a bad entry is
   skipped, never raised, and the well-formed series still merge. *)
let test_absorb_malformed () =
  let doc s =
    match Json.of_string s with
    | Ok v -> v
    | Error e -> Alcotest.failf "test doc does not parse: %s" e
  in
  let merged =
    absorb_all
      [
        doc
          {|{"counters":[7,{"labels":{},"value":1},{"name":"bad name","value":1},{"name":"ok_total","labels":{"bad-label":"x"},"value":1},{"name":"clash","value":5},{"name":"ok_total","value":2}],"histograms":[{"name":"h_us","count":2,"sum":9,"buckets":[{"le":"x","count":1},{"le":7,"count":2}]}]}|};
        doc
          {|{"counters":[{"name":"ok_total","value":3}],"gauges":[{"name":"clash","value":9}],"histograms":[{"name":"clash","count":1,"sum":1,"buckets":[]}]}|};
        doc {|[1,2]|};
        doc {|{"counters":"nope","gauges":[null]}|};
      ]
  in
  Alcotest.(check int) "only well-formed series" 3
    (Ccs.Metrics.num_series merged);
  Alcotest.(check string)
    "page"
    "# TYPE clash counter\nclash 5\n# TYPE ok_total counter\nok_total 5\n\
     # TYPE h_us histogram\nh_us_bucket{le=\"7\"} 2\n\
     h_us_bucket{le=\"+Inf\"} 2\nh_us_sum 9\nh_us_count 2\n"
    (Ccs.Metrics.to_prometheus merged)

let test_deadline_flight_dump () =
  (* An induced deadline-exceeded must leave a decodable black box on
     disk: the crash-forensics contract end to end, against a live
     daemon. *)
  let dir = tmp_dir () in
  let sock = Filename.concat dir "d.sock" in
  let state = Filename.concat dir "state" in
  let config =
    {
      (Srv.default_config ~address:(Srv.Unix_socket sock) ~dir:state) with
      Srv.deadline_ms = 200;
      tracing = true;
      (* a real sink at Info: the flight ring tees off rendered lines, so
         the dump's log evidence depends on the configured level *)
      log = Ccs.Log.to_buffer ~level:Ccs.Log.Info (Buffer.create 256);
    }
  in
  with_daemon config sock @@ fun _ ->
  let fd = Srv.connect config.Srv.address in
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  output_string oc "{\"op";
  flush oc;
  let r = input_line ic in
  Alcotest.(check (option string))
    "deadline code" (Some "deadline-exceeded") (error_code r);
  Unix.close fd;
  let flight_dir = Filename.concat state "flight" in
  let dump_paths () =
    match Sys.readdir flight_dir with
    | exception Sys_error _ -> []
    | fs ->
        Array.to_list fs
        |> List.filter (fun f ->
               Filename.check_suffix f "-deadline-exceeded.ccsflight")
        |> List.map (Filename.concat flight_dir)
  in
  let rec await n =
    match dump_paths () with
    | [] when n = 0 -> Alcotest.fail "no deadline flight dump appeared"
    | [] ->
        Unix.sleepf 0.05;
        await (n - 1)
    | paths -> paths
  in
  let paths = await 100 in
  List.iter
    (fun path ->
      match Ccs.Flight.load ~path with
      | Error e ->
          Alcotest.failf "undecodable flight dump %s: %s" path
            (E.to_string e)
      | Ok d ->
          Alcotest.(check string)
            "dump names its trigger" "deadline-exceeded" d.Ccs.Flight.trigger;
          if d.Ccs.Flight.logs = [] then
            Alcotest.fail "flight dump carries no log evidence")
    paths

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "rejects malformed requests" `Quick
            test_parse_rejects;
          Alcotest.test_case "parses plan requests" `Quick test_parse_plan;
          Alcotest.test_case "parses ping" `Quick test_parse_ping;
        ] );
      ( "plan key",
        [
          Alcotest.test_case "mismatch names the field" `Quick
            test_key_mismatch_fields;
          Alcotest.test_case "digest separates every component" `Quick
            test_key_digest_separates;
        ] );
      ( "plan cache",
        [
          Alcotest.test_case "roundtrip" `Quick test_cache_roundtrip;
          Alcotest.test_case "rejects corruption" `Quick
            test_cache_rejects_corruption;
          Alcotest.test_case "rejects a renamed record" `Quick
            test_cache_rejects_renamed_record;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "miss then hit, identical" `Quick
            test_miss_then_hit_identical;
          Alcotest.test_case "config change misses" `Quick
            test_config_change_misses;
          Alcotest.test_case "pinned capacities" `Quick test_pinned_capacities;
          Alcotest.test_case "structured errors" `Quick test_structured_errors;
          Alcotest.test_case "dry run matches codegen" `Quick
            test_dry_run_matches_codegen;
          Alcotest.test_case "metrics accounting" `Quick
            test_metrics_accounting;
        ] );
      ( "bounded store",
        [
          Alcotest.test_case "entry bound, LRU eviction, rebuild" `Quick
            test_store_entry_bound_and_rebuild;
          Alcotest.test_case "byte bound" `Quick test_store_byte_bound;
          Alcotest.test_case "sweep quarantines torn records" `Quick
            test_store_sweep_quarantines;
          Alcotest.test_case "self-heals at lookup" `Quick
            test_store_self_heals_at_lookup;
          Alcotest.test_case "hot cache evicts least recently used" `Quick
            test_hot_cache_lru;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest fuzz_random_bytes;
          QCheck_alcotest.to_alcotest fuzz_mutated_json;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "deadline on a stalled client" `Slow
            test_deadline_slow_client;
          Alcotest.test_case "overload shed + retrying client" `Slow
            test_overload_shed;
          Alcotest.test_case "breaker quarantines a crash loop" `Slow
            test_breaker_quarantines_crash_loop;
          Alcotest.test_case "live flood of junk lines" `Slow
            test_live_fuzz_flood;
          Alcotest.test_case "healthz counts live workers only" `Slow
            test_healthz_counts_live_workers;
        ] );
      ( "observability",
        [
          Alcotest.test_case "span ring overflow and order" `Quick
            test_span_ring;
          Alcotest.test_case "flight dump roundtrip" `Quick
            test_flight_roundtrip;
          Alcotest.test_case "flight rejects corruption" `Quick
            test_flight_rejects_corruption;
          Alcotest.test_case "trace id echo" `Quick test_trace_id_echo;
          Alcotest.test_case "tracing is observation only" `Quick
            test_tracing_bit_identical;
          Alcotest.test_case "snapshot merge on histograms" `Quick
            test_snapshot_merge_histograms;
          Alcotest.test_case "snapshot merge edge cases" `Quick
            test_snapshot_merge_edge_cases;
          Alcotest.test_case "scrape page matches the golden page" `Quick
            test_scrape_golden_page;
          Alcotest.test_case "absorb skips malformed entries" `Quick
            test_absorb_malformed;
          Alcotest.test_case "deadline leaves a flight dump" `Slow
            test_deadline_flight_dump;
        ] );
      ("soak", [ Alcotest.test_case "forked daemon" `Slow test_soak ]);
      ("chaos", [ Alcotest.test_case "seeded chaos soak" `Slow test_chaos_soak ]);
    ]
