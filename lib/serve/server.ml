module E = Ccs.Error
module Metrics = Ccs.Metrics
module Fault = Ccs.Fault

type address = Unix_socket of string | Tcp of string * int

type config = {
  address : address;
  dir : string;
  workers : int;
  log : Ccs.Log.t;
  backlog : int;
  deadline_ms : int;
  max_inflight : int;
  retry_after_ms : int;
  store_max_bytes : int;
  store_max_entries : int;
  hot_cache : int;
  min_uptime_ms : int;
  breaker_limit : int;
  chaos : Fault.env;
  tracing : bool;
}

let default_config ~address ~dir =
  {
    address;
    dir;
    workers = 0;
    log = Ccs.Log.null;
    backlog = 64;
    deadline_ms = 0;
    max_inflight = 0;
    retry_after_ms = 50;
    store_max_bytes = 0;
    store_max_entries = 0;
    hot_cache = 64;
    min_uptime_ms = 1000;
    breaker_limit = 5;
    chaos = [];
    tracing = false;
  }

let pp_address = function
  | Unix_socket path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

(* --- per-worker metrics ---------------------------------------------------- *)

type metrics = {
  registry : Metrics.t;
  requests : Metrics.counter;
  hits : Metrics.counter;
  misses : Metrics.counter;
  errors : Metrics.counter;
  plan_builds : Metrics.counter;
  shed : Metrics.counter;
  deadline_exceeded : Metrics.counter;
  cache_evictions : Metrics.counter;
  worker_restarts : Metrics.counter;
  flight_dumps : Metrics.counter;
  inflight : Metrics.gauge;
  store_bytes : Metrics.gauge;
  store_entries : Metrics.gauge;
  request_us : Metrics.histogram;
  plan_us : Metrics.histogram;
  stage_us : (string * Metrics.histogram) list;
}

(* Every stage of the request path gets its own labelled latency series.
   Pre-registered so /metrics always shows the full set (at zero) and the
   hot path never hashes a registration. *)
let stage_names =
  [
    "request"; "read"; "parse"; "key"; "cache_lookup"; "plan_build"; "dry_run";
    "write";
  ]

let make_metrics () =
  let registry = Metrics.create () in
  let c name help = Metrics.counter registry ~help name in
  let g name help = Metrics.gauge registry ~help name in
  let h name help = Metrics.histogram registry ~help name in
  {
    registry;
    requests = c "ccs_serve_requests_total" "Protocol requests received.";
    hits =
      c "ccs_serve_cache_hits_total"
        "Plan requests answered from the hot cache or the persistent plan \
         store.";
    misses =
      c "ccs_serve_cache_misses_total"
        "Plan requests that had to run the planner.";
    errors =
      c "ccs_serve_errors_total"
        "Requests answered with a structured error response.";
    plan_builds = c "ccs_serve_plan_builds_total" "Planner pipeline runs.";
    shed =
      c "ccs_serve_shed_total"
        "Connections answered with a structured overloaded response and \
         closed because the worker was at its in-flight limit.";
    deadline_exceeded =
      c "ccs_serve_deadline_exceeded_total"
        "Requests that blew their time budget (slow client or runaway \
         plan build).";
    cache_evictions =
      c "ccs_serve_cache_evictions_total"
        "Plan-store records evicted to stay within the configured bound.";
    worker_restarts =
      c "ccs_serve_worker_restarts_total"
        "Worker processes respawned by the parent after an unexpected \
         death.";
    flight_dumps =
      c "ccs_serve_flight_dumps_total"
        "Flight-recorder dumps written on anomaly triggers.";
    inflight =
      g "ccs_serve_inflight" "Connections currently being served.";
    store_bytes =
      g "ccs_serve_store_bytes" "Bytes of live plan-store records.";
    store_entries =
      g "ccs_serve_store_entries" "Live plan-store records.";
    request_us =
      h "ccs_serve_request_us"
        "End-to-end request latency, wall-clock microseconds.";
    plan_us =
      h "ccs_serve_plan_us" "Planner pipeline latency, wall-clock microseconds.";
    stage_us =
      List.map
        (fun stage ->
          ( stage,
            Metrics.histogram registry
              ~help:
                "Per-stage request latency, wall-clock microseconds \
                 (tracing only)."
              ~labels:[ ("stage", stage) ]
              "ccs_serve_stage_us" ))
        stage_names;
  }

(* The trace context of one in-flight request: [root] is the request
   span's pre-allocated id so every stage span can parent to it before
   the root itself is recorded.  [trace_id] is overwritten by a
   client-supplied id the moment the parse stage sees one. *)
type trace = { mutable trace_id : string; root : int; t_start : int }

(* A hot-cache entry and its last-use stamp (the worker's [hot_clock]
   at its last insert or hit). *)
type hot_entry = { artifact : Protocol.artifact; mutable used : int }

type t = {
  config : config;
  m : metrics;
  store : Plan_cache.Bounded.t;
  hot : (string, hot_entry) Hashtbl.t; (* plan-key digest -> entry *)
  mutable hot_clock : int;
  flight : Ccs.Flight.t;
      (* always-on black box: span ring + recent log lines, dumped on
         anomaly triggers *)
  mutable req_index : int;
      (* per-worker request counter: the epoch axis of serve-layer chaos *)
  mutable evictions_seen : int;
  mutable report_store : bool;
      (* exactly one process per daemon publishes the store gauges, so the
         merged scrape does not multiply them by the worker count *)
  mutable die_after_flush : bool; (* a chaos Worker_kill is pending *)
  mutable last_trace : (string * int) option;
      (* (trace_id, root span id) of the request [handle_line_at] just
         finished — the event loop picks it up to parent the write span *)
}

let cache_dir config = Filename.concat config.dir "plans"
let flight_dir config = Filename.concat config.dir "flight"
let trace_dir config = Filename.concat config.dir "trace"
let metrics_dir t = Filename.concat t.config.dir "metrics"

let make config =
  let flight = Ccs.Flight.create () in
  (* Mirror every log line into the flight ring: the dump then carries
     the last-N log events alongside the last-N spans. *)
  let config =
    { config with log = Ccs.Log.tee config.log (Ccs.Flight.note_log flight) }
  in
  let store =
    Plan_cache.Bounded.create ~log:config.log ~dir:(cache_dir config)
      ~bounds:
        {
          Plan_cache.Bounded.max_bytes = config.store_max_bytes;
          max_entries = config.store_max_entries;
        }
      ()
  in
  {
    config;
    m = make_metrics ();
    store;
    hot = Hashtbl.create 16;
    hot_clock = 0;
    flight;
    req_index = 0;
    evictions_seen = 0;
    report_store = true;
    die_after_flush = false;
    last_trace = None;
  }

let snapshot_path t =
  Filename.concat (metrics_dir t)
    (Printf.sprintf "worker-%d.json" (Unix.getpid ()))

(* --- spans and the flight recorder ----------------------------------------- *)

let observe_stage t stage dur =
  match List.assoc_opt stage t.m.stage_us with
  | Some h -> Metrics.observe h dur
  | None -> ()

let record_span t (tr : trace) ~span_id ~parent ~stage ~start_us ~end_us =
  Ccs.Span.record
    (Ccs.Flight.spans t.flight)
    ~trace_id:tr.trace_id ~span_id ~parent ~stage ~start_us ~end_us;
  observe_stage t stage (max 0 (end_us - start_us))

(* Time [f] as one child span of the current request.  [tr = None]
   (tracing off) is a single comparison — the traced and untraced paths
   run the very same [f], which is why responses are bit-identical either
   way.  Exceptions still finish the span (a blown plan build leaves its
   partial timing in the ring) and re-raise. *)
let span t tr stage f =
  match tr with
  | None -> f ()
  | Some tr -> (
      let start_us = Ccs.Clock.now_us () in
      let finish () =
        record_span t tr
          ~span_id:(Ccs.Span.fresh_id (Ccs.Flight.spans t.flight))
          ~parent:tr.root ~stage ~start_us ~end_us:(Ccs.Clock.now_us ())
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e)

let fresh_trace t ~t_start =
  {
    trace_id = Printf.sprintf "w%d-r%d" (Unix.getpid ()) t.req_index;
    root = Ccs.Span.fresh_id (Ccs.Flight.spans t.flight);
    t_start;
  }

(* Dump the black box.  Best-effort by design: a full disk must not turn
   an anomaly report into a crash, so failures are logged and dropped. *)
let flight_dump t ~trigger =
  Metrics.inc t.m.flight_dumps;
  match
    Ccs.Flight.dump t.flight ~dir:(flight_dir t.config) ~trigger
      ~pid:(Unix.getpid ())
      ~at_us:(Ccs.Clock.now_us ())
  with
  | path ->
      Ccs.Log.warn t.config.log "flight recorder dumped"
        [
          ("trigger", Ccs.Json.String trigger);
          ("path", Ccs.Json.String path);
        ]
  | exception Sys_error reason ->
      Ccs.Log.error t.config.log "flight dump failed"
        [
          ("trigger", Ccs.Json.String trigger);
          ("reason", Ccs.Json.String reason);
        ]

(* Publish this worker's registry for /metrics scrapes (from any worker).
   Atomic rename, so a concurrent scrape never reads a torn document. *)
let publish_metrics t =
  if t.report_store then begin
    Metrics.set t.m.store_bytes (Plan_cache.Bounded.bytes t.store);
    Metrics.set t.m.store_entries (Plan_cache.Bounded.entries t.store)
  end;
  Plan_cache.ensure_dir (metrics_dir t);
  Ccs.Binio.write_atomic ~path:(snapshot_path t)
    (Metrics.to_json_string t.m.registry ^ "\n");
  if t.config.tracing then
    (* Live trace export: the span ring as of the last answered request,
       readable by `ccsched trace` without waiting for an anomaly. *)
    try
      ignore
        (Ccs.Flight.dump t.flight ~dir:(trace_dir t.config) ~trigger:"live"
           ~pid:(Unix.getpid ())
           ~at_us:(Ccs.Clock.now_us ()))
    with Sys_error _ -> ()

let metric_value t ?labels name = Metrics.value t.m.registry ?labels name

(* One page for the whole daemon: every published snapshot, a dead
   worker's included (so cumulative counters never go backwards),
   summed into a fresh registry. *)
let scrape t =
  let dir = metrics_dir t in
  let files =
    if Sys.file_exists dir then
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.sort String.compare
    else []
  in
  let merged = Metrics.create () in
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      match In_channel.with_open_text path In_channel.input_all with
      | contents ->
          Result.iter (Metrics.absorb merged) (Ccs.Json.of_string contents)
      | exception Sys_error _ -> ())
    files;
  Metrics.to_prometheus merged

(* --- deadlines ------------------------------------------------------------- *)

exception Deadline
(* Raised by the SIGALRM handler: [ITIMER_REAL] preempts a CPU-bound plan
   build at its next allocation point, so a runaway partitioner run
   cannot hold a worker past the request budget. *)

let install_alarm () =
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Deadline))

let disarm_alarm () =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_value = 0.0; Unix.it_interval = 0.0 })

(* Run [f] under the remaining budget (absolute deadline in [Clock]
   microseconds); a blown budget becomes a structured error, never a hung
   worker.  [deadline_at = None] means no budget is in force. *)
let with_deadline t ~deadline_at f =
  match deadline_at with
  | None -> f ()
  | Some at ->
      let budget_ms = t.config.deadline_ms in
      let remaining = at - Ccs.Clock.now_us () in
      if remaining <= 0 then
        E.fail (E.Deadline_exceeded { stage = "plan"; budget_ms })
      else begin
        ignore
          (Unix.setitimer Unix.ITIMER_REAL
             {
               Unix.it_value = float_of_int remaining /. 1e6;
               Unix.it_interval = 0.0;
             });
        match f () with
        | v ->
            disarm_alarm ();
            v
        | exception Deadline ->
            disarm_alarm ();
            E.fail (E.Deadline_exceeded { stage = "plan"; budget_ms })
        | exception e ->
            disarm_alarm ();
            raise e
      end

(* --- the planning pipeline ------------------------------------------------- *)

let fail_report (report : Ccs.Check.report) =
  match report.errors with e :: _ -> E.fail e | [] -> ()

let policy_of_ways = function
  | None -> Ccs.Cache.Lru
  | Some 1 -> Ccs.Cache.Direct_mapped
  | Some w -> Ccs.Cache.Set_associative w

(* Rebuild a Plan.t from a cached artifact; also the dry-run path for
   fresh builds, so hits and misses exercise identical code. *)
let plan_of_artifact (a : Protocol.artifact) =
  Ccs.Plan.of_period ~name:a.plan_name ~capacities:a.capacities a.period

let dry_run_of g cache (a : Protocol.artifact) =
  let plan = plan_of_artifact a in
  let lowered = Ccs.Lowering.exn g ~plan ~cache in
  let c = Ccs.Compiled.create lowered in
  Ccs.Compiled.run_periods c 1;
  { Protocol.outputs = Ccs.Compiled.outputs c;
    checksum = Ccs.Compiled.checksum c }

let build_artifact t (req : Protocol.plan_request) g cache : Protocol.artifact =
  let t0 = Ccs.Clock.now_us () in
  let cfg =
    Ccs.Config.make ~policy:cache.Ccs.Cache.policy ~cache_words:req.cache_words
      ~block_words:req.block_words ()
  in
  let choice =
    try Ccs.Auto.plan ~dynamic:false g cfg
    with Ccs.Graph.Invalid_graph reason ->
      E.fail (E.Failure_msg { context = "planning"; reason })
  in
  Metrics.inc t.m.plan_builds;
  let plan =
    match req.capacities with
    | None -> choice.plan
    | Some capacities -> (
        if Array.length capacities <> Ccs.Graph.num_edges g then
          E.fail
            (E.Request_invalid
               {
                 reason =
                   Printf.sprintf "%d capacities for %d channels"
                     (Array.length capacities) (Ccs.Graph.num_edges g);
               });
        let period =
          match choice.plan.period with Some p -> p | None -> assert false
        in
        let pinned =
          Ccs.Plan.of_period ~name:choice.plan.name ~capacities period
        in
        match Ccs.Plan.validate ~cache ~spec:choice.partition g pinned with
        | Ok () -> pinned
        | Error findings -> (
            match
              List.filter (fun e -> E.severity e = `Error) findings
            with
            | e :: _ -> E.fail e
            | [] -> pinned))
  in
  let period =
    match plan.period with Some p -> p | None -> assert false
  in
  let artifact =
    {
      Protocol.plan_name = plan.name;
      batch = choice.batch;
      components = Ccs.Spec.assignment choice.partition;
      capacities = plan.capacities;
      period;
      predicted_mpi =
        Ccs.Analysis.partition_cost_prediction choice.partition choice.analysis
          ~b:req.block_words ~t:choice.batch;
      bandwidth_per_input =
        Ccs.Analysis.bandwidth_per_input choice.partition choice.analysis;
      buffer_words = Ccs.Plan.buffer_words plan;
    }
  in
  Metrics.observe t.m.plan_us (Ccs.Clock.elapsed_us ~since:t0);
  artifact

(* --- the hot cache and the bounded store ----------------------------------- *)

let hot_stamp t =
  t.hot_clock <- t.hot_clock + 1;
  t.hot_clock

(* LRU by stamp: an insert past [hot_cache] entries evicts the entry
   used longest ago.  The scan covers at most [hot_cache + 1] entries
   and runs only on insert, never on a hit. *)
let hot_put t digest artifact =
  if t.config.hot_cache > 0 then begin
    Hashtbl.replace t.hot digest { artifact; used = hot_stamp t };
    if Hashtbl.length t.hot > t.config.hot_cache then begin
      let oldest =
        Hashtbl.fold
          (fun d e acc ->
            match acc with
            | Some (_, used) when used < e.used -> acc
            | _ -> Some (d, e.used))
          t.hot None
      in
      Option.iter (fun (d, _) -> Hashtbl.remove t.hot d) oldest
    end
  end

(* Hot cache in front of the disk store: a hot hit answers without
   touching the filesystem at all, and is bit-identical to a disk hit
   because both serve the very same artifact value. *)
let lookup_artifact t ~key =
  let digest = Ccs.Plan_key.digest key in
  match Hashtbl.find_opt t.hot digest with
  | Some e ->
      e.used <- hot_stamp t;
      Some e.artifact
  | None -> (
      match Plan_cache.Bounded.lookup t.store ~key with
      | Some a ->
          hot_put t digest a;
          Some a
      | None -> None)

let truncate_record t key =
  let p = Plan_cache.path ~dir:(cache_dir t.config) key in
  match Unix.stat p with
  | exception Unix.Unix_error _ -> ()
  | st ->
      let keep = max 0 (st.Unix.st_size - 3) in
      let fd = Unix.openfile p [ Unix.O_WRONLY ] 0o644 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> Unix.ftruncate fd keep);
      Ccs.Log.warn t.config.log "chaos: plan-store record truncated"
        [ ("path", Ccs.Json.String p) ]

(* Store under chaos: an [iofault@E] window makes plan-store writes fail
   (the response is still served — durability is best-effort), and a
   [truncate@E] tears the record just written so the next reader must
   quarantine and rebuild it. *)
let store_artifact t ~key artifact =
  let epoch = t.req_index in
  if (Fault.conditions_at t.config.chaos epoch).Fault.io_faulty then
    Ccs.Log.warn t.config.log "chaos: plan-store write suppressed"
      [ ("key", Ccs.Json.String (Ccs.Plan_key.digest key)) ]
  else begin
    Plan_cache.Bounded.store t.store ~key artifact;
    if List.mem Fault.Record_truncate (Fault.events_at t.config.chaos epoch)
    then truncate_record t key
  end;
  let ev = Plan_cache.Bounded.evictions t.store in
  if ev > t.evictions_seen then begin
    Metrics.add t.m.cache_evictions (ev - t.evictions_seen);
    t.evictions_seen <- ev
  end

let handle_plan t ~t0 ~deadline_at ~tr (req : Protocol.plan_request) =
  let cache, g, key =
    span t tr "key" (fun () ->
        fail_report
          (Ccs.Check.cache_config ?ways:req.ways ~size_words:req.cache_words
             ~block_words:req.block_words ());
        let cache =
          Ccs.Cache.config
            ~policy:(policy_of_ways req.ways)
            ~size_words:req.cache_words ~block_words:req.block_words ()
        in
        let g =
          match Ccs.Serial.parse req.graph_text with
          | Ok g -> g
          | Error e -> E.fail e
        in
        fail_report (Ccs.Check.graph g);
        let key =
          Ccs.Plan_key.of_graph g ~cache
            ~capacities:(Option.value req.capacities ~default:[||])
            ~planner_version:Ccs.Auto.planner_version
        in
        (cache, g, key))
  in
  let cached, artifact =
    match span t tr "cache_lookup" (fun () -> lookup_artifact t ~key) with
    | Some artifact -> (true, artifact)
    | None ->
        let artifact =
          span t tr "plan_build" (fun () ->
              with_deadline t ~deadline_at (fun () ->
                  build_artifact t req g cache))
        in
        (* Store before responding: once a client has seen an answer, a
           repeat of the same request is guaranteed to hit. *)
        store_artifact t ~key artifact;
        hot_put t (Ccs.Plan_key.digest key) artifact;
        (false, artifact)
  in
  Metrics.inc (if cached then t.m.hits else t.m.misses);
  let dry_run =
    if req.dry_run then
      Some (span t tr "dry_run" (fun () -> dry_run_of g cache artifact))
    else None
  in
  Protocol.plan_response ?trace_id:req.trace_id ~cached
    ~key:(Ccs.Plan_key.digest key) ~artifact ~dry_run
    ~elapsed_us:(Ccs.Clock.elapsed_us ~since:t0)
    ()

let handle_line_at t ?(read_start = 0) ~deadline_at line =
  let t0 = Ccs.Clock.now_us () in
  Metrics.inc t.m.requests;
  let epoch = t.req_index in
  let tr =
    if t.config.tracing then
      Some (fresh_trace t ~t_start:(if read_start > 0 then read_start else t0))
    else None
  in
  let response =
    match
      span t tr "parse" (fun () ->
          let parsed = Protocol.parse_request line in
          (* Adopt the client's correlation id the moment it is known, so
             every subsequent span (and the parse span itself, recorded
             after this closure returns) carries it. *)
          (match (tr, parsed) with
          | Some tr, Ok (Protocol.Plan { trace_id = Some id; _ }) ->
              tr.trace_id <- id
          | _ -> ());
          parsed)
    with
    | Error e ->
        Metrics.inc t.m.errors;
        Protocol.error_response e
    | Ok Protocol.Ping -> Protocol.pong
    | Ok (Protocol.Plan req) -> (
        match
          E.protect (fun () -> handle_plan t ~t0 ~deadline_at ~tr req)
        with
        | Ok json ->
            (* A client that asked for correlation gets a log line to
               correlate with — untraced requests stay silent. *)
            (match req.trace_id with
            | Some id ->
                Ccs.Log.info t.config.log "request ok"
                  [ ("trace_id", Ccs.Json.String id) ]
            | None -> ());
            json
        | Error e ->
            Metrics.inc t.m.errors;
            (match e with
            | E.Deadline_exceeded _ ->
                Metrics.inc t.m.deadline_exceeded;
                flight_dump t ~trigger:"deadline-exceeded"
            | _ -> ());
            (match (req.trace_id, E.code e) with
            | Some id, code ->
                Ccs.Log.warn t.config.log "request failed"
                  [
                    ("trace_id", Ccs.Json.String id);
                    ("code", Ccs.Json.String code);
                  ]
            | None, _ -> ());
            Protocol.error_response ?trace_id:req.trace_id e)
  in
  if List.mem Fault.Worker_kill (Fault.events_at t.config.chaos epoch) then
    t.die_after_flush <- true;
  t.req_index <- t.req_index + 1;
  Metrics.observe t.m.request_us (Ccs.Clock.elapsed_us ~since:t0);
  (match tr with
  | None -> t.last_trace <- None
  | Some tr ->
      let now = Ccs.Clock.now_us () in
      if read_start > 0 then
        record_span t tr
          ~span_id:(Ccs.Span.fresh_id (Ccs.Flight.spans t.flight))
          ~parent:tr.root ~stage:"read" ~start_us:read_start ~end_us:t0;
      record_span t tr ~span_id:tr.root ~parent:(-1) ~stage:"request"
        ~start_us:tr.t_start ~end_us:now;
      t.last_trace <- Some (tr.trace_id, tr.root));
  (* Snapshot before responding, so a client that has seen the answer
     also sees it reflected in the next scrape. *)
  publish_metrics t;
  Ccs.Json.to_string response

let handle_line t line = handle_line_at t ~deadline_at:None line

(* --- connection handling --------------------------------------------------- *)

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(* Liveness probe: 200 plus the number of live workers — those whose
   [worker-<pid>.json] snapshot names a running process.  A dead
   worker's snapshot stays behind for the scrape, so the file count
   alone would overcount after a respawn. *)
let healthz t =
  let live f =
    match Scanf.sscanf f "worker-%d.json%!" Fun.id with
    | pid when pid > 0 -> (
        match Unix.kill pid 0 with
        | () -> true
        | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
        | exception Unix.Unix_error _ -> true (* exists, not ours *))
    | _ | (exception (Scanf.Scan_failure _ | Failure _ | End_of_file)) -> false
  in
  let workers =
    match Sys.readdir (metrics_dir t) with
    | exception Sys_error _ -> 0
    | files -> Array.fold_left (fun n f -> if live f then n + 1 else n) 0 files
  in
  Printf.sprintf "{\"ok\":true,\"workers\":%d}\n" workers

(* Minimal HTTP/1.0 response for probe-style monitoring; everything else
   on the socket is the line protocol.  Content-Length always describes
   the body, and HEAD sends the headers only — so clients that trust the
   headers (curl, kube probes) never hang or over-read. *)
let http_page t first_line =
  let meth, target =
    match String.split_on_char ' ' (strip_cr first_line) with
    | m :: target :: _ -> (m, target)
    | m :: _ -> (m, "/")
    | [] -> ("GET", "/")
  in
  let status, body =
    if target = "/metrics" then ("200 OK", scrape t)
    else if target = "/healthz" then ("200 OK", healthz t)
    else ("404 Not Found", "not found\n")
  in
  let headers =
    Printf.sprintf
      "HTTP/1.0 %s\r\nContent-Type: text/plain; version=0.0.4\r\n\
       Content-Length: %d\r\nConnection: close\r\n\r\n"
      status (String.length body)
  in
  if meth = "HEAD" then headers else headers ^ body

let is_http line =
  let has p =
    let n = String.length p in
    String.length line >= n && String.sub line 0 n = p
  in
  has "GET " || has "HEAD "

(* Per-connection state in the worker's event loop.  [out]/[out_off] is
   the unflushed tail of the response stream; [deadline_at] is armed by
   the first byte of a request and cleared when its response has fully
   drained, so the budget covers read, plan build and write. *)
type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable out : string;
  mutable out_off : int;
  mutable deadline_at : int; (* Clock us; 0 = no budget armed *)
  mutable read_start : int; (* Clock us of the request's first byte; 0 = none *)
  mutable wr : (string * int * int) option;
      (* (trace_id, root span id, write start) of the response being
         drained, pending its write span *)
  mutable started : bool; (* saw the first line (protocol decided) *)
  mutable closing : bool; (* close once [out] drains *)
}

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* The worker event loop: a single [select]-driven process multiplexing
   the shared listening socket and up to [max_inflight] connections.
   Concurrency is what makes shedding meaningful — a worker saturated
   with slow clients still accepts, answers [overloaded] and closes,
   instead of leaving connects queued in the kernel backlog. *)
let serve_loop t listen_fd ~stop =
  if t.config.deadline_ms > 0 then install_alarm ();
  Unix.set_nonblock listen_fd;
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let inflight () = Hashtbl.length conns in
  let note_inflight () = Metrics.set t.m.inflight (inflight ()) in
  let drop c =
    Hashtbl.remove conns c.fd;
    close_fd c.fd;
    note_inflight ()
  in
  let enqueue c s =
    if c.out_off > 0 then begin
      (* compact before appending so offsets stay small *)
      c.out <- String.sub c.out c.out_off (String.length c.out - c.out_off);
      c.out_off <- 0
    end;
    c.out <- c.out ^ s
  in
  let flush_pending c =
    (* opportunistic write; the remainder waits for writability *)
    let len = String.length c.out - c.out_off in
    if len > 0 then
      match Unix.write_substring c.fd c.out c.out_off len with
      | n -> c.out_off <- c.out_off + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error (_, _, _) -> c.closing <- true
  in
  let drained c = String.length c.out = c.out_off in
  (* A response just left the wire in full: only then is the request's
     deadline discharged.  [out] is reset so an empty buffer always means
     "no response pending" — [readable] must not treat a conn that has
     not answered anything yet as having drained a response (that would
     disarm a mid-read deadline the moment the first bytes arrive). *)
  let after_drain c =
    (match c.wr with
    | Some (trace_id, root, w0) ->
        (* the response has fully left the wire: close the write span *)
        record_span t
          { trace_id; root; t_start = w0 }
          ~span_id:(Ccs.Span.fresh_id (Ccs.Flight.spans t.flight))
          ~parent:root ~stage:"write" ~start_us:w0
          ~end_us:(Ccs.Clock.now_us ());
        c.wr <- None
    | None -> ());
    c.out <- "";
    c.out_off <- 0;
    c.deadline_at <- 0;
    if t.die_after_flush then begin
      (* chaos Worker_kill: the response is on the wire, so the contract
         "every accepted request gets exactly one response" holds; dying
         here exercises the parent's respawn path. *)
      Ccs.Log.warn t.config.log "chaos: worker exiting" [];
      exit 70
    end;
    if c.closing then drop c
  in
  let accept_one () =
    match Unix.accept ~cloexec:true listen_fd with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | cfd, _ ->
        Unix.set_nonblock cfd;
        let c =
          {
            fd = cfd;
            inbuf = Buffer.create 256;
            out = "";
            out_off = 0;
            deadline_at = 0;
            read_start = 0;
            wr = None;
            started = false;
            closing = false;
          }
        in
        if t.config.max_inflight > 0 && inflight () >= t.config.max_inflight
        then begin
          (* Shed: a structured answer and a clean close, so the client
             backs off instead of timing out against a silent queue. *)
          Metrics.inc t.m.shed;
          flight_dump t ~trigger:"shed";
          let err =
            E.Overloaded
              {
                inflight = inflight ();
                limit = t.config.max_inflight;
                retry_after_ms = t.config.retry_after_ms;
              }
          in
          enqueue c (Ccs.Json.to_string (Protocol.error_response err) ^ "\n");
          c.closing <- true;
          Hashtbl.replace conns cfd c;
          publish_metrics t;
          flush_pending c;
          if drained c then drop c
        end
        else begin
          Hashtbl.replace conns cfd c;
          note_inflight ()
        end
  in
  let process_lines c =
    let data = Buffer.contents c.inbuf in
    if (not c.started) && String.contains data '\n' && is_http data then begin
      c.started <- true;
      enqueue c (http_page t data);
      c.closing <- true
    end
    else begin
      let rec go start =
        match String.index_from_opt data start '\n' with
        | None ->
            Buffer.clear c.inbuf;
            Buffer.add_substring c.inbuf data start (String.length data - start)
        | Some nl ->
            c.started <- true;
            let line = strip_cr (String.sub data start (nl - start)) in
            if line <> "" then begin
              let deadline_at =
                if c.deadline_at > 0 then Some c.deadline_at else None
              in
              let read_start = c.read_start in
              c.read_start <- 0;
              let response =
                (* Last-resort containment: no input line may crash the
                   worker or go unanswered — anything that escapes the
                   structured paths still yields exactly one error line. *)
                try handle_line_at t ~read_start ~deadline_at line
                with e ->
                  disarm_alarm ();
                  t.last_trace <- None;
                  Metrics.inc t.m.errors;
                  Ccs.Log.error t.config.log "request handler raised"
                    [ ("exn", Ccs.Json.String (Printexc.to_string e)) ];
                  flight_dump t ~trigger:"containment";
                  Ccs.Json.to_string
                    (Protocol.error_response
                       (E.Failure_msg
                          {
                            context = "serve";
                            reason = Printexc.to_string e;
                          }))
              in
              (match t.last_trace with
              | Some (trace_id, root) ->
                  (* the write span opens when the response is enqueued
                     and closes in [after_drain] *)
                  c.wr <- Some (trace_id, root, Ccs.Clock.now_us ());
                  t.last_trace <- None
              | None -> ());
              enqueue c (response ^ "\n")
            end;
            go (nl + 1)
      in
      go 0
    end
  in
  let readable c =
    let bytes = Bytes.create 4096 in
    match Unix.read c.fd bytes 0 4096 with
    | 0 -> if drained c then drop c else c.closing <- true
    | n ->
        if c.deadline_at = 0 && t.config.deadline_ms > 0 then
          c.deadline_at <-
            Ccs.Clock.now_us () + (t.config.deadline_ms * 1000);
        if c.read_start = 0 && t.config.tracing then
          c.read_start <- Ccs.Clock.now_us ();
        Buffer.add_subbytes c.inbuf bytes 0 n;
        process_lines c;
        flush_pending c;
        if String.length c.out > 0 && drained c then after_drain c
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error (_, _, _) -> drop c
  in
  let writable c =
    flush_pending c;
    if drained c then after_drain c
  in
  let expire_deadlines () =
    if t.config.deadline_ms > 0 then begin
      let now = Ccs.Clock.now_us () in
      let expired =
        Hashtbl.fold
          (fun _ c acc ->
            if c.deadline_at > 0 && now >= c.deadline_at then c :: acc else acc)
          conns []
      in
      List.iter
        (fun c ->
          Metrics.inc t.m.deadline_exceeded;
          if t.config.tracing && c.read_start > 0 then begin
            (* leave the stalled read in the black box: a root span plus
               its half-open read stage, ending at expiry *)
            let tr = fresh_trace t ~t_start:c.read_start in
            let now = Ccs.Clock.now_us () in
            record_span t tr
              ~span_id:(Ccs.Span.fresh_id (Ccs.Flight.spans t.flight))
              ~parent:tr.root ~stage:"read" ~start_us:c.read_start
              ~end_us:now;
            record_span t tr ~span_id:tr.root ~parent:(-1) ~stage:"request"
              ~start_us:c.read_start ~end_us:now;
            c.read_start <- 0
          end;
          flight_dump t ~trigger:"deadline-exceeded";
          if drained c then begin
            (* mid-read stall: answer the half-sent request and close *)
            let err =
              E.Deadline_exceeded
                { stage = "read"; budget_ms = t.config.deadline_ms }
            in
            enqueue c
              (Ccs.Json.to_string (Protocol.error_response err) ^ "\n");
            c.closing <- true;
            publish_metrics t;
            flush_pending c;
            if drained c then drop c else c.deadline_at <- 0
          end
          else
            (* mid-write stall: the client is not reading its response;
               reclaim the worker slot *)
            drop c)
        expired
    end
  in
  (* [die_after_flush] is acted on in [after_drain] (never here), so a
     pending chaos kill cannot tear a half-written response. *)
  while not (stop ()) do
    let rs =
      listen_fd
      :: Hashtbl.fold (fun fd c acc -> if c.closing then acc else fd :: acc)
           conns []
    in
    let ws =
      Hashtbl.fold (fun fd c acc -> if drained c then acc else fd :: acc)
        conns []
    in
    match Unix.select rs ws [] 0.1 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        (* a signal (e.g. SIGCHLD in single-process setups) must not
           abort accepting *)
        ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) ->
        (* a connection died under us between building the sets and
           selecting; reap closed fds lazily via their next event *)
        ()
    | rs', ws', _ ->
        if List.memq listen_fd rs' then accept_one ();
        List.iter
          (fun fd ->
            match Hashtbl.find_opt conns fd with
            | Some c -> writable c
            | None -> ())
          ws';
        List.iter
          (fun fd ->
            if fd != listen_fd then
              match Hashtbl.find_opt conns fd with
              | Some c -> readable c
              | None -> ())
          rs';
        expire_deadlines ()
  done;
  Hashtbl.iter (fun _ c -> close_fd c.fd) conns

(* --- sockets and process structure ----------------------------------------- *)

let stop = ref false

let listen_fd config =
  let fd =
    match config.address with
    | Unix_socket path ->
        (* A stale socket file from a crashed daemon would make bind
           fail; nothing can be listening on it if we are starting. *)
        if Sys.file_exists path then (
          try Unix.unlink path with Unix.Unix_error _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        fd
    | Tcp (host, port) ->
        let addr =
          try Unix.inet_addr_of_string host
          with Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } ->
                failwith ("cannot resolve " ^ host)
            | h -> h.Unix.h_addr_list.(0)
            | exception Not_found -> failwith ("cannot resolve " ^ host))
        in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (addr, port));
        fd
  in
  Unix.listen fd (max 1 config.backlog);
  fd

let cleanup config fd =
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match config.address with
  | Unix_socket path -> (
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | Tcp _ -> ()

let clear_stale_snapshots config =
  let dir = Filename.concat config.dir "metrics" in
  if Sys.file_exists dir then
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".json" then
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir)

let install_stop_handlers () =
  let handler = Sys.Signal_handle (fun _ -> stop := true) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let worker config fd =
  let t = make config in
  (* Children die on SIGTERM (the parent reaps them; only the parent
     runs the graceful-cleanup path) — but first the black box hits the
     disk, so a shutdown still leaves the last-N requests on record. *)
  let die _ =
    (try flight_dump t ~trigger:"sigterm" with _ -> ());
    exit 0
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle die);
  Sys.set_signal Sys.sigint (Sys.Signal_handle die);
  t.report_store <- false;
  publish_metrics t;
  serve_loop t fd ~stop:(fun () -> !stop);
  exit 0

(* --- parent supervision: respawn backoff and the circuit breaker ----------- *)

type supervisor = {
  sm : metrics; (* the parent's own registry: restarts + store gauges *)
  mutable spawned_at : (int * int) list; (* pid -> Clock us at spawn *)
  mutable rapid_deaths : int; (* consecutive deaths under min_uptime *)
  mutable quarantined : int; (* worker slots the breaker has retired *)
  mutable respawn_due : int option; (* Clock us; backoff gate *)
  mutable want : int; (* workers we should be running *)
}

let parent_snapshot_path config =
  Filename.concat (Filename.concat config.dir "metrics") "parent.json"

let publish_parent config s ~quarantined_gauge =
  (* The parent owns the store gauges: one process scanning the shared
     directory reports the truth once, instead of every worker's mirror
     being summed by the scrape merge. *)
  let records = Plan_cache.Bounded.scan (cache_dir config) in
  Metrics.set s.sm.store_bytes
    (List.fold_left (fun b r -> b + r.Plan_cache.Bounded.size) 0 records);
  Metrics.set s.sm.store_entries (List.length records);
  Metrics.set quarantined_gauge s.quarantined;
  Plan_cache.ensure_dir (Filename.concat config.dir "metrics");
  Ccs.Binio.write_atomic ~path:(parent_snapshot_path config)
    (Metrics.to_json_string s.sm.registry ^ "\n")

let supervise config fd =
  (* The parent keeps its own black box (no spans — it serves no
     requests — but the recent supervision log survives a breaker
     trip). *)
  let flight = Ccs.Flight.create () in
  let config =
    { config with log = Ccs.Log.tee config.log (Ccs.Flight.note_log flight) }
  in
  let sm = make_metrics () in
  let quarantined_gauge =
    Metrics.gauge sm.registry
      ~help:"Worker slots retired by the crash-loop circuit breaker."
      "ccs_serve_workers_quarantined"
  in
  let s =
    {
      sm;
      spawned_at = [];
      rapid_deaths = 0;
      quarantined = 0;
      respawn_due = None;
      want = config.workers;
    }
  in
  let spawn () =
    match Unix.fork () with
    | 0 -> worker config fd
    | pid -> s.spawned_at <- (pid, Ccs.Clock.now_us ()) :: s.spawned_at
  in
  for _ = 1 to config.workers do
    spawn ()
  done;
  publish_parent config s ~quarantined_gauge;
  let nap () =
    try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let backoff_ms () =
    (* 50ms, 100ms, ... doubling per consecutive rapid death, capped *)
    min 5000 (50 * (1 lsl max 0 (s.rapid_deaths - 1)))
  in
  let on_death pid =
    match List.assoc_opt pid s.spawned_at with
    | None -> () (* not ours *)
    | Some spawned ->
        s.spawned_at <- List.remove_assoc pid s.spawned_at;
        if not !stop then begin
          let uptime_ms = (Ccs.Clock.now_us () - spawned) / 1000 in
          if uptime_ms < config.min_uptime_ms then
            s.rapid_deaths <- s.rapid_deaths + 1
          else s.rapid_deaths <- 0;
          if s.rapid_deaths >= config.breaker_limit then begin
            (* Crash loop: retire the slot instead of burning CPU on a
               deterministic failure.  Remaining workers keep serving. *)
            s.quarantined <- s.quarantined + 1;
            s.want <- s.want - 1;
            s.rapid_deaths <- 0;
            Ccs.Log.error config.log "worker slot quarantined"
              [
                ("pid", Ccs.Json.Int pid);
                ("uptime_ms", Ccs.Json.Int uptime_ms);
                ("remaining", Ccs.Json.Int s.want);
              ];
            Metrics.inc sm.flight_dumps;
            (try
               ignore
                 (Ccs.Flight.dump flight ~dir:(flight_dir config)
                    ~trigger:"breaker-quarantine" ~pid:(Unix.getpid ())
                    ~at_us:(Ccs.Clock.now_us ()))
             with Sys_error _ -> ())
          end
          else begin
            Metrics.inc s.sm.worker_restarts;
            let delay = if s.rapid_deaths = 0 then 0 else backoff_ms () in
            Ccs.Log.warn config.log "worker died, respawning"
              [
                ("pid", Ccs.Json.Int pid);
                ("uptime_ms", Ccs.Json.Int uptime_ms);
                ("backoff_ms", Ccs.Json.Int delay);
              ];
            let due = Ccs.Clock.now_us () + (delay * 1000) in
            s.respawn_due <-
              Some
                (match s.respawn_due with
                | None -> due
                | Some d -> max d due)
          end;
          publish_parent config s ~quarantined_gauge
        end
  in
  let tick = ref 0 in
  while not !stop do
    (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | 0, _ -> nap ()
    | pid, _ -> on_death pid
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> nap ());
    (match s.respawn_due with
    | Some due
      when Ccs.Clock.now_us () >= due
           && List.length s.spawned_at < s.want && not !stop ->
        s.respawn_due <- None;
        spawn ()
    | _ -> ());
    incr tick;
    if !tick mod 20 = 0 then publish_parent config s ~quarantined_gauge
  done;
  List.iter
    (fun (pid, _) ->
      try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    s.spawned_at;
  List.iter
    (fun (pid, _) ->
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    s.spawned_at

let run config =
  install_stop_handlers ();
  Plan_cache.ensure_dir config.dir;
  clear_stale_snapshots config;
  let fd = listen_fd config in
  Ccs.Log.info config.log "listening"
    [
      ("address", Ccs.Json.String (pp_address config.address));
      ("dir", Ccs.Json.String config.dir);
      ("workers", Ccs.Json.Int config.workers);
      ("backlog", Ccs.Json.Int config.backlog);
      ("deadline_ms", Ccs.Json.Int config.deadline_ms);
      ("max_inflight", Ccs.Json.Int config.max_inflight);
    ];
  if config.workers <= 0 then begin
    (* Inline mode: one process runs the worker loop itself. *)
    let t = make config in
    publish_metrics t;
    serve_loop t fd ~stop:(fun () -> !stop);
    (try flight_dump t ~trigger:"sigterm" with _ -> ());
    cleanup config fd
  end
  else begin
    supervise config fd;
    cleanup config fd
  end

(* --- client side ----------------------------------------------------------- *)

let connect address =
  match address with
  | Unix_socket path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  | Tcp (host, port) ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (addr, port));
      fd

let request ?(timeout_ms = 0) address line =
  let fd = connect address in
  if timeout_ms > 0 then begin
    (* socket-level timeouts: a stalled daemon surfaces as a transport
       error the retry loop can act on, not a hung client *)
    let s = float_of_int timeout_ms /. 1000.0 in
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
  end;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      output_string oc line;
      output_char oc '\n';
      flush oc;
      input_line ic)

(* Retrying client: jittered exponential backoff over transport errors,
   mid-stream EOF and structured [overloaded] responses (honouring their
   [retry_after_ms] hint).  Safe because plan requests are idempotent by
   {!Ccs.Plan_key} digest — a replay either hits the record the lost
   answer stored, or rebuilds the identical artifact. *)
let overloaded_retry_after line =
  match Ccs.Json.of_string line with
  | Ok v -> (
      match Ccs.Json.member "error" v with
      | Some err -> (
          match Ccs.Json.member "code" err with
          | Some (Ccs.Json.String "overloaded") ->
              Some
                (Option.value ~default:0
                   (Option.bind
                      (Ccs.Json.member "retry_after_ms" err)
                      Ccs.Json.to_int))
          | _ -> None)
      | None -> None)
  | Error _ -> None

let request_retry ?(retries = 0) ?(backoff_ms = 50) ?(timeout_ms = 0)
    ?(seed = 0) address line =
  (* A shedding daemon closes right after its answer, so a request
     written after that close must surface as EPIPE, a transport failure
     to retry, instead of killing the client with SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* xorshift64*, seeded per call so concurrent clients spread out *)
  let rng = ref (Int64.of_int ((seed lxor 0x9e3779b9) lor 1)) in
  let next_jitter bound =
    let x = !rng in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    rng := x;
    if bound <= 0 then 0
    else Int64.to_int (Int64.rem (Int64.shift_right_logical x 3) (Int64.of_int bound))
  in
  let sleep_ms ms =
    if ms > 0 then
      try Unix.sleepf (float_of_int ms /. 1000.0)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let rec go attempt =
    let retry hint =
      let base = backoff_ms * (1 lsl min attempt 10) in
      sleep_ms (max hint base + next_jitter (max 1 base));
      go (attempt + 1)
    in
    match request ~timeout_ms address line with
    | line -> (
        match overloaded_retry_after line with
        | Some hint when attempt < retries -> retry hint
        | _ -> line (* out of retries: surface the overloaded response *))
    | exception (Unix.Unix_error _ | End_of_file | Sys_error _ | Sys_blocked_io)
      when attempt < retries ->
        retry 0
  in
  go 0
