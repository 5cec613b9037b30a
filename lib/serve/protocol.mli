(** The daemon's line-framed JSON protocol.

    One request per line, one response per line.  A request is a JSON
    object with an ["op"] field:

    - [{"op":"ping"}] — liveness probe, answered with {!pong};
    - [{"op":"plan", "graph":"<Serial text>", "cache_words":m,
       "block_words":b, "ways":w?, "capacities":[..]?, "dry_run":bool?,
       "trace_id":"..."?}]
      — run the full pipeline (validation, rate analysis, partitioning,
      plan construction) and answer with the plan, its Lemma-4/8
      predicted miss bounds, and optionally a compiled-backend dry-run
      checksum.  A client-supplied [trace_id] is echoed in the response
      and carried through server log lines and stage spans, so submit
      output, logs and traces correlate.

    Malformed requests parse to a structured
    {!Ccs.Error.Request_invalid} and are answered with
    {!error_response} — the connection stays open. *)

type plan_request = {
  graph_text : string;  (** {!Ccs.Serial} text form of the graph. *)
  cache_words : int;
  block_words : int;
  ways : int option;
      (** [None] = fully-associative LRU; [Some 1] = direct-mapped;
          [Some w] = [w]-way set-associative. *)
  capacities : int array option;
      (** Pinned per-channel capacities; [None] = planner-chosen. *)
  dry_run : bool;
      (** Run one period on the compiled backend and report its output
          count and checksum. *)
  trace_id : string option;
      (** Client-chosen correlation id, echoed verbatim in the response
          and server telemetry; [None] = untraced request. *)
}

type request = Plan of plan_request | Ping

type artifact = {
  plan_name : string;
  batch : int;  (** Granularity [T] used by the schedule. *)
  components : int array;  (** Per-module component assignment. *)
  capacities : int array;
  period : Ccs.Schedule.t;
  predicted_mpi : float;  (** Lemma-4/8 predicted misses per input. *)
  bandwidth_per_input : float;
  buffer_words : int;
}
(** Everything the daemon computes for a plan request — the unit the
    persistent cache stores.  Responses are a pure function of the
    artifact, so a cache hit answers byte-identically (modulo the
    [cached] flag and elapsed time) to the build that populated it. *)

type dry_run = { outputs : int; checksum : float }

val parse_request : string -> (request, Ccs.Error.t) result
(** Parse one request line.  All failures are [Request_invalid]. *)

val plan_response :
  ?trace_id:string ->
  cached:bool ->
  key:string ->
  artifact:artifact ->
  dry_run:dry_run option ->
  elapsed_us:int ->
  unit ->
  Ccs.Json.value
(** [trace_id], when present, is echoed as a ["trace_id"] member; absent
    requests get byte-identical responses whether tracing is on or off. *)

val pong : Ccs.Json.value

val error_response : ?trace_id:string -> Ccs.Error.t -> Ccs.Json.value
(** [{"ok":false,"error":{"code":...,"message":...}}] using the stable
    {!Ccs.Error.code} tags, plus an echoed ["trace_id"] when the request
    carried one. *)
