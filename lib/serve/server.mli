(** The scheduling daemon: sockets, workers, deadlines, shedding,
    supervision, metrics, shutdown.

    [run config] binds the configured address (a Unix-domain socket path
    or a TCP host/port), then either serves inline ([workers <= 0]: one
    process running the worker event loop — the mode unit tests use) or
    preforks [workers] children that share the listening socket.  Each
    worker multiplexes its connections with [select], so a stalled
    client never blocks the others; each connection speaks the line
    protocol ({!Protocol}), and a connection whose first line is an HTTP
    [GET]/[HEAD] instead gets a one-shot HTTP/1.0 answer —
    [GET /metrics] returns the Prometheus page merged across every
    published snapshot ({!Ccs.Metrics.absorb}), and [GET /healthz] the
    number of live workers.

    Production hardening:
    - {b Deadlines} ([deadline_ms > 0]): each request has a time budget
      covering read, plan build and write.  A stalled client gets a
      structured [deadline-exceeded] answer; a runaway plan build is
      preempted with [ITIMER_REAL]/[SIGALRM] and answers the same way.
    - {b Shedding} ([max_inflight > 0]): a worker at its in-flight limit
      answers new connections with a structured [overloaded] response
      carrying [retry_after_ms], then closes — never silent queueing.
      The kernel accept queue depth is [backlog].
    - {b Bounded store}: the plan cache ([dir/plans]) is a
      {!Plan_cache.Bounded} store — LRU eviction under
      [store_max_bytes]/[store_max_entries], mtime as crash-safe
      recency, corrupt records quarantined.  A per-worker in-memory hot
      cache ([hot_cache] entries, least-recently-used evicted first)
      sits in front of it.
    - {b Circuit breaker}: the parent respawns dead workers with
      exponential backoff and, after [breaker_limit] consecutive deaths
      under [min_uptime_ms], retires the crash-looping slot instead of
      burning CPU on it.
    - {b Chaos} ([chaos]): a seeded {!Ccs.Fault} serve-layer plan keyed
      on the per-worker request index — worker kills after the response
      is flushed, suppressed plan-store writes, torn records.
    - {b Tracing} ([tracing]): every request is timed per stage (read,
      parse, key, cache lookup, plan build, dry run, write) into a
      bounded per-worker {!Ccs.Span} ring, surfaced as
      [ccs_serve_stage_us{stage=...}] histograms on [/metrics] and
      exported live under [dir/trace].  Responses are bit-identical with
      tracing on or off; a client-supplied [trace_id] is echoed either
      way.
    - {b Flight recorder} (always on): recent log lines plus the span
      ring are dumped to [dir/flight/worker-<pid>-<trigger>.ccsflight]
      (Binio-framed, checksummed, atomic) on anomaly triggers —
      deadline-exceeded, shed, the containment catch-all, a breaker
      quarantine, and SIGTERM.  Read dumps back with {!Ccs.Flight.load}
      or [ccsched trace].

    All durable state lives under [config.dir]: the plan cache in
    [dir/plans], metrics snapshots in [dir/metrics], flight dumps in
    [dir/flight] and live traces in [dir/trace].  Workers share
    the cache directory without coordination — records are atomically
    written and keyed by content, so races between workers are benign,
    and eviction re-scans the directory so every worker's records count
    against the bound.

    [SIGTERM]/[SIGINT] shut down cleanly: workers are terminated and
    reaped, the listening socket is closed and its socket file removed,
    and [run] returns (the CLI then exits 0).  [SIGPIPE] is ignored — a
    client disconnecting mid-response must not kill the daemon. *)

type address = Unix_socket of string | Tcp of string * int

type config = {
  address : address;
  dir : string;  (** State directory: plan cache + metrics snapshots. *)
  workers : int;  (** [<= 0]: serve inline in this process. *)
  log : Ccs.Log.t;
  backlog : int;  (** [listen(2)] queue depth. *)
  deadline_ms : int;  (** Per-request budget; [0] = none. *)
  max_inflight : int;
      (** Per-worker concurrent-connection cap; [0] = unlimited. *)
  retry_after_ms : int;  (** Backoff hint in [overloaded] responses. *)
  store_max_bytes : int;  (** Plan-store byte bound; [0] = unbounded. *)
  store_max_entries : int;  (** Plan-store entry bound; [0] = unbounded. *)
  hot_cache : int;  (** In-memory artifact cache entries; [0] = off. *)
  min_uptime_ms : int;
      (** A worker dying sooner counts as a rapid death to the breaker. *)
  breaker_limit : int;
      (** Consecutive rapid deaths before a worker slot is retired. *)
  chaos : Ccs.Fault.env;  (** Serve-layer fault plan; [[]] = none. *)
  tracing : bool;
      (** Record per-stage spans and live trace files; off by default.
          The flight recorder itself is always on. *)
}

val default_config : address:address -> dir:string -> config
(** Production defaults, chaos-free and unbounded: override fields with
    [{ (default_config ~address ~dir) with ... }]. *)

val pp_address : address -> string

val run : config -> unit
(** Serve until [SIGTERM]/[SIGINT]; returns after cleanup. *)

(** {2 Client side} — used by [ccsched submit] and the tests. *)

val connect : address -> Unix.file_descr

val request : ?timeout_ms:int -> address -> string -> string
(** One round-trip: connect, send one request line, read one response
    line, close.  [timeout_ms > 0] arms socket send/receive timeouts so
    a stalled daemon surfaces as an error instead of a hang.
    @raise Unix.Unix_error if the daemon is unreachable. *)

val request_retry :
  ?retries:int ->
  ?backoff_ms:int ->
  ?timeout_ms:int ->
  ?seed:int ->
  address ->
  string ->
  string
(** {!request} with up to [retries] replays on transport failure,
    mid-stream EOF, or a structured [overloaded] response (sleeping at
    least its [retry_after_ms] hint).  Backoff doubles from [backoff_ms]
    per attempt with seeded jitter.  Safe because plan requests are
    idempotent by {!Ccs.Plan_key} digest.  With retries exhausted, the
    last response (or transport exception) is surfaced as-is.  Sets
    SIGPIPE to ignored for the process, so a write to a connection the
    daemon already closed is a retryable [EPIPE], not a fatal signal. *)

(** {2 Exposed for tests} *)

type t

val make : config -> t
(** A daemon state without any socket — drive it with {!handle_line}.
    Opens the bounded plan store (sweeping and quarantining, so this
    touches [config.dir]). *)

val handle_line : t -> string -> string
(** Handle one request line (the daemon's core), returning the response
    line (without the trailing newline). *)

val scrape : t -> string
(** The merged Prometheus page: every worker's published snapshot
    (a dead worker's included) absorbed into one registry. *)

val metric_value : t -> ?labels:(string * string) list -> string -> int option
(** Read one series from this process's own registry (counter value,
    gauge value, or histogram observation count) — the readback the
    tests use to compare cache-miss counts exactly. *)
