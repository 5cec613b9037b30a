(** Request-scoped spans: a bounded per-worker ring of timed stages.

    A span is one timed stage of a request (read, parse, key, cache
    lookup, plan build, dry run, write) tied to a trace by [trace_id] and
    to its parent span by [parent].  The ring is fixed-capacity and
    overwrites the oldest span once full, so a worker always holds the
    last-N spans for the flight recorder ({!Flight}) at O(capacity)
    memory, no matter how long it has been up.

    Timestamps are plain microsecond integers supplied by the caller
    (the daemon passes [Ccs.Clock.now_us]); this library stays
    clock-free so deterministic tests can fabricate timelines. *)

type span = {
  trace_id : string;  (** correlates spans, log lines and responses *)
  span_id : int;  (** unique within one recorder *)
  parent : int;  (** parent span id, or [-1] for a root span *)
  stage : string;  (** e.g. ["request"], ["parse"], ["plan_build"] *)
  start_us : int;
  end_us : int;
}

type t

val create : ?capacity:int -> unit -> t
(** Fresh ring.  [capacity] (default 256) is the number of retained
    spans; recording past it drops the oldest. *)

val capacity : t -> int

val fresh_id : t -> int
(** Next span id: monotonically increasing from 0, unique per recorder. *)

val record :
  t ->
  trace_id:string ->
  span_id:int ->
  parent:int ->
  stage:string ->
  start_us:int ->
  end_us:int ->
  unit
(** Append a finished span, evicting the oldest when full. *)

val length : t -> int
(** Spans currently retained (<= capacity). *)

val total : t -> int
(** Spans ever recorded. *)

val dropped : t -> int
(** Spans evicted by the ring ([total - length]). *)

val to_list : t -> span list
(** Retained spans, oldest first. *)

val duration_us : span -> int
(** [max 0 (end_us - start_us)]. *)
