(** Flight recorder: a crash-surviving black box for the serving stack.

    Bundles a bounded {!Span} ring with a bounded ring of recent log
    lines.  On an anomaly trigger (deadline-exceeded, shed, containment
    catch-all, breaker quarantine, SIGTERM) the daemon calls {!dump},
    which freezes both rings into a Binio-framed, checksummed,
    atomically written per-worker file — so the last-N requests before
    any failure survive for post-mortem even if the worker dies
    immediately after.

    The file format shares the discipline of checkpoints and plan-cache
    records: 8-byte magic ["CCSFLGT1"], version, length, FNV-1a 64
    checksum.  {!load} rejects truncation, bit corruption and version
    skew with structured {!Ccs_sdf.Error.t} values — a corrupt dump is
    a reported error, never a crash. *)

type t

val create : ?span_capacity:int -> ?log_capacity:int -> unit -> t
(** Fresh recorder.  [span_capacity] (default 256) bounds the span
    ring; [log_capacity] (default 128) bounds the retained log lines. *)

val spans : t -> Span.t
(** The live span ring; the daemon records stage spans into it. *)

val note_log : t -> string -> unit
(** Mirror one rendered log line into the ring (see {!Log.tee}). *)

(** A decoded flight dump. *)
type dump = {
  trigger : string;  (** what fired the dump, e.g. ["deadline-exceeded"] *)
  pid : int;
  at_us : int;  (** dump timestamp, caller-supplied microseconds *)
  seq : int;  (** dump ordinal for this recorder (0-based) *)
  dropped_spans : int;  (** spans lost to ring eviction before the dump *)
  spans : Span.span list;  (** oldest first *)
  logs : string list;  (** oldest first *)
}

val dump : t -> dir:string -> trigger:string -> pid:int -> at_us:int -> string
(** [dump t ~dir ~trigger ~pid ~at_us] snapshots the recorder and
    writes it to [dir/worker-<pid>-<trigger>.ccsflight], creating [dir]
    if needed; returns the path.  One file per (worker, trigger), newest
    wins — a later graceful-shutdown dump never overwrites the
    deadline-exceeded evidence.  [trigger] must be filename-safe.
    @raise Sys_error on I/O failure. *)

val load : path:string -> (dump, Ccs_sdf.Error.t) result
(** Read a dump back, validating the whole frame and payload schema. *)
