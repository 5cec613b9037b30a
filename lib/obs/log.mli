(** Levelled structured logging as JSON lines.

    Each event is one self-contained JSON object on its own line:
    [{"seq":N,"lvl":"info","ev":"epoch", ...fields}] — machine-parseable
    (every line is valid JSON on its own, so a truncated file loses at
    most its last line) and cheap: below the threshold a call is a single
    integer comparison; above it, one buffer is built and handed to the
    sink.  There is no wall-clock timestamp by default — the simulators
    are deterministic and log logical quantities (epochs, ticks, firing
    counts); callers that want real time opt in with [?now] (the daemon
    passes [Ccs.Clock.now_us]), which adds a ["ts_us"] member so log
    lines correlate with {!Span} timelines. *)

type level = Debug | Info | Warn | Error

val level_of_string : string -> level option
(** Accepts ["debug"], ["info"], ["warn"]/["warning"], ["error"]. *)

type t

val to_channel : ?level:level -> ?now:(unit -> int) -> out_channel -> t
(** Flushes the channel after every line, so each event is durable the
    moment it is emitted — channel loggers back long-running processes
    that may be killed by a signal at any point. *)

val to_buffer : ?level:level -> ?now:(unit -> int) -> Buffer.t -> t

val null : t
(** Drops everything below [Error] and sends the rest nowhere — a
    convenient default for optional [?log] parameters. *)

val tee : t -> (string -> unit) -> t
(** [tee t extra] is a new logger with [t]'s threshold, clock and sink
    that additionally hands every rendered line to [extra] — used to
    mirror log lines into the flight recorder ring.  The copy starts
    from [t]'s current [seq] and the two do not share mutable state, so
    wrap once at process start. *)

val lines : t -> int
(** Events emitted so far (the next event's [seq]). *)

val log : t -> level -> string -> (string * Json.value) list -> unit
(** [log t lvl event fields] emits one line if [lvl] passes the
    threshold.  [event] names the event kind; [fields] are appended as
    JSON members after [seq]/[lvl]/[ev]. *)

val info : t -> string -> (string * Json.value) list -> unit
val warn : t -> string -> (string * Json.value) list -> unit
val error : t -> string -> (string * Json.value) list -> unit
