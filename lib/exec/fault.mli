(** Seeded fault-injection plans for the runtime engine.

    A fault plan designates (module, firing-index) sites at which a wrapped
    kernel misbehaves in one of the {!Ccs_sdf.Error.fault_class} ways: it
    emits NaN outputs, reports state of the wrong arity, or raises at fire
    time.  Site selection is driven by a private xorshift generator so a
    plan is a pure function of [seed] — tests replay the exact same faults
    on every run without touching the global [Random] state.

    The plan itself is inert data; {!Ccs_runtime.Engine.inject} consults it
    to wrap a program's kernels, and the engine's containment checks turn
    each triggered site into a structured [Fault] error naming the module. *)

type site = {
  node : Ccs_sdf.Graph.node;
  fault : Ccs_sdf.Error.fault_class;
  at_fire : int;  (** Zero-based firing index of [node] at which to fire. *)
}

type t

exception
  Injected of { node : Ccs_sdf.Graph.node; fault : Ccs_sdf.Error.fault_class }
(** Raised by an injected kernel for the [Kernel_exception] class; the
    engine catches it (like any other kernel exception) and reports a
    structured fault. *)

val plan :
  ?classes:Ccs_sdf.Error.fault_class list ->
  ?horizon:int ->
  seed:int ->
  count:int ->
  Ccs_sdf.Graph.t ->
  t
(** [plan ~seed ~count g] draws [count] {e distinct} (module, firing) fault
    sites over [g]'s modules, fault classes drawn from [classes] (default
    every class) and firing indices below [horizon] (default 64).
    Deterministic in [seed]; colliding draws are redrawn so the plan always
    carries exactly [count] triggerable sites.
    @raise Ccs_sdf.Error.Error with [Empty_graph] if [g] has no modules
    (and [count > 0]).
    @raise Invalid_argument if [count] exceeds the [modules x horizon]
    site space, or on empty [classes] / non-positive [horizon]. *)

val of_sites : Ccs_sdf.Graph.t -> site list -> t
(** Hand-built plan, for tests that need a fault at an exact site. *)

val sites : t -> site list

val find :
  t -> node:Ccs_sdf.Graph.node -> fire_index:int -> Ccs_sdf.Error.fault_class option
(** The fault (if any) scheduled for [node]'s [fire_index]-th firing. *)

val pp : Format.formatter -> t -> unit

(** {2 Chaos environment plans}

    Adverse {e runtime conditions} rather than application faults: the
    cache shrinking under contention (or being restored), associativity
    changes, bursty demand, checkpoint-directory I/O faults.  Events are
    pinned to supervisor epoch indices and every plan is a pure function of
    its spec or seed, so chaos runs replay bit-identically. *)

type env_event =
  | Cache_shrink of int
      (** Effective cache capacity divided by this divisor ([>= 2]). *)
  | Cache_restore
      (** Nominal capacity and associativity restored. *)
  | Cache_ways of int
      (** Associativity forced to this many ways ([1] = direct-mapped). *)
  | Burst of { mult : int; len : int }
      (** Demand burst: the epoch workload is multiplied by [mult] for
          [len] epochs. *)
  | Io_fault of { len : int }
      (** Checkpoint-directory writes fail for [len] epochs.  In the serve
          context: plan-store writes fail for [len] requests. *)
  | Worker_kill
      (** Serve: the worker process dies right after this request's
          response is flushed — exercises the parent's respawn
          supervision and the circuit breaker ([kill@0] crash-loops). *)
  | Record_truncate
      (** Serve: the plan-store record touched by this request is
          truncated after the write — the next reader must reject it as
          [Checkpoint_corrupt] and rebuild. *)

type env_site = { at_epoch : int; event : env_event }

type env = env_site list
(** Sorted by [at_epoch] (stable for simultaneous events). *)

type conditions = {
  shrink_divisor : int;  (** [1] when the full cache is available. *)
  ways : int option;  (** Associativity override, if any. *)
  burst_mult : int;  (** [1] outside any burst window. *)
  io_faulty : bool;  (** Whether checkpoint I/O is currently failing. *)
}
(** The ambient conditions in force during one epoch — the fold of every
    event at or before it. *)

val nominal : conditions

val env_of_sites : env_site list -> env
(** Validate and sort a hand-built event list.
    @raise Invalid_argument on negative epochs or out-of-range event
    parameters. *)

val conditions_at : env -> int -> conditions
(** The conditions in force at a given epoch index.  Serve-layer events
    ([Worker_kill], [Record_truncate]) are instantaneous and do not
    contribute; consume them with {!events_at}. *)

val events_at : env -> int -> env_event list
(** The events pinned to exactly this epoch, in spec order — how the
    daemon and the soak driver consume serve-layer chaos. *)

val env_cache_config :
  Ccs_cache.Cache.config -> conditions -> Ccs_cache.Cache.config
(** The cache configuration the environment imposes on a base config:
    capacity divided by the shrink divisor (clamped to at least one block,
    rounded down to whole blocks), policy overridden by any associativity
    event.  Block geometry never changes. *)

type consumer =
  | Run  (** A supervised run: the cache-adversity events. *)
  | Serve  (** The daemon: the serve-layer events. *)

val parse_env : consumer -> string -> env
(** Parse a chaos spec for its consumer: comma-separated events.  A run
    takes [shrink@E:D], [restore@E], [ways@E:N], [burst@E:MxL],
    [iofault@E:L] and [rand@SEED:COUNT[:HORIZON]]; the daemon takes
    [kill@E], [truncate@E], [iofault@E:L] and
    [srand@SEED:COUNT[:HORIZON]].  [rand] draws [COUNT] shrinks, restores,
    bursts and I/O faults, and [srand] [COUNT] worker kills, plan-store I/O
    faults and truncated records, at epochs below [HORIZON] (default 32),
    deterministically in [SEED].
    @raise Ccs_sdf.Error.Error with a [Failure_msg] (context
    ["chaos spec"]) naming the offending atom on malformed input or on an
    event the consumer does not act on. *)

val env_to_string : env -> string
(** Canonical spec round-trip: [parse_env (env_to_string e)] has the same
    sites as [e] (a [rand@...] atom expands to its drawn events). *)

val pp_env : Format.formatter -> env -> unit
