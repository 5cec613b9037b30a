(** Structured errors for the whole scheduling/execution stack.

    The paper's guarantees (Lemmas 4 and 8) only hold for inputs satisfying
    preconditions — consistent SDF rates, well-ordered [c]-bounded
    partitions, channel capacities at least the maximum rate.  Every
    validator in the stack reports violations as a value of {!t}: a variant
    naming the defect class plus enough context (module/channel/component
    names, expected-versus-actual values) to act on the report without a
    stack trace.  {!code} gives each defect class a stable kebab-case tag
    used by [ccsched check] and by tests. *)

type fault_class =
  | Nan_output  (** A kernel produced non-finite output tokens. *)
  | Bad_state_arity
      (** A kernel's state has the wrong number of words for its module. *)
  | Kernel_exception  (** A kernel raised during {e fire}. *)

type channel_state = {
  chan : string;  (** ["src->dst#e"]. *)
  edge : int;
  occupied : int;
  capacity : int;
}

type blocked = { node : string; reason : string }

type snapshot = {
  fired : int;
  inputs : int;
  outputs : int;
  channels : channel_state list;
  blocked : blocked list;  (** Every non-fireable module and why. *)
}
(** Diagnostic machine state captured when execution cannot proceed. *)

type t =
  | Io of { path : string; reason : string }
  | Parse of { line : int; reason : string }
  | At_line of { line : int; err : t }
      (** Wraps a structural defect with the input line it came from. *)
  | Empty_graph
  | Dangling_edge of { edge : int; endpoint : int; num_nodes : int }
  | Degenerate_edge of { edge : int; node : string }  (** Self-loop. *)
  | Nonpositive_rate of {
      edge : int;
      src : string;
      dst : string;
      push : int;
      pop : int;
    }
  | Negative_delay of { edge : int; src : string; dst : string; delay : int }
  | Negative_state of { node : string; state : int }
  | Duplicate_module of { name : string }
  | Unknown_module of { name : string }
  | Deadlock_cycle of { cycle : string list; total_delay : int }
      (** A directed cycle; with [total_delay = 0] no module on it can ever
          fire (deadlock by insufficient delay). *)
  | Rate_inconsistent of { node : string; gain_a : string; gain_b : string }
      (** The witness module whose gain differs along two paths. *)
  | Disconnected of { reachable : int; total : int }
  | Multiple_sources of { nodes : string list }  (** Warning. *)
  | Multiple_sinks of { nodes : string list }  (** Warning. *)
  | Not_well_ordered of { components : int list; witness : string }
      (** Component cycle in the contracted graph plus a witness edge. *)
  | Component_overflow of {
      component : int;
      state : int;
      bound : int;
      members : string list;
    }  (** c-boundedness violation (Definition 2). *)
  | Degree_exceeded of { component : int; degree : int; bound : int }
      (** Degree-limited violation (Lemma 8). *)
  | Capacity_below_rate of {
      edge : int;
      src : string;
      dst : string;
      capacity : int;
      required : int;
    }  (** A buffer that admits neither a push nor a pop. *)
  | Capacity_infeasible of { reason : string }
      (** No periodic schedule exists under the given capacities. *)
  | Cache_overflow of { component : int; state : int; cache_words : int }
      (** Warning: a component bigger than the whole cache. *)
  | Cache_config_invalid of { field : string; value : int; reason : string }
      (** A cache configuration the simulator cannot honestly model: block
          size not dividing capacity, more ways than blocks, zero or
          negative capacity.  Reported by [ccsched check] before the deep
          layers would trip on it. *)
  | Schedule_illegal of {
      node : string;
      edge : string;
      at_firing : int;
      kind : [ `Underflow | `Overflow ];
    }
  | Plan_invalid of { plan : string; reason : string }
  | Deadlocked of { plan : string; detail : string; snapshot : snapshot }
  | Budget_exhausted of { plan : string; budget : int; snapshot : snapshot }
  | Fault of { node : string; fault : fault_class; detail : string }
  | Failure_msg of { context : string; reason : string }
      (** Wrapper for legacy string errors not yet given structure. *)
  | Request_invalid of { reason : string }
      (** A malformed request to the scheduling service: unparseable JSON,
          a missing/mistyped field, or an unknown operation.  The daemon
          answers these with a structured error response and keeps the
          connection open. *)
  | Deadline_exceeded of { stage : string; budget_ms : int }
      (** A serve request blew its per-request time budget — during
          [stage] ("read", "plan" or "write").  Slow clients and runaway
          planner runs both land here: the daemon answers with this
          structured error and reclaims the worker instead of hanging. *)
  | Overloaded of { inflight : int; limit : int; retry_after_ms : int }
      (** The daemon is at its in-flight connection limit and is shedding
          rather than queueing.  [retry_after_ms] is the backoff hint the
          response carries; requests are idempotent by plan key, so a
          retry is always safe. *)
  | Checkpoint_corrupt of { path : string; reason : string }
      (** A checkpoint file that fails framing validation: bad magic,
          truncation, checksum mismatch, or a malformed payload. *)
  | Checkpoint_version of { path : string; found : int; expected : int }
      (** A checkpoint written by an incompatible format version. *)
  | Checkpoint_mismatch of {
      path : string;
      field : string;
      expected : string;
      found : string;
    }
      (** A structurally valid checkpoint taken under a different [field]
          (graph, cache configuration, capacities, plan, observers) than
          the run trying to resume from it. *)
  | Quarantined of {
      plan : string;
      plan_digest : string option;
          (** {!Ccs_sched.Plan.id} of the plan that was live when the fault
              hit — after an adaptation this names the {e adapted} plan,
              not the one the run started with. *)
      site : string;  (** Module/fault-class (or error code) that failed. *)
      firing : int;  (** Machine firing count at the point of failure. *)
      attempts : int;  (** Retries spent before giving up. *)
      checkpoint : string option;
          (** Last good checkpoint, for offline replay of the failure. *)
      cause : t;
    }
      (** The supervisor's terminal verdict: a site faulted
          deterministically (same site, same firing index, twice in a row)
          or exhausted the retry budget. *)

exception Error of t

val fail : t -> 'a
(** [fail e] raises {!Error}[ e]. *)

val code : t -> string
(** Stable kebab-case defect-class tag, e.g. ["rate-inconsistent"],
    ["capacity-below-rate"].  [At_line] is transparent. *)

val severity : t -> [ `Error | `Warning ]
(** Warnings ([multiple-sources], [multiple-sinks], [cache-overflow]) are
    conditions the stack can run despite; everything else violates a
    precondition outright. *)

val fault_class_to_string : fault_class -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val protect : (unit -> 'a) -> ('a, t) result
(** Run a thunk, catching {!Error}, [Invalid_argument], [Failure] and
    [Sys_error] into structured errors.  ({!Graph.Invalid_graph} is caught
    by callers that see the [Graph] module; this module sits below it.) *)
