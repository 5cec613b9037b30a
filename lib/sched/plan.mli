(** Execution plans: a scheduler's complete prescription for running a
    streaming graph — buffer capacities plus a driver that produces
    outputs.

    Plans unify static schedulers (which emit a periodic {!Schedule.t}) and
    dynamic ones (which decide firings online from buffer occupancies, like
    the paper's half-full pipeline rule), so the experiment harness can
    treat every scheduler identically: build a machine with the plan's
    capacities, then drive it to a target output count and read the miss
    counters. *)

type driver = Ccs_exec.Machine.t -> target_outputs:int -> unit
(** Drive the machine until the sink has fired at least [target_outputs]
    times.  Must be resumable: calling again with a larger target continues
    from the current machine state. *)

type t = {
  name : string;  (** Scheduler name, for reports. *)
  capacities : int array;  (** Per-channel buffer capacity in tokens. *)
  period : Schedule.t option;
      (** For static schedulers, one period/batch of the schedule. *)
  drive : driver;
}

val of_period : name:string -> capacities:int array -> Schedule.t -> t
(** A static plan: the driver repeats the period until the target is met.
    The period must fire the sink at least once. *)

val dynamic : name:string -> capacities:int array -> driver -> t

val buffer_words : t -> int
(** Total buffer footprint of the plan, in words (= tokens). *)

val id : t -> string
(** A stable short identity, ["name-digest12"]: an MD5 digest over the
    plan's name, capacity vector and (for static plans) the period's exact
    firing sequence.  Rebuilding an identical plan reproduces the id, while
    an adaptation that changes capacities or the period — even under the
    same name — gets a fresh one, so supervisor logs and quarantine reports
    can tell {e which} plan was live when an event hit.  The driver closure
    itself is not hashable and is excluded: two [dynamic] plans differing
    only in driver code share an id. *)

val layout :
  Ccs_sdf.Graph.t ->
  cache:Ccs_cache.Cache.config ->
  t ->
  Ccs_exec.Machine.layout
(** The simulated address space this plan induces — exactly the layout a
    machine built with the plan's capacities would use (state regions in
    node order, block-aligned to [cache.block_words]; ring buffers in edge
    order, packed).  The compiled backend lowers plans through this, which
    is what makes compiled word-access traces replayable against the
    interpreted machine.
    @raise Invalid_argument on a capacity below [max push pop] or a
    capacity vector of the wrong length. *)

val zero_capacities :
  Ccs_sdf.Graph.t -> plan:string -> int array -> Ccs_sdf.Error.t list
(** [zero_capacities g ~plan capacities]: one [Plan_invalid] finding per
    channel whose capacity is zero or negative ("channel a->b#0 has
    capacity 0; buffers need >= 1"), in channel order, for the plan named
    [plan].  Such a buffer cannot hold a token at all, which reads
    differently from a capacity merely below the channel's rate.  Empty
    when [capacities] does not have one entry per channel ({!validate}
    reports that mismatch). *)

val validate :
  ?cache:Ccs_cache.Cache.config ->
  ?spec:Ccs_partition.Spec.t ->
  Ccs_sdf.Graph.t ->
  t ->
  (unit, Ccs_sdf.Error.t list) result
(** Certify a plan offline, reporting {e every} violated precondition:

    - [Capacity_below_rate]: a channel whose capacity admits neither a push
      nor a pop (the machine would wedge on it);
    - [Capacity_infeasible]: capacities that clear every per-channel floor
      but jointly admit no periodic schedule (checked against
      {!Ccs_sdf.Minbuf.feasible});
    - [Cache_overflow] (warning): when [?spec] and [?cache] are given, a
      component whose state exceeds the whole cache;
    - for static plans, the period must additionally be token-legal at the
      plan's capacities ([Schedule_illegal] with the witness firing),
      periodic, fire the sink, and fire every module a whole multiple of
      its repetition count ([Plan_invalid]).  A period of [max_int]
      firings or more gets one [Plan_invalid] instead: its fire counts
      and firing indices do not fit in an [int].

    Dynamic plans (no [period]) skip the period checks — their legality is
    enforced at run time by the machine and {!Watchdog}.

    Cost: O(schedule tree × channels touched) for the period, never
    O(firings): {!Simulate.validate} certifies it from per-subtree
    channel summaries (skipped when the capacity vector has the wrong
    length), fire counts come from the tree without unrolling it, and
    periodicity from the fire counts.  Add work linear in the graph; the
    feasibility check replays one repetition-vector period, not the
    plan's (batched) period. *)
