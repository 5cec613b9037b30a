(** Cache-free token simulation of firing sequences.

    Schedulers need to know how much buffering a candidate schedule uses
    {e before} committing to capacities, and a plan's period must be
    certified token-legal before it runs.  Both replay the schedule on
    token counters only (no cache, no addresses), starting from the
    channel delays, in one walk that stops at the first bad firing.  A bad
    firing is reported as [Error.Schedule_illegal], naming the module, the
    channel and the firing's index in the schedule (from 0):

    - [`Underflow]: the firing consumed tokens its input channel did not
      hold (the first such input, in {!Ccs_sdf.Graph.in_edges} order);
    - [`Overflow]: the firing pushed a channel past its capacity (the
      first such output, in {!Ccs_sdf.Graph.out_edges} order, and only
      when no input underflowed). *)

val peaks : Ccs_sdf.Graph.t -> Schedule.t -> int array
(** [peaks g sched] replays [sched] with unbounded buffers and returns
    each channel's maximum occupancy.  A channel that is never written
    still reports its delay.
    @raise Ccs_sdf.Error.Error with the [`Underflow] witness if the
    schedule underflows a channel. *)

val validate :
  Ccs_sdf.Graph.t ->
  capacities:int array ->
  Schedule.t ->
  (unit, Ccs_sdf.Error.t) result
(** [validate g ~capacities sched] is [Ok ()] if every firing of [sched]
    finds its input tokens and keeps every channel within its capacity
    ([capacities] has one entry per channel), and the witness of the first
    firing that does not otherwise. *)
