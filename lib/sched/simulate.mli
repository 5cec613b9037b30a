(** Cache-free token certification of firing sequences.

    Schedulers need to know how much buffering a candidate schedule uses
    {e before} committing to capacities, and a plan's period must be
    certified token-legal before it runs.  Both follow the channel token
    counts from the channel delays, with no cache and no addresses, and
    neither enumerates the schedule's firings.  Each subtree of the
    schedule is summarised once by its effect on every channel it touches:
    the net token change, the lowest count after a pop and the highest
    count after a push.  A [Seq] composes its children's summaries; a
    [Repeat (k, body)] follows from its body's in O(channels touched),
    since its extremes fall in iteration 0 or [k-1].  Cost:
    O(schedule tree × channels touched), however many firings the tree
    denotes.

    A bad firing is reported as [Error.Schedule_illegal], naming the
    module, the channel and the firing's index in the schedule (from 0):

    - [`Underflow]: the firing consumed tokens its input channel did not
      hold (the first such input, in {!Ccs_sdf.Graph.in_edges} order);
    - [`Overflow]: the firing pushed a channel past its capacity (the
      first such output, in {!Ccs_sdf.Graph.out_edges} order, and only
      when no input underflowed).

    The witness is the first bad firing in execution order.  It is found
    by descending only into the first child or iteration that breaks a
    bound; the bad iteration of a [Repeat] comes from arithmetic on its
    body's net change.  An index past [max_int] reads [max_int], as
    {!Schedule.length} saturates. *)

val peaks : Ccs_sdf.Graph.t -> Schedule.t -> int array
(** [peaks g sched] is each channel's maximum occupancy while [sched]
    runs with unbounded buffers.  A channel that is never written still
    reports its delay.
    @raise Ccs_sdf.Error.Error with the [`Underflow] witness if the
    schedule underflows a channel, or the [`Overflow] witness if a
    channel would hold more than [max_int] tokens. *)

val validate :
  Ccs_sdf.Graph.t ->
  capacities:int array ->
  Schedule.t ->
  (unit, Ccs_sdf.Error.t) result
(** [validate g ~capacities sched] is [Ok ()] if every firing of [sched]
    finds its input tokens and keeps every channel within its capacity
    ([capacities] has one entry per channel), and the witness of the first
    firing that does not otherwise. *)
