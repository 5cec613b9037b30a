(** Rate analysis of SDF graphs: gains, rate-matching, repetition vectors.

    Following Definition 1 of the paper, the {e gain} of module [v] is the
    number of times [v] fires per firing of the source, and the gain of a
    channel [(u,v)] is [gain(u) * push(u,v)] — the number of tokens crossing
    the channel per source firing.  Gains are well defined only for
    {e rate-matched} graphs, where the product of [push/pop] ratios is the
    same along every directed path between any fixed pair of vertices. *)

type analysis = {
  node_gain : Rational.t array;  (** [gain(v)], normalized so the gain of
                                     the reference source is 1. *)
  period_tokens : int array;
      (** Tokens crossing channel [e] in one period,
          [q.(src e) * push e = gain(e) * period_inputs].  This is the
          integer unit every partitioner sums and compares: a fixed
          positive multiple of the gain, so integer sums order partitions
          exactly as their rational bandwidths do.  Computed with
          overflow-checked multiplication, and the sum over all channels
          is below [max_int], so no bandwidth sum over a subset of the
          channels can wrap. *)
  repetition : int array;
      (** Smallest positive integral firing vector [q] such that every
          channel is balanced over one period:
          [q.(src e) * push e = q.(dst e) * pop e]. *)
  period_inputs : int;
      (** Number of source firings in one period, [q.(source)]. *)
}

val analyze : Graph.t -> (analysis, string) result
(** Full rate analysis.  Returns [Error] with a human-readable reason when
    the graph is not rate-matched (inconsistent rates) or not connected
    (gains would be ambiguous across components). *)

val analyze_checked : Graph.t -> (analysis, Error.t) result
(** Like {!analyze} with a structured error: [Rate_inconsistent] names the
    witness module and its two conflicting gains; [Disconnected] counts
    reachable modules; [Failure_msg] with context ["rate analysis"] says a
    gain, the repetition vector or a channel's [period_tokens] (or their
    total over all channels) passes the native int range. *)

val analyze_exn : Graph.t -> analysis
(** @raise Graph.Invalid_graph when {!analyze} would return [Error]. *)

val gain : analysis -> Graph.node -> Rational.t

val granularity : Graph.t -> analysis -> at_least:int -> int
(** [granularity g a ~at_least] is the smallest batch size [T >= at_least]
    (in source firings… see below) such that for every channel [e],
    [T * gain(e)] is integral and divisible by both [push e] and [pop e],
    where [gain(e) = period_tokens e / period_inputs]; equivalently the
    smallest [T >= at_least] with [T * gain v] integral for every module
    [v].  Scheduling at a granularity of [T]
    source inputs lets all progeny of the batch drain through the graph with
    every module firing an integral number of times (Section 3,
    "Scheduling inhomogeneous graphs"). *)

val firings_per_batch : analysis -> t:int -> Graph.node -> int
(** [firings_per_batch a ~t v] is [t * gain v], the number of firings of [v]
    required to process a batch of [t] source firings.
    @raise Invalid_argument if the product is not integral (i.e. [t] is not
    a multiple of the granularity). *)

val tokens_per_batch : analysis -> t:int -> Graph.edge -> int
(** [tokens_per_batch a ~t e] is [t * gain(e)], the number of tokens
    crossing channel [e] during a batch of [t] source firings.
    @raise Invalid_argument if not integral. *)

val local_repetition : analysis -> Graph.node list -> (Graph.node * int) list
(** [local_repetition a members] pairs each member with its count in the
    smallest positive integral vector proportional to the members' gains:
    how often each fires per local period of a component, or per firing
    of the module it is fused into. *)
