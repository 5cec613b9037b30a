(** Graph normalizations the paper assumes without loss of generality.

    Section 2: "the streaming graph contains a single source node s ...
    and a single sink node t ... This assumption is without loss of
    generality, as a multisource or multisink dag can be transformed into
    one with a single source and sink."  {!normalize} performs that
    transformation, preserving rate-matching by deriving the new channels'
    rates from the existing gains. *)

type info = {
  graph : Graph.t;  (** The normalized graph. *)
  super_source : Graph.node option;
      (** The added source, or [None] if the input already had a unique
          one. *)
  super_sink : Graph.node option;
  node_map : Graph.node array;
      (** Original node id -> id in the normalized graph (ids are
          preserved; added nodes get fresh ids at the end). *)
}

val normalize : ?source_state:int -> ?sink_state:int -> Graph.t -> info
(** Add a zero-overhead super source feeding every original source and a
    super sink draining every original sink (state sizes default to 1).
    The rates on each added channel are the reduced fraction of the
    original endpoint's gain, so the result is rate-matched iff the input
    was.
    @raise Graph.Invalid_graph if the input is not rate-matched or not
    connected (gains would be ill-defined). *)
