(** Synchronous dataflow (SDF) streaming graphs.

    A streaming application is a directed acyclic multigraph whose vertices
    are {e modules} (computation kernels with a fixed state size) and whose
    edges are {e channels} (FIFO queues).  Each channel [(u, v)] carries two
    fixed integral rates: [push] — the number of tokens [u] produces on the
    channel each time it fires — and [pop] — the number of tokens [v]
    consumes from it each time it fires.  Channels may carry initial tokens
    ({e delays}).  This is exactly the model of Section 2 of the paper
    (following Lee and Messerschmitt's synchronous dataflow).

    Graphs are immutable once built; construct them through {!Builder}. *)

type node = int
(** Module identifier: dense indices [0 .. num_nodes - 1] in insertion
    order. *)

type edge = int
(** Channel identifier: dense indices [0 .. num_edges - 1] in insertion
    order. *)

type t

exception Invalid_graph of string
(** Raised by {!Builder.build} and accessors on malformed graphs (cyclic,
    non-positive rates, dangling endpoints, ...). *)

(** {1 Construction} *)

module Builder : sig
  type graph := t

  type t

  val create : ?name:string -> unit -> t

  val add_module : t -> ?state:int -> string -> node
  (** [add_module b name ~state] registers a module whose state occupies
      [state] memory words (default [1]).  State must be non-negative. *)

  val add_channel :
    t -> ?delay:int -> src:node -> dst:node -> push:int -> pop:int -> unit ->
    edge
  (** [add_channel b ~src ~dst ~push ~pop ()] registers a channel from [src]
      to [dst].  [push] and [pop] must be positive; [delay] (initial tokens,
      default [0]) must be non-negative. *)

  val check : t -> Error.t list
  (** Every structural defect in the builder's current contents: empty
      graph, dangling endpoints, self-loops, non-positive rates, negative
      delays or state sizes, and directed cycles (reported with the cycle's
      module names and total delay — a zero-delay cycle is a deadlock by
      insufficient delay).  Empty means {!build} will succeed. *)

  val build_result : t -> (graph, Error.t list) result
  (** Freezes the builder, or returns {e all} defects {!check} finds. *)

  val build : t -> graph
  (** Freezes the builder.
      @raise Invalid_graph with the first {!check} defect if the graph is
      empty, contains a cycle, has an edge endpoint out of range, or
      violates rate positivity. *)
end

(** {1 Size and naming} *)

val name : t -> string
val num_nodes : t -> int
val num_edges : t -> int
val node_name : t -> node -> string
val node_of_name : t -> string -> node
(** @raise Not_found if no module has that name. *)

val edge_name : t -> edge -> string
(** ["src->dst#e"] — the channel label used in diagnostics. *)

(** {1 Per-module accessors} *)

val state : t -> node -> int
(** State size [s(v)] in words. *)

val total_state : t -> int
(** Sum of all module state sizes. *)

val in_edges : t -> node -> edge list
(** Incoming channels of a module, in insertion order. *)

val out_edges : t -> node -> edge list
(** Outgoing channels of a module, in insertion order. *)

(** {1 Per-channel accessors} *)

val src : t -> edge -> node
val dst : t -> edge -> node

val push : t -> edge -> int
(** Tokens produced per firing of [src] — the paper's [out(u,v)]. *)

val pop : t -> edge -> int
(** Tokens consumed per firing of [dst] — the paper's [in(u,v)]. *)

val delay : t -> edge -> int
(** Initial tokens on the channel. *)

(** {1 Structure} *)

val nodes : t -> node list
val edges : t -> edge list

val sources : t -> node list
(** Modules with no incoming channel. *)

val sinks : t -> node list
(** Modules with no outgoing channel. *)

val source : t -> node
(** The unique source. @raise Invalid_graph if not unique. *)

val sink : t -> node
(** The unique sink. @raise Invalid_graph if not unique. *)

val topological_order : t -> node array
(** Nodes in a topological order (sources first).  Stable for identical
    graphs. *)

val topo_rank : t -> int array
(** [rank.(v)] is [v]'s position in {!topological_order}. *)

val is_pipeline : t -> bool
(** True iff the graph is a single directed chain (every module has at most
    one input and one output channel, and the graph is connected). *)

val is_homogeneous : t -> bool
(** True iff every channel has [push = pop = 1] (the paper's homogeneous
    dataflow). *)

val is_connected : t -> bool
(** True iff the underlying undirected graph is connected. *)

(** {1 Transformation} *)

val pp : Format.formatter -> t -> unit
(** Compact one-line-per-element textual dump, for debugging. *)
