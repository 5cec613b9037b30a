(** Workload generators: families of rate-matched streaming graphs.

    All generated graphs are guaranteed acyclic, connected, rate-matched,
    single-source and single-sink, so every scheduler and partitioner in the
    library applies to them directly.  Randomized generators take an
    explicit [seed] and are deterministic given it. *)

(** {1 Pipelines} *)

val pipeline :
  ?name:string ->
  n:int ->
  state:(int -> int) ->
  rates:(int -> int * int) ->
  unit ->
  Graph.t
(** [pipeline ~n ~state ~rates ()] is a chain of [n] modules where module
    [i] has state [state i] and channel [i] (from module [i] to [i+1]) has
    rates [rates i = (push, pop)].  Chains are rate-matched for any rates.
    @raise Invalid_argument if [n < 1]. *)

val uniform_pipeline : ?name:string -> n:int -> state:int -> unit -> Graph.t
(** Homogeneous chain: all rates 1, all modules with the same state size. *)

val random_pipeline :
  ?name:string ->
  seed:int ->
  n:int ->
  max_state:int ->
  max_rate:int ->
  unit ->
  Graph.t
(** Chain with state sizes uniform in [[1, max_state]] and rates uniform in
    [[1, max_rate]]. *)

(** {1 Homogeneous DAGs} (all rates 1; trivially rate-matched) *)

val layered :
  ?name:string ->
  seed:int ->
  layers:int ->
  width:int ->
  state:(int -> int) ->
  edge_prob:float ->
  unit ->
  Graph.t
(** Random layered DAG: [layers] layers of [width] modules, a fresh source
    and sink.  Each node in layer [i] gains an edge to each node of layer
    [i+1] with probability [edge_prob]; connectivity is enforced by giving
    every node at least one predecessor and one successor.  [state k] gives
    the state of the [k]-th created interior module. *)

val split_join :
  ?name:string ->
  branches:int ->
  depth:int ->
  state:int ->
  unit ->
  Graph.t
(** StreamIt-style split-join: source → splitter → [branches] parallel
    chains of [depth] modules → joiner → sink, all rates 1. *)

val butterfly : ?name:string -> stages:int -> state:int -> unit -> Graph.t
(** FFT-style butterfly network with [2^stages] lanes and [stages] stages of
    pairwise exchanges; homogeneous. *)

val binary_tree :
  ?name:string -> depth:int -> state:int -> reduce:bool -> unit -> Graph.t
(** Complete binary tree of [depth] levels.  [reduce = true] gives a
    reduction tree (leaves feed towards a root then the sink); [false] gives
    an expansion tree (source fans out to leaves, gathered by a sink with a
    joiner chain to keep a unique sink). *)

(** {1 Inhomogeneous DAGs} *)

val random_sdf_dag :
  ?name:string ->
  seed:int ->
  n:int ->
  max_state:int ->
  max_rate:int ->
  extra_edges:int ->
  unit ->
  Graph.t
(** Random rate-matched DAG with non-unit rates.  Construction guarantees
    rate-matching by first assigning every module [v] a target gain [g(v)]
    (a random rational built from factors up to [max_rate]), then setting
    each channel's rates to the reduced fraction of [g(dst)/g(src)] scaled
    by a random factor.  A spanning chain keeps the graph connected;
    [extra_edges] additional forward edges are added where gains allow. *)

val up_down_sampler :
  ?name:string -> stages:int -> factor:int -> state:int -> unit -> Graph.t
(** Multirate chain alternating [factor]-fold upsamplers and downsamplers —
    the classic signal-processing stress case for buffer sizing. *)
