(** Component-to-processor assignment.

    The paper's conclusion poses the multiprocessor question: "we must
    consider both load balancing and the number of cache misses
    simultaneously."  A component's {e load} per graph input is the work of
    its members — we use [Σ gain(v) · (s(v) + tokens moved per firing)] as
    the proxy (state touched plus channel traffic, the same words the cache
    model charges).  Assignment is classic LPT (longest-processing-time
    first) bin packing, which is 4/3-optimal for makespan. *)

type t = {
  processor_of_component : int array;
  processors : int;
  load : float array;  (** Per-processor load (work per graph input). *)
}

val lpt :
  Ccs_sdf.Graph.t ->
  Ccs_sdf.Rates.analysis ->
  Ccs_partition.Spec.t ->
  processors:int ->
  t
(** Greedy LPT assignment of components to [processors].
    @raise Invalid_argument if [processors < 1]. *)

val imbalance : t -> float
(** [max load / average load]; 1.0 is perfect balance. *)
