(** The paper's partition schedulers (Section 3).

    Given a well-ordered partition whose components fit in cache, schedule
    at two levels: the {e high level} loads one component at a time and
    executes it against large buffers on cross edges; the {e low level}
    schedules modules within the loaded component against minimum-size
    internal buffers.  Executing a loaded component [Θ(M)]-worth of work
    amortizes the [O(M/B)] cost of loading its state against the
    unavoidable cross-edge traffic, which is what makes the schedule's cost
    [O((T/B)·bandwidth(P))] (Lemmas 4 and 8).

    Three variants, exactly following the paper:

    - {!batch}: the static granularity-[T] schedule for general
      (inhomogeneous) dags — choose [T] with [T·gain(e)] integral and
      divisible by both endpoint rates on every edge, give each cross edge a
      [T·gain(e)]-token buffer, then execute components exactly once per
      batch of [T] inputs, in topological order.
    - {!homogeneous}: the simplification when all rates are 1 — [T = M],
      [M]-token cross buffers, and each component's low-level schedule is
      just its members in topological order, repeated [M] times.  (This is
      {!batch} with [t = m_tokens]; provided separately because the paper
      presents it separately and tests cross-check the two.)
    - {!pipeline_dynamic}: the online schedule for pipelines — [Θ(M)]
      buffers on cross edges, a segment is {e schedulable} when its input
      buffer is at least half full and its output buffer at most half full,
      and a scheduled segment runs until its input is empty or its output
      full.  The topological-order scan of the paper's continuity argument
      picks the segment to run, so no batch size is fixed a priori. *)

val batch :
  Ccs_sdf.Graph.t ->
  Ccs_sdf.Rates.analysis ->
  Ccs_partition.Spec.t ->
  t:int ->
  Plan.t
(** [batch g a spec ~t] is the static partitioned plan at granularity [t]
    source firings per batch.  Members and internal edges of every
    component are collected in one pass, and each component's local
    period runs on one shared {!Ccs_sdf.Latest_first} driver, so the plan
    costs O(n + m + F·(d² + log n)) for [F] firings in all local periods,
    not O(k·(n+m)) for [k] components.
    @raise Invalid_argument if [t] is not a multiple of
    [Ccs_sdf.Rates.granularity g a ~at_least:1], or if the partition is not
    well-ordered. *)

val homogeneous :
  Ccs_sdf.Graph.t ->
  Ccs_sdf.Rates.analysis ->
  Ccs_partition.Spec.t ->
  m_tokens:int ->
  Plan.t
(** The homogeneous-graph schedule with batch size [m_tokens] (the paper's
    [T = M]).
    @raise Invalid_argument if the graph is not homogeneous. *)

val dag_dynamic :
  Ccs_sdf.Graph.t ->
  Ccs_sdf.Rates.analysis ->
  Ccs_partition.Spec.t ->
  m_tokens:int ->
  Plan.t
(** The paper's asynchronous dynamic schedule for homogeneous graphs
    (Section 3): give every cross edge a buffer of [m_tokens]; a component
    is schedulable when all its incoming cross edges hold [m_tokens] tokens
    and all its outgoing cross edges are empty; executing it fires every
    member [m_tokens] times (emptying the inputs and filling the outputs).
    Homogeneity guarantees some component is always schedulable.  Unlike
    {!homogeneous} this fixes no global batch phase — components are chosen
    online from buffer occupancies, which is the form that generalizes to
    parallel execution.
    @raise Invalid_argument if the graph is not homogeneous, has channel
    delays, or the partition is not well-ordered. *)

val pipeline_dynamic :
  Ccs_sdf.Graph.t ->
  Ccs_sdf.Rates.analysis ->
  Ccs_partition.Spec.t ->
  m_tokens:int ->
  Plan.t
(** The dynamic half-full/half-empty pipeline schedule with [2·m_tokens]
    cross-edge buffers.
    @raise Invalid_argument if the graph is not a pipeline or the partition
    is not a segmentation of it. *)

val local_period :
  Ccs_sdf.Graph.t ->
  Ccs_sdf.Rates.analysis ->
  Ccs_partition.Spec.t ->
  int ->
  Ccs_sdf.Graph.node list * int array
(** [local_period g a spec c] exposes the low-level schedule of component
    [c]: the latest-first firing order of one local period (each member [v]
    fires its local repetition count) and the resulting internal-edge peak
    occupancies (indexed by edge; zero for edges not internal to [c]).
    Used by tests to check the buffer-versus-state assumption.  O(n + m)
    to find the component, plus its local period on the latest-first
    driver. *)
