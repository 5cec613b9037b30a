(* Adaptation controller: close the loop from live miss telemetry back into
   the scheduler (see adapt.mli for the ladder).  Effective capacity is never
   read from the chaos plan — the adaptive system cannot see its adversary.
   It is estimated by halving the assumed capacity on each sustained breach,
   which converges to within 2x of the truth in log steps, the same
   constant-factor slack the paper's cache-augmentation arguments already
   absorb. *)

module Graph = Ccs_sdf.Graph
module E = Ccs_sdf.Error
module Machine = Ccs_exec.Machine
module Cache = Ccs_cache.Cache

type planned = { plan : Plan.t; predicted_mpi : float }
type planner = Cache.config -> planned

type policy = {
  ewma_alpha : float;
  degrade_ratio : float;
  patience : int;
  cooldown : int;
  repartition_delay : int;
  max_adaptations : int;
  probe_restore : bool;
  restore_ratio : float;
}

let default_policy =
  {
    ewma_alpha = 0.5;
    degrade_ratio = 1.5;
    patience = 2;
    cooldown = 2;
    repartition_delay = 1;
    max_adaptations = 8;
    probe_restore = false;
    restore_ratio = 0.25;
  }

type action = Degrade | Repartition | Probe_restore

let action_to_string = function
  | Degrade -> "degrade"
  | Repartition -> "repartition"
  | Probe_restore -> "probe-restore"

type event = {
  at_epoch : int;
  action : action;
  from_plan : string;
  to_plan : string;
  assumed_words : int;
}

(* --- conservative fallback ------------------------------------------------

   Latest-first dynamic driving: always fire the most-downstream fireable
   module.  This is the strategy {!Ccs_sdf.Minbuf} certifies feasible at
   any plan's capacities, so it is legal on the live machine without any
   planning — the property rung 1 needs.  It is cache-oblivious, which is
   the honest price of reacting instantly. *)

let fallback_plan graph ~capacities =
  let order = Graph.topological_order graph in
  Plan.dynamic ~name:"adapt-fallback" ~capacities
    (fun machine ~target_outputs ->
      let rec fire_latest i =
        if i < 0 then
          E.fail
            (E.Deadlocked
               {
                 plan = "adapt-fallback";
                 detail = "latest-first fallback cannot make progress";
                 snapshot = Machine.snapshot machine;
               })
        else if Machine.can_fire machine order.(i) then
          Machine.fire machine order.(i)
        else fire_latest (i - 1)
      in
      while Machine.sink_outputs machine < target_outputs do
        fire_latest (Array.length order - 1)
      done)

(* --- the controller ------------------------------------------------------ *)

type t = {
  policy : policy;
  planner : planner;
  nominal : Cache.config;
  live : planned;
  assumed_words : int;
  ewma : float;
  breach : int;
  clean : int;
  cooldown : int;
  pending : int option;
  degraded : bool;
  adaptations : event list;
}

let create ?(policy = default_policy) ~planner nominal =
  if policy.patience < 1 then invalid_arg "Adapt.create: patience must be >= 1";
  if policy.ewma_alpha <= 0.0 || policy.ewma_alpha > 1.0 then
    invalid_arg "Adapt.create: ewma_alpha must be in (0, 1]";
  if policy.degrade_ratio <= 1.0 then
    invalid_arg "Adapt.create: degrade_ratio must be > 1";
  {
    policy;
    planner;
    nominal;
    live = planner nominal;
    assumed_words = nominal.Cache.size_words;
    ewma = Float.nan;
    breach = 0;
    clean = 0;
    cooldown = 0;
    pending = None;
    degraded = false;
    adaptations = [];
  }

let epoch_plan graph c =
  if c.degraded then fallback_plan graph ~capacities:c.live.plan.Plan.capacities
  else c.live.plan

(* Take a ladder step: [c] is the record after it, [from] the record it
   leaves, [machine] the one that drives on. *)
let record c ~from action ~epoch ~to_plan machine =
  let e =
    {
      at_epoch = epoch;
      action;
      from_plan = Plan.id from.live.plan;
      to_plan;
      assumed_words = c.assumed_words;
    }
  in
  ({ c with adaptations = c.adaptations @ [ e ] }, machine, Some e)

(* Fire every module up to a whole multiple of its repetition count,
   deepest-first.  After a fallback epoch (a dynamic driver that stops
   exactly at the output target) the machine sits mid-period; completing
   the period returns every channel to its initial-delay state, which is
   the only state a static period plan can legally resume from after
   migration.  The completion is always feasible at the live capacities:
   it is a suffix of the period the validated plan itself executes. *)
let complete_period graph machine =
  let rep = (Ccs_sdf.Rates.analyze_exn graph).Ccs_sdf.Rates.repetition in
  let rank = Graph.topo_rank graph in
  let nodes = Graph.nodes graph in
  let k_whole =
    List.fold_left
      (fun acc v -> max acc ((Machine.fires machine v + rep.(v) - 1) / rep.(v)))
      0 nodes
  in
  let deficit v = (k_whole * rep.(v)) - Machine.fires machine v in
  let rec drain () =
    match
      List.filter (fun v -> deficit v > 0 && Machine.can_fire machine v) nodes
    with
    | [] -> ()
    | v :: vs ->
        let deepest b v = if rank.(v) > rank.(b) then v else b in
        Machine.fire machine (List.fold_left deepest v vs);
        drain ()
  in
  drain ();
  if List.exists (fun v -> deficit v > 0) nodes then
    E.fail
      (E.Deadlocked
         {
           plan = "adapt-migration";
           detail = "could not complete the period before migration";
           snapshot = Machine.snapshot machine;
         })

(* Complete a background replan: finish the current period so the channels
   return to their delay state, plan for the assumed capacity, build the
   new machine and migrate onto it.  Capacities never drop below the tokens
   a channel already holds. *)
let migrate c action ~epoch ~graph ~make_machine machine =
  complete_period graph machine;
  let np = c.planner { c.nominal with Cache.size_words = c.assumed_words } in
  let capacities =
    Array.mapi
      (fun e cap -> max cap (Machine.tokens machine e))
      np.plan.Plan.capacities
  in
  let plan =
    if capacities = np.plan.Plan.capacities then np.plan
    else { np.plan with Plan.capacities }
  in
  let dst = make_machine plan in
  Machine.migrate ~src:machine dst;
  record ~from:c
    {
      c with
      live = { np with plan };
      degraded = false;
      ewma = Float.nan;
      cooldown = c.policy.cooldown;
    }
    action ~epoch ~to_plan:(Plan.id plan) dst

type signal = Boundary | Measured of { misses : int; inputs : int }

let step c ~epoch ~graph ~make_machine signal machine =
  let p = c.policy in
  let stay c = (c, machine, None) in
  let migrate c action = migrate c action ~epoch ~graph ~make_machine machine in
  match signal with
  | Boundary -> (
      match c.pending with
      | Some 0 -> migrate { c with pending = None } Repartition
      | Some n -> stay { c with pending = Some (n - 1) }
      | None -> stay c)
  | Measured { inputs; _ } when inputs <= 0 -> stay c
  | Measured { misses; inputs } ->
      let sample = float_of_int misses /. float_of_int inputs in
      let ewma =
        if Float.is_nan c.ewma then sample
        else (p.ewma_alpha *. sample) +. ((1.0 -. p.ewma_alpha) *. c.ewma)
      in
      let c = { c with ewma } in
      let bound = c.live.predicted_mpi in
      let breached = bound > 0.0 && ewma > p.degrade_ratio *. bound in
      let roomy = bound > 0.0 && ewma < p.restore_ratio *. bound in
      let budget = List.length c.adaptations < p.max_adaptations in
      if c.cooldown > 0 then stay { c with cooldown = c.cooldown - 1 }
      else if c.pending <> None || c.degraded then stay c
      else
        let c =
          {
            c with
            breach = (if breached then c.breach + 1 else 0);
            clean = (if (not breached) && roomy then c.clean + 1 else 0);
          }
        in
        if c.breach >= p.patience && budget then
          (* Rung 1: degrade now, schedule the precise replan. *)
          record ~from:c
            {
              c with
              assumed_words =
                max c.nominal.Cache.block_words (c.assumed_words / 2);
              degraded = true;
              pending = Some p.repartition_delay;
              breach = 0;
              cooldown = p.cooldown;
            }
            Degrade ~epoch ~to_plan:"adapt-fallback" machine
        else if
          p.probe_restore && c.clean >= p.patience
          && c.assumed_words < c.nominal.Cache.size_words
          && budget
        then
          migrate
            {
              c with
              assumed_words =
                min c.nominal.Cache.size_words (c.assumed_words * 2);
              clean = 0;
            }
            Probe_restore
        else stay c

let pp_event fmt e =
  Format.fprintf fmt "epoch %d: %s %s -> %s (assumed %d words)" e.at_epoch
    (action_to_string e.action)
    e.from_plan e.to_plan e.assumed_words
