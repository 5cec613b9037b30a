(* E22: adaptive resilience under seeded cache-shrink chaos.

   Each app runs three arms under the same chaos environment (the cache
   loses 3/4 of its capacity at epoch 2 and never recovers):

     stale    - the plan built for the full cache runs to the end;
     adapted  - the adaptation loop detects the degradation, degrades
                gracefully, and repartitions online for the estimated
                effective capacity (checkpointed state migration);
     scratch  - the plan built for the *shrunk* cache from epoch 0: the
                from-scratch optimum the adapted run chases.

   Acceptance: adapted beats stale on every app; the gap to scratch is
   reported; a data-carrying overlay proves the adapted (migrated) run
   sinks bit-identical values to an undisturbed reference run; and the
   whole experiment is deterministic — two adapted runs produce identical
   metrics snapshots.

   Apps whose shrunk-cache plan is itself degenerate are excluded: fft and
   bitonic fit the shrunk cache (nothing to adapt), and des has modules too
   large to partition at 512 words, so *no* plan helps there — the planner
   has no answer for adaptation to converge to. *)

open Util

let apps =
  [
    "fm-radio"; "beamformer"; "filterbank"; "vocoder"; "radar"; "ofdm";
    "dct-codec"; "mp3";
  ]

let m = 2048
let b = 16
let divisor = 4
let shrink_epoch = 2
let outputs = 8_000
let epochs = 16
let overlay_seed = 7

let chaos () =
  Ccs.Fault.env_of_sites
    [
      {
        Ccs.Fault.at_epoch = shrink_epoch;
        event = Ccs.Fault.Cache_shrink divisor;
      };
    ]

(* One arm: a supervised run under [env] (and, with [adapt], the
   adaptation controller) with a data-carrying overlay attached to every
   machine the loop creates (the initial one and every migration target). *)
let arm ?metrics ?env ~adapt ~planner g cache =
  let overlay = Ccs.Overlay.create ~seed:overlay_seed g in
  let adapt = if adapt then Some (Ccs.Adapt.create ~planner cache) else None in
  let plan =
    match adapt with
    | Some c -> c.Ccs.Adapt.live.Ccs.Adapt.plan
    | None -> (planner cache).Ccs.Adapt.plan
  in
  match
    Ccs.Supervisor.run ?metrics ?env ?adapt
      ~epoch_outputs:(outputs / epochs)
      ~prepare:(Ccs.Overlay.attach overlay)
      ~graph:g ~cache ~plan ~outputs ()
  with
  | Ok report -> (report, overlay)
  | Error e -> failwith (Ccs.Error.to_string e)

let e22 () =
  section "E22-adapt" "adaptive resilience under seeded cache-shrink chaos";
  let cfg = Ccs.Config.make ~cache_words:m ~block_words:b () in
  let cache = Ccs.Config.cache_config cfg in
  let regressions = ref 0 in
  let total_mismatches = ref 0 in
  let nondeterministic = ref 0 in
  let rows =
    List.map
      (fun app ->
        let entry = Option.get (Ccs_apps.Suite.find app) in
        let g = entry.Ccs_apps.Suite.graph () in
        let planner = Ccs.Auto.adapt_planner g in
        (* The from-scratch arm plans for the post-shrink capacity no
           matter what it is asked for. *)
        let scratch_planner _ =
          planner { cache with Ccs.Cache.size_words = m / divisor }
        in
        (* Undisturbed reference: no chaos, no adaptation — the oracle for
           the sink value streams. *)
        let _, reference = arm ~adapt:false ~planner g cache in
        let stale, _ = arm ~env:(chaos ()) ~adapt:false ~planner g cache in
        let adapted_run () =
          let metrics = Ccs.Metrics.create () in
          let report, overlay =
            arm ~metrics ~env:(chaos ()) ~adapt:true ~planner g cache
          in
          (report, overlay, Ccs.Metrics.to_json_string metrics)
        in
        let adapted, overlay, snapshot = adapted_run () in
        let _, _, snapshot2 = adapted_run () in
        let deterministic = String.equal snapshot snapshot2 in
        if not deterministic then incr nondeterministic;
        let scratch, _ =
          arm ~env:(chaos ()) ~adapt:false ~planner:scratch_planner g cache
        in
        let misses r = r.Ccs.Supervisor.result.Ccs.Runner.misses in
        let adaptations =
          match adapted.Ccs.Supervisor.adapt with
          | Some c -> List.length c.Ccs.Adapt.adaptations
          | None -> 0
        in
        if misses adapted >= misses stale then incr regressions;
        let mism = Ccs.Overlay.mismatches ~reference overlay in
        let compared = Ccs.Overlay.compared ~reference overlay in
        assert (compared > 0);
        total_mismatches := !total_mismatches + mism;
        (* Gap to the from-scratch optimum, in thousandths (an integer, so
           the regression gate treats it as deterministic). *)
        let gap_milli =
          int_of_float
            (Float.round
               (1000. *. ratio (float_of_int (misses adapted - misses scratch))
                  (float_of_int (misses scratch))))
        in
        if Json.enabled () then
          Json.point
            [
              ("kind", Json.String "adaptation");
              ("id", Json.String app);
              ("m", Json.Int m);
              ("b", Json.Int b);
              ("shrink_divisor", Json.Int divisor);
              ("outputs", Json.Int outputs);
              ("stale_misses", Json.Int (misses stale));
              ("adapted_misses", Json.Int (misses adapted));
              ("scratch_misses", Json.Int (misses scratch));
              ("gap_milli", Json.Int gap_milli);
              ("adaptations", Json.Int adaptations);
              ("chaos_events", Json.Int adapted.Ccs.Supervisor.chaos_events);
              ("sink_values_compared", Json.Int compared);
              ("output_mismatches", Json.Int mism);
              ("deterministic", Json.Bool deterministic);
            ];
        [
          app;
          string_of_int (misses stale);
          string_of_int (misses adapted);
          string_of_int (misses scratch);
          Printf.sprintf "%+.1f%%" (float_of_int gap_milli /. 10.);
          string_of_int adaptations;
          string_of_int mism;
          (if deterministic then "yes" else "NO");
        ])
      apps
  in
  Ccs.Table.print
    ~header:
      [
        "app"; "stale"; "adapted"; "scratch"; "gap"; "adapts"; "mism"; "det";
      ]
    ~rows;
  note
    "apps where adaptation failed to beat the stale plan: %d (must be 0); \
     sink-output mismatches after migration: %d (must be 0); \
     nondeterministic apps: %d (must be 0)"
    !regressions !total_mismatches !nondeterministic
