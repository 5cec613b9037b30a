(* E21: telemetry overhead.  Every app in the suite runs the partitioned
   schedule twice — bare, and with a metrics registry attached — and the
   registry must be free in the quantities that matter: miss counts
   bit-identical (the registry is pull-model; only the firings counter
   lives on the hot path) and the exported firings/miss series agreeing
   with the machine's own accounting.  Its wall-clock cost is not
   measured here; perfbench/ is the repo's timer. *)

open Util

let e21 () =
  section "E21-telemetry" "metrics registry (observability)";
  let m = 2048 and b = 16 in
  let cfg = Ccs.Config.make ~cache_words:m ~block_words:b () in
  let cache = Ccs.Config.cache_config cfg in
  let outputs = 20_000 in
  let mismatches = ref 0 in
  let rows =
    List.map
      (fun entry ->
        let app = entry.Ccs_apps.Suite.name in
        let g = entry.Ccs_apps.Suite.graph () in
        let choice = Ccs.Auto.plan ~dynamic:false g cfg in
        let plan = choice.Ccs.Auto.plan in
        let base, _ =
          ok_exn (Ccs.Runner.run ~graph:g ~cache ~plan ~outputs ())
        in
        let base_misses = base.Ccs.Runner.misses in
        let metrics = Ccs.Metrics.create () in
        let metered, machine =
          ok_exn (Ccs.Runner.run ~metrics ~graph:g ~cache ~plan ~outputs ())
        in
        let misses = metered.Ccs.Runner.misses in
        let series name = Ccs.Metrics.value metrics name in
        (* The registry must agree with the machine's own accounting:
           firings are pushed on the hot path, cache series synced at run
           end. *)
        let exported_fires = Option.value ~default:(-1) (series "ccs_machine_fires_total") in
        let exported_misses = Option.value ~default:(-1) (series "ccs_cache_misses") in
        let consistent =
          misses = base_misses
          && exported_fires = Ccs.Machine.total_fires machine
          && exported_misses = misses
        in
        if not consistent then incr mismatches;
        if Json.enabled () then
          Json.point
            [
              ("kind", Json.String "telemetry_overhead");
              ("graph", Json.String app);
              ("m", Json.Int m);
              ("b", Json.Int b);
              ("outputs", Json.Int outputs);
              ("misses", Json.Int misses);
              ("misses_match", Json.Bool (misses = base_misses));
              ("fires", Json.Int (Ccs.Machine.total_fires machine));
              ("exported_fires", Json.Int exported_fires);
              ("exported_misses", Json.Int exported_misses);
              ("consistent", Json.Bool consistent);
              ("series", Json.Int (Ccs.Metrics.num_series metrics));
            ];
        [
          app;
          string_of_int misses;
          (if misses = base_misses then "yes" else "NO");
          string_of_int exported_fires;
        ])
      Ccs_apps.Suite.all
  in
  Ccs.Table.print ~header:[ "app"; "misses"; "identical"; "fires" ] ~rows;
  note "registry/machine disagreements: %d (must be 0)" !mismatches;
  note "attaching metrics never changes a single miss count"
