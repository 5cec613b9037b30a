(* E19: attributed profiling.  Every cache miss of a partitioned batch run
   is charged to its owning entity (module state or channel buffer); the
   per-entity counts must sum exactly to the machine's aggregate miss
   counter, and aggregating them per component reproduces the Lemma 4/8
   decomposition: each component's working-set reload plus twice the cross
   -edge bandwidth per batch.  With --trace FILE the first app's run is
   also exported as Chrome trace-event JSON. *)

module G = Ccs.Graph
open Util

(* Set by main.exe's --trace flag before the experiment runs. *)
let trace_file : string option ref = ref None

let e19 () =
  section "E19-profile" "per-component miss attribution (Lemmas 4/8)";
  let m = 512 and b = 16 in
  let cfg = Ccs.Config.make ~cache_words:m ~block_words:b () in
  let cache = Ccs.Config.cache_config cfg in
  let traced = ref !trace_file in
  let rows =
    List.map
      (fun entry ->
        let app = entry.Ccs_apps.Suite.name in
        let g = entry.Ccs_apps.Suite.graph () in
        let choice = Ccs.Auto.plan ~dynamic:false g cfg in
        (* Trace the first app only: one Chrome document per run. *)
        let events = !traced <> None in
        let profile =
          ok_exn
            (Ccs.Profile.run ~events ~graph:g ~cache
               ~plan:choice.Ccs.Auto.plan ~outputs:2000 ())
        in
        (match !traced with
        | Some path ->
            Ccs.Trace_export.write ~path
              (Ccs.Profile.chrome ~process_name:app profile);
            note "  (trace of %s written to %s)" app path;
            traced := None
        | None -> ());
        let misses = profile.Ccs.Profile.result.Ccs.Runner.misses in
        let attributed = Ccs.Profile.attributed_misses profile in
        let table =
          Ccs.Profile.component_table profile choice.Ccs.Auto.partition
            ~t:choice.Ccs.Auto.batch
        in
        if Json.enabled () then
          Json.point
            ([
               ("kind", Json.String "attribution");
               ("graph", Json.String app);
               ("m", Json.Int m);
               ("b", Json.Int b);
               ("misses", Json.Int misses);
               ("attributed_misses", Json.Int attributed);
               ("exact", Json.Bool (attributed = misses));
               ("components", Json.Int (List.length table.Ccs.Profile.components));
               ("measured_total", Json.Int table.Ccs.Profile.measured_total);
               ("predicted_total", Json.Int table.Ccs.Profile.predicted_total);
             ]
            @
            match !trace_file with
            | Some _ when events ->
                let tr = Option.get profile.Ccs.Profile.tracer in
                [ ("trace_events", Json.Int (Ccs.Tracer.length tr)) ]
            | _ -> []);
        [
          app;
          string_of_int misses;
          string_of_int attributed;
          (if attributed = misses then "exact" else "MISMATCH");
          string_of_int table.Ccs.Profile.measured_total;
          string_of_int table.Ccs.Profile.predicted_total;
          f
            (ratio
               (float_of_int table.Ccs.Profile.measured_total)
               (float_of_int table.Ccs.Profile.predicted_total));
        ])
      Ccs_apps.Suite.all
  in
  Ccs.Table.print
    ~header:
      [ "app"; "misses"; "attributed"; "sum"; "measured"; "predicted"; "ratio" ]
    ~rows;
  note
    "attribution is exact by construction (every touch has one owner); the \
     predicted column is the Lemma 4/8 decomposition"
