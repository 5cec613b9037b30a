(* E23: the compiled execution backend vs the interpreted machine.  Every
   app in the suite runs the same whole periods twice — once through
   [Machine.fire] driven by [Schedule.run] (the interpreted hot path every
   earlier experiment uses) and once through [Compiled.run_periods] (the
   lowered, branch-free firing program) — and the compiled path must be
   faithful: sink checksums and output counts bit-identical to the engine
   running the codegen-semantics kernels, and the compiled word-access
   trace replaying to the interpreted machine's exact miss count.  Its speed
   is measured by perfbench/ exec-fit, not here. *)

open Util

let e23 () =
  section "E23-compiled" "compiled backend vs interpreted machine";
  let m = 2048 and b = 16 in
  let cfg = Ccs.Config.make ~cache_words:m ~block_words:b () in
  let cache = Ccs.Config.cache_config cfg in
  let mismatches = ref 0 in
  let rows =
    List.map
      (fun entry ->
        let app = entry.Ccs_apps.Suite.name in
        let g = entry.Ccs_apps.Suite.graph () in
        let plan = (Ccs.Auto.plan ~dynamic:false g cfg).Ccs.Auto.plan in
        let period = Option.get plan.Ccs.Plan.period in
        let counts =
          Ccs.Schedule.fire_counts ~num_nodes:(G.num_nodes g) period
        in
        let period_fires = Array.fold_left ( + ) 0 counts in
        (* Size every app to the same firing volume. *)
        let periods = max 1 (150_000 / period_fires) in
        (* The interpreted arm is the full interpreted execution path —
           [Machine.fire] driven through the data-carrying engine with the
           codegen-semantics kernels — computing the same checksums and
           outputs the compiled program computes.  The bare machine (cache
           accounting only, no data) gives the reference miss count. *)
        let program = Ccs.Program.create g (Ccs.Codegen.codegen_semantics g) in
        let engine = Ccs.Engine.of_plan ~program ~cache ~plan () in
        let em = Ccs.Engine.machine engine in
        for _ = 1 to periods do
          Ccs.Schedule.run em period
        done;
        let machine =
          Ccs.Machine.create ~graph:g ~cache
            ~capacities:plan.Ccs.Plan.capacities ()
        in
        for _ = 1 to periods do
          Ccs.Schedule.run machine period
        done;
        let lowering = Ccs.Lowering.exn g ~plan ~cache in
        let compiled = Ccs.Compiled.create lowering in
        Ccs.Compiled.run_periods compiled periods;
        let sinks = G.sinks g in
        let eng_outputs =
          List.fold_left (fun a v -> a + Ccs.Machine.fires em v) 0 sinks
        in
        let eng_checksum =
          List.fold_left
            (fun a v -> a +. (Ccs.Engine.state engine v).(0))
            0. sinks
        in
        let traced = Ccs.Compiled.create ~record_trace:true lowering in
        Ccs.Compiled.run_periods traced periods;
        let replayed =
          Ccs.Replay.misses ~cache (Ccs.Compiled.trace traced)
        in
        let interp_misses = Ccs.Machine.misses machine in
        let outputs_match = eng_outputs = Ccs.Compiled.outputs compiled in
        let checksum_match =
          Int64.bits_of_float eng_checksum
          = Int64.bits_of_float (Ccs.Compiled.checksum compiled)
        in
        let misses_match = replayed = interp_misses in
        if not (outputs_match && checksum_match && misses_match) then
          incr mismatches;
        if Json.enabled () then
          Json.point
            [
              ("kind", Json.String "compiled_backend");
              ("graph", Json.String app);
              ("m", Json.Int m);
              ("b", Json.Int b);
              ("periods", Json.Int periods);
              ("fires", Json.Int (periods * period_fires));
              ("outputs", Json.Int (Ccs.Compiled.outputs compiled));
              ("checksum", Json.Float (Ccs.Compiled.checksum compiled));
              ("misses", Json.Int interp_misses);
              ("outputs_match", Json.Bool outputs_match);
              ("checksum_match", Json.Bool checksum_match);
              ("replay_misses_match", Json.Bool misses_match);
            ];
        [
          app;
          string_of_int (periods * period_fires);
          string_of_int interp_misses;
          (if outputs_match && checksum_match then "yes" else "NO");
          (if misses_match then "yes" else "NO");
        ])
      Ccs_apps.Suite.all
  in
  Ccs.Table.print
    ~header:[ "app"; "fires"; "misses"; "identical"; "replay" ]
    ~rows;
  if Json.enabled () then
    Json.point
      [
        ("kind", Json.String "compiled_summary");
        ("apps", Json.Int (List.length rows));
        ("equivalence_failures", Json.Int !mismatches);
      ];
  note "equivalence failures: %d (must be 0)" !mismatches;
  note
    "checksums, output counts and replayed miss counts are bit-identical on \
     every app"
