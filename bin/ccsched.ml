(* ccsched: command-line driver for cache-conscious scheduling.

   Subcommands:
     info      - parse a graph and print rates, gains and buffer analysis
     partition - compute and print a partition
     run       - schedule and simulate, printing cache statistics
     profile   - attributed run: per-entity misses, per-component table,
                 optional Chrome trace-event JSON
     compare   - run the full scheduler roster head-to-head
     apps      - list the built-in application suite
     multi     - processor-placement sweep (the paper's future work)
     trace     - reuse-distance histogram and LRU miss curve of a schedule
     codegen   - emit standalone OCaml implementing the schedule
     fuse      - print the contracted (component-fused) graph
     normalize - add a super source/sink to a multi-source/sink graph
     dot       - emit Graphviz for a graph
     serve     - scheduling daemon with a persistent plan cache
     submit    - one round-trip against a running serve daemon

   Graphs come either from a file in the Serial text format (--file) or
   from the built-in suite (--app NAME). *)

open Cmdliner

let read_file path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error reason | Failure reason ->
    (* [Sys_error] messages usually lead with the path; drop it rather than
       print the path twice. *)
    let prefix = path ^ ": " in
    let reason =
      if String.starts_with ~prefix reason then
        String.sub reason (String.length prefix)
          (String.length reason - String.length prefix)
      else reason
    in
    Error (Ccs.Error.to_string (Ccs.Error.Io { path; reason }))

let read_graph file app =
  match (file, app) with
  | Some path, None -> (
      match read_file path with
      | Error _ as e -> e
      | Ok text -> (
          match Ccs.Serial.parse text with
          | Ok g -> Ok g
          | Error err ->
              Error (Printf.sprintf "%s: %s" path (Ccs.Error.to_string err))))
  | None, Some name -> (
      match Ccs_apps.Suite.find name with
      | Some entry -> Ok (entry.Ccs_apps.Suite.graph ())
      | None ->
          Error
            (Printf.sprintf "unknown app %S (try: %s)" name
               (String.concat ", " Ccs_apps.Suite.names)))
  | Some _, Some _ -> Error "pass either --file or --app, not both"
  | None, None -> Error "a graph is required: pass --file or --app"

let graph_args =
  let file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Graph in ccs text format.")
  in
  let app_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "a"; "app" ] ~docv:"NAME" ~doc:"Built-in application name.")
  in
  Term.(const read_graph $ file_arg $ app_arg)

let cache_words_arg =
  Arg.(
    value & opt int 2048
    & info [ "m"; "cache" ] ~docv:"WORDS" ~doc:"Cache size M in words.")

let block_words_arg =
  Arg.(
    value & opt int 16
    & info [ "b"; "block" ] ~docv:"WORDS" ~doc:"Block size B in words.")

let outputs_arg =
  Arg.(
    value & opt int 10_000
    & info [ "o"; "outputs" ] ~docv:"N" ~doc:"Sink firings to produce.")

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("ccsched: " ^ msg);
      exit 1

let or_die_error r = or_die (Result.map_error Ccs.Error.to_string r)

(* Atomic file write, same discipline as checkpoints and trace exports:
   readers never observe a half-written snapshot, and concurrent
   ccsched processes writing the same path cannot clobber each other's
   temp file (Binio picks a unique temp name per writer). *)
let write_atomic ~path doc = Ccs.Binio.write_atomic ~path doc

let with_graph graph f = f (or_die graph)

(* The first [k] elements of a list (all of it when shorter). *)
let take k l = List.filteri (fun i _ -> i < k) l

let ints_of_string s =
  try
    String.split_on_char ',' s
    |> List.filter (fun x -> String.trim x <> "")
    |> List.map (fun x -> int_of_string (String.trim x))
    |> Result.ok
  with Failure _ ->
    Error (Printf.sprintf "expected comma-separated integers, got %S" s)

(* --- check ---------------------------------------------------------------- *)

let check_cmd =
  let run graph m b ways components capacities degree_bound strict =
    with_graph graph @@ fun g ->
    (* The cache numbers are linted first, as raw integers: if they cannot
       even describe a simulator (zero-capacity engine, block size not
       dividing the capacity, more ways than blocks) the pipeline lint
       below would only crash on them. *)
    let cache_lint =
      Ccs.Check.cache_config ?ways ~size_words:m ~block_words:b ()
    in
    let report =
      if not (Ccs.Check.is_ok cache_lint) then cache_lint
      else
        Ccs.Check.merge cache_lint
        @@
        let cfg = Ccs.Config.make ~cache_words:m ~block_words:b () in
        let base = Ccs.Check.graph g in
        match (components, capacities) with
        | None, None ->
            (* Nothing user-supplied: lint the full pipeline at this cache
               size (graph, the paper's own partition, its plan). *)
            Ccs.Check.auto ?degree_bound g cfg
        | _ ->
          let with_components =
            match components with
            | None -> base
            | Some s ->
                Ccs.Check.merge base
                  (match ints_of_string s with
                  | Error reason ->
                      {
                        Ccs.Check.empty with
                        errors =
                          [
                            Ccs.Error.Plan_invalid
                              { plan = "--components"; reason };
                          ];
                      }
                  | Ok ints ->
                      Ccs.Check.partition
                        ~bound:(Ccs.Config.partition_bound cfg)
                        ?degree_bound g
                        ~components:(Array.of_list ints))
          in
          (match capacities with
          | None -> with_components
          | Some s ->
              Ccs.Check.merge with_components
                (match ints_of_string s with
                | Error reason ->
                    {
                      Ccs.Check.empty with
                      errors =
                        [
                          Ccs.Error.Plan_invalid
                            { plan = "--capacities"; reason };
                        ];
                    }
                | Ok ints ->
                    Ccs.Check.capacities g (Array.of_list ints)))
    in
    Format.printf "%a" Ccs.Check.pp report;
    let ne = List.length report.Ccs.Check.errors in
    let nw = List.length report.Ccs.Check.warnings in
    if ne > 0 || (strict && nw > 0) then (
      Printf.printf "check failed: %d error(s), %d warning(s)%s\n" ne nw
        (if ne = 0 then " (strict)" else "");
      exit 1)
    else Printf.printf "check passed: 0 errors, %d warning(s)\n" nw
  in
  let components =
    Arg.(
      value
      & opt (some string) None
      & info [ "components" ] ~docv:"C0,C1,..."
          ~doc:
            "Lint this node-to-component assignment (one id per module, in \
             node order) instead of the computed partition.")
  in
  let capacities =
    Arg.(
      value
      & opt (some string) None
      & info [ "capacities" ] ~docv:"N0,N1,..."
          ~doc:
            "Lint these per-channel buffer capacities (tokens, in channel \
             order) instead of the computed plan.")
  in
  let degree_bound =
    Arg.(
      value
      & opt (some int) None
      & info [ "degree-bound" ] ~docv:"N"
          ~doc:"Also require every component's cross-edge degree to be at \
                most N (Lemma 8's degree-limited condition).")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Treat warnings as errors (exit nonzero).")
  in
  let ways =
    Arg.(
      value
      & opt (some int) None
      & info [ "ways" ] ~docv:"N"
          ~doc:
            "Also lint an N-way set-associative geometry against the cache \
             numbers (at least 1 way, no more ways than blocks).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Lint a cache configuration and a graph — and optionally a \
          partition and buffer capacities — against the paper's \
          preconditions; exit nonzero on any error.")
    Term.(
      const run $ graph_args $ cache_words_arg $ block_words_arg $ ways
      $ components $ capacities $ degree_bound $ strict)

(* --- info ---------------------------------------------------------------- *)

let info_cmd =
  let run graph =
    with_graph graph @@ fun g ->
    Format.printf "%a@." Ccs.Graph.pp g;
    match Ccs.Rates.analyze g with
    | Error msg -> Printf.printf "rate analysis: FAILED (%s)\n" msg
    | Ok a ->
        Printf.printf "rate matched: yes; period = %d source firings\n"
          a.Ccs.Rates.period_inputs;
        List.iter
          (fun v ->
            Printf.printf "  %-24s gain=%-8s q=%d\n" (Ccs.Graph.node_name g v)
              (Ccs.Rational.to_string (Ccs.Rates.gain a v))
              a.Ccs.Rates.repetition.(v))
          (Ccs.Graph.nodes g);
        let mb = Ccs.Minbuf.compute g a in
        let total = Array.fold_left ( + ) 0 mb.Ccs.Minbuf.capacity in
        Printf.printf "total state: %d words; total minBuf: %d tokens\n"
          (Ccs.Graph.total_state g) total
  in
  Cmd.v (Cmd.info "info" ~doc:"Print rate and buffer analysis of a graph.")
    Term.(const run $ graph_args)

(* --- partition ------------------------------------------------------------ *)

let partition_cmd =
  let run graph m b =
    with_graph graph @@ fun g ->
    let cfg = Ccs.Config.make ~cache_words:m ~block_words:b () in
    let a = Ccs.Rates.analyze_exn g in
    let spec = Ccs.Auto.partition g a cfg in
    Format.printf "%a@." Ccs.Spec.pp spec;
    Printf.printf "bandwidth: %s tokens/input; max degree: %d\n"
      (Ccs.Rational.to_string (Ccs.Spec.bandwidth spec a))
      (Ccs.Spec.max_component_degree spec)
  in
  Cmd.v
    (Cmd.info "partition" ~doc:"Partition a graph for a given cache size.")
    Term.(const run $ graph_args $ cache_words_arg $ block_words_arg)

(* --- run ------------------------------------------------------------------ *)

let run_cmd =
  let run graph m b outputs inject_seed inject_count checkpoint resume interval
      kill_after metrics_file log_file chaos adapt =
    with_graph graph @@ fun g ->
    (let lint = Ccs.Check.cache_config ~size_words:m ~block_words:b () in
     if not (Ccs.Check.is_ok lint) then (
       Format.eprintf "%a@?" Ccs.Check.pp lint;
       or_die (Error "invalid cache configuration")));
    (* Parse the chaos spec before planning so a bad spec fails fast. *)
    let env = Option.map (Ccs.Fault.parse_env Run) chaos in
    let cfg = Ccs.Config.make ~cache_words:m ~block_words:b () in
    let cache = Ccs.Config.cache_config cfg in
    let choice = Ccs.Auto.plan g cfg in
    let plan = choice.Ccs.Auto.plan in
    Printf.printf "partition: %d components; batch T=%d\n"
      (Ccs.Spec.num_components choice.Ccs.Auto.partition)
      choice.Ccs.Auto.batch;
    (* Telemetry attachments: a registry exported on completion (Prometheus
       text for .prom paths, JSON otherwise) and a JSON-lines event log,
       both written atomically. *)
    let metrics = Option.map (fun _ -> Ccs.Metrics.create ()) metrics_file in
    let log_buf = Option.map (fun _ -> Buffer.create 1024) log_file in
    let log = Option.map (fun buf -> Ccs.Log.to_buffer buf) log_buf in
    let finish () =
      (match (metrics_file, metrics) with
      | Some path, Some reg ->
          let doc =
            if Filename.check_suffix path ".prom" then
              Ccs.Metrics.to_prometheus reg
            else Ccs.Metrics.to_json_string reg ^ "\n"
          in
          write_atomic ~path doc
      | _ -> ());
      match (log_file, log_buf) with
      | Some path, Some buf -> write_atomic ~path (Buffer.contents buf)
      | _ -> ()
    in
    match inject_seed with
    | Some _ when checkpoint <> None || chaos <> None || adapt ->
        or_die
          (Error
             "--inject-seed runs the data-carrying engine, which has no \
              checkpoint, chaos or adaptation support; drop \
              --checkpoint/--resume/--kill-after/--chaos/--adapt")
    | _ when checkpoint = None && (resume || kill_after <> None) ->
        or_die (Error "--resume and --kill-after require --checkpoint DIR")
    | None when checkpoint = None && chaos = None && not adapt ->
        let r = Ccs.Runner.run ?metrics ~graph:g ~cache ~plan ~outputs () in
        finish ();
        let result, machine = or_die_error r in
        Format.printf "%a@." Ccs.Runner.pp_result result;
        Format.printf "cache: %a@." Ccs.Cache.pp_stats
          (Ccs.Machine.cache machine)
    | Some seed ->
        (* Fault drill: run real kernels with an injected fault plan; a
           triggered fault is contained and reported, with nonzero exit. *)
        let fault = Ccs.Fault.plan ~seed ~count:inject_count g in
        Format.printf "%a@." Ccs.Fault.pp fault;
        let program =
          Ccs.Program.inject fault
            (Ccs.Program.create g (Ccs.Codegen.codegen_semantics g))
        in
        let r =
          Result.bind
            (Ccs.Engine.create ?metrics ~program ~cache
               ~capacities:plan.Ccs.Plan.capacities ())
            (fun engine -> Ccs.Engine.run_plan engine plan ~outputs)
        in
        (* Export whatever was collected even when the drill trips — a
           contained fault is the expected outcome here. *)
        finish ();
        Format.printf "%a@." Ccs.Runner.pp_result (or_die_error r)
    | None -> (
        (* Supervised run: epoch-aligned execution, with periodic
           checkpoints under --checkpoint (--resume restores the newest
           one), a seeded chaos environment under --chaos (alone, the
           "stale plan" arm: perturbations land, the plan runs on) and the
           adaptation controller under --adapt.  --kill-after N aborts the
           process right after epoch N's completion (and any checkpoint
           write), simulating a crash for the CI resume-smoke test. *)
        Option.iter (Format.printf "chaos: %a@." Ccs.Fault.pp_env) env;
        let planner = Ccs.Auto.adapt_planner g in
        let adapt =
          if adapt then Some (Ccs.Adapt.create ~planner cache) else None
        in
        let live c = c.Ccs.Adapt.live.Ccs.Adapt.plan in
        let plan = Option.fold ~none:plan ~some:live adapt in
        let on_epoch =
          Option.map
            (fun n ~epoch ~machine:_ -> if epoch >= n then exit 137)
            kill_after
        in
        let r =
          Ccs.Supervisor.run
            ~config:
              { Ccs.Supervisor.default_config with checkpoint_every = interval }
            ?checkpoint_dir:checkpoint ~resume ?env ?adapt ?metrics ?log
            ?on_epoch ~graph:g ~cache ~plan ~outputs ()
        in
        finish ();
        Format.printf "%a@." Ccs.Supervisor.pp_report
          (or_die_error r))
  in
  let metrics_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Collect runtime metrics (firings, cache statistics, and — \
             under --checkpoint, --chaos or --adapt — supervisor, \
             checkpoint, watchdog and adaptation series) and write a \
             snapshot to $(docv) on completion: Prometheus text format if \
             $(docv) ends in .prom, JSON otherwise.")
  in
  let log_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:
            "Write structured JSON-lines lifecycle events (epochs, \
             checkpoints, retries, rollbacks, chaos, adaptations) to \
             $(docv).  Supervised runs (--checkpoint, --chaos or --adapt) \
             emit events; a plain run writes an empty file.")
  in
  let inject_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "inject-seed" ] ~docv:"SEED"
          ~doc:
            "Run real kernels with a seeded fault-injection plan; any \
             triggered fault is contained and reported with nonzero exit.")
  in
  let inject_count =
    Arg.(
      value & opt int 1
      & info [ "inject-count" ] ~docv:"N"
          ~doc:"Number of fault sites to draw (with --inject-seed).")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"DIR"
          ~doc:
            "Run under the crash-safe supervisor, writing checkpoints to \
             $(docv) (created if missing).  Without --resume, $(docv) must \
             hold no checkpoints: a directory belongs to one run.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Restore the newest checkpoint in the --checkpoint directory \
             before running; the resumed run reports exactly what an \
             uninterrupted run would (give a --chaos run the same spec).  \
             Refused with --adapt: checkpoints do not hold the \
             controller's state.")
  in
  let interval =
    Arg.(
      value & opt int Ccs.Supervisor.default_config.Ccs.Supervisor.checkpoint_every
      & info [ "interval" ] ~docv:"K"
          ~doc:"Checkpoint every K epochs (with --checkpoint).")
  in
  let kill_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after" ] ~docv:"N"
          ~doc:
            "Exit with status 137 right after epoch N completes (and its \
             checkpoint, if due, is written) — simulates a crash for resume \
             testing.")
  in
  let chaos =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Run under a seeded chaos environment: comma-separated events \
             $(b,shrink@E:D) (cache capacity divided by D at epoch E), \
             $(b,restore@E), $(b,ways@E:N), $(b,burst@E:MxL) (demand \
             multiplied by M for L epochs), $(b,iofault@E:L) (checkpoint \
             writes fail for L epochs), or $(b,rand@SEED:COUNT) for a \
             seeded random draw.  Without --adapt this is the stale-plan \
             arm: perturbations land but the initial plan runs on.")
  in
  let adapt =
    Arg.(
      value & flag
      & info [ "adapt" ]
          ~doc:
            "Monitor measured misses-per-input against the plan's predicted \
             bound each epoch and respond to sustained degradation: first a \
             conservative fallback schedule (graceful degradation), then an \
             online repartition with checkpointed state migration.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Schedule with the partitioned scheduler and simulate.")
    Term.(
      const run $ graph_args $ cache_words_arg $ block_words_arg $ outputs_arg
      $ inject_seed $ inject_count $ checkpoint $ resume $ interval
      $ kill_after $ metrics_file $ log_file $ chaos $ adapt)

(* --- bench ------------------------------------------------------------------ *)

let bench_cmd =
  let diff_run old_path new_path =
    match Ccs.Bench_diff.diff_files ~old_path ~new_path with
    | Error msg -> or_die (Error msg)
    | Ok report ->
        Format.printf "%a@?" Ccs.Bench_diff.pp report;
        if Ccs.Bench_diff.has_failures report then exit 1
  in
  let old_path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OLD" ~doc:"Baseline bench JSON document.")
  in
  let new_path =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NEW" ~doc:"Candidate bench JSON document.")
  in
  let diff_cmd =
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Diff two bench JSON documents: every field (miss counts, \
            bounds, buffer sizes, equivalence flags) must match exactly or \
            the exit status is nonzero.  Experiments are paired by id, so a \
            --quick run diffs cleanly against a full-run baseline.")
      Term.(const diff_run $ old_path $ new_path)
  in
  Cmd.group
    (Cmd.info "bench" ~doc:"Benchmark result tooling (regression diffing).")
    [ diff_cmd ]

(* --- profile --------------------------------------------------------------- *)

let profile_cmd =
  let run graph m b outputs trace_out top format =
    with_graph graph @@ fun g ->
    let cfg = Ccs.Config.make ~cache_words:m ~block_words:b () in
    let choice = Ccs.Auto.plan ~dynamic:false g cfg in
    let plan = choice.Ccs.Auto.plan in
    let profile =
      or_die_error
        (Ccs.Profile.run
           ~events:(trace_out <> None)
           ~graph:g
           ~cache:(Ccs.Config.cache_config cfg)
           ~plan ~outputs ())
    in
    let rows = take top (Ccs.Profile.per_entity profile) in
    let table =
      Ccs.Profile.component_table profile choice.Ccs.Auto.partition
        ~t:choice.Ccs.Auto.batch
    in
    (match format with
    | `Text ->
        Format.printf "%a@." Ccs.Runner.pp_result profile.Ccs.Profile.result;
        Ccs.Table.print
          ~header:[ "entity"; "accesses"; "misses" ]
          ~rows:
            (List.map
               (fun (label, accesses, misses) ->
                 [ label; string_of_int accesses; string_of_int misses ])
               rows);
        Printf.printf "attributed misses: %d of %d\n"
          (Ccs.Profile.attributed_misses profile)
          profile.Ccs.Profile.result.Ccs.Runner.misses;
        Format.printf "%a@." Ccs.Profile.pp_table table
    | `Json ->
        let open Ccs.Json in
        let r = profile.Ccs.Profile.result in
        let row_json (row : Ccs.Profile.row) =
          Obj
            [
              ("label", String row.Ccs.Profile.label);
              ("measured", Int row.Ccs.Profile.measured);
              ("predicted", Int row.Ccs.Profile.predicted);
            ]
        in
        let doc =
          Obj
            [
              ( "result",
                Obj
                  [
                    ("plan", String r.Ccs.Runner.plan_name);
                    ("inputs", Int r.Ccs.Runner.inputs);
                    ("outputs", Int r.Ccs.Runner.outputs);
                    ("misses", Int r.Ccs.Runner.misses);
                    ("accesses", Int r.Ccs.Runner.accesses);
                    ( "misses_per_input",
                      Float r.Ccs.Runner.misses_per_input );
                    ("buffer_words", Int r.Ccs.Runner.buffer_words);
                    ( "address_space_words",
                      Int r.Ccs.Runner.address_space_words );
                  ] );
              ( "attributed_misses",
                Int (Ccs.Profile.attributed_misses profile) );
              ( "entities",
                List
                  (List.map
                     (fun (label, accesses, misses) ->
                       Obj
                         [
                           ("entity", String label);
                           ("accesses", Int accesses);
                           ("misses", Int misses);
                         ])
                     rows) );
              ( "component_table",
                Obj
                  [
                    ("batch", Int choice.Ccs.Auto.batch);
                    ("batches", Int table.Ccs.Profile.batches);
                    ( "components",
                      List (List.map row_json table.Ccs.Profile.components)
                    );
                    ("cross", List (List.map row_json table.Ccs.Profile.cross));
                    ("measured_total", Int table.Ccs.Profile.measured_total);
                    ( "predicted_total",
                      Int table.Ccs.Profile.predicted_total );
                  ] );
            ]
        in
        print_endline (to_string doc));
    match trace_out with
    | None -> ()
    | Some path ->
        Ccs.Trace_export.write ~path
          (Ccs.Profile.chrome ~process_name:"ccsched" profile);
        let tr = Option.get profile.Ccs.Profile.tracer in
        Printf.printf
          "wrote %s (%d events, %d dropped); load it in Perfetto or \
           chrome://tracing\n"
          path (Ccs.Tracer.length tr) (Ccs.Tracer.dropped tr)
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Also record fire/load/evict events and write them as Chrome \
             trace-event JSON to $(docv).")
  in
  let top =
    Arg.(
      value & opt int 16
      & info [ "top" ] ~docv:"N"
          ~doc:"Show the N heaviest entities (by misses).")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: $(b,text) (tables, the default) or $(b,json) \
             (one machine-readable document with the run result, per-entity \
             rows and the Lemma-4/8 component table).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run the partitioned schedule with per-entity miss attribution: \
          heaviest entities, predicted-vs-measured per-component misses \
          (Lemmas 4/8), and optionally a Chrome trace.")
    Term.(
      const run $ graph_args $ cache_words_arg $ block_words_arg $ outputs_arg
      $ trace_out $ top $ format)

(* --- compare --------------------------------------------------------------- *)

let compare_cmd =
  let run graph m b outputs =
    with_graph graph @@ fun g ->
    let cfg = Ccs.Config.make ~cache_words:m ~block_words:b () in
    Ccs.Compare.print (Ccs.Compare.run ~outputs g cfg)
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run every scheduler head-to-head on a graph.")
    Term.(const run $ graph_args $ cache_words_arg $ block_words_arg $ outputs_arg)

(* --- apps ------------------------------------------------------------------ *)

let apps_cmd =
  let run () =
    List.iter
      (fun e ->
        let g = e.Ccs_apps.Suite.graph () in
        Printf.printf "%-12s %3d modules %4d channels %6d words  %s\n"
          e.Ccs_apps.Suite.name (Ccs.Graph.num_nodes g)
          (Ccs.Graph.num_edges g) (Ccs.Graph.total_state g)
          e.Ccs_apps.Suite.description)
      Ccs_apps.Suite.all
  in
  Cmd.v (Cmd.info "apps" ~doc:"List the built-in application suite.")
    Term.(const run $ const ())

(* --- codegen --------------------------------------------------------------- *)

let codegen_cmd =
  let run graph m b out verify =
    with_graph graph @@ fun g ->
    let cfg = Ccs.Config.make ~cache_words:m ~block_words:b () in
    let cache = Ccs.Config.cache_config cfg in
    let choice = Ccs.Auto.plan ~dynamic:false g cfg in
    let plan = choice.Ccs.Auto.plan in
    (* The emitted program shares the compiled backend's lowering, so its
       flat data array uses the exact offsets the simulator charges. *)
    let code = Ccs.Codegen.emit ~cache g ~plan in
    (match out with
    | None -> print_string code
    | Some path ->
        let oc = open_out path in
        output_string oc code;
        close_out oc;
        Printf.eprintf "wrote %s\n%!" path);
    if verify then begin
      (* Run the in-process compiled backend for one period and check its
         trace replays to the machine's miss count — the same equivalence
         the differential suite proves, on this graph and plan. *)
      let lowering = Ccs.Lowering.exn g ~plan ~cache in
      let compiled = Ccs.Compiled.create ~record_trace:true lowering in
      Ccs.Compiled.run_periods compiled 1;
      let machine =
        Ccs.Machine.create ~graph:g ~cache
          ~capacities:plan.Ccs.Plan.capacities ()
      in
      Ccs.Schedule.run machine (Option.get plan.Ccs.Plan.period);
      let replayed = Ccs.Replay.misses ~cache (Ccs.Compiled.trace compiled) in
      let interpreted = Ccs.Machine.misses machine in
      Printf.eprintf
        "verify: outputs=%d checksum=%.6f; replayed misses %d vs \
         interpreted %d (%s)\n\
         %!"
        (Ccs.Compiled.outputs compiled)
        (Ccs.Compiled.checksum compiled)
        replayed interpreted
        (if replayed = interpreted then "identical" else "MISMATCH");
      if replayed <> interpreted then exit 1
    end
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the program to $(docv) instead of stdout.")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Also run one period through the in-process compiled backend \
             and check its memory trace replays to the interpreted \
             machine's miss count.")
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:
         "Emit a standalone OCaml program implementing the partitioned \
          schedule (run it with: ocaml prog.ml <periods>).  The program \
          lays state and ring buffers out in one flat array at the \
          simulator's offsets, shared with the in-process compiled \
          backend.")
    Term.(
      const run $ graph_args $ cache_words_arg $ block_words_arg $ out_arg
      $ verify_arg)

(* --- trace ----------------------------------------------------------------- *)

let trace_cmd =
  let run_graph g m b outputs =
    let cfg = Ccs.Config.make ~cache_words:m ~block_words:b () in
    let choice = Ccs.Auto.plan ~dynamic:false g cfg in
    let plan = choice.Ccs.Auto.plan in
    let _, machine =
      or_die_error
        (Ccs.Runner.run ~record_trace:true ~graph:g
           ~cache:(Ccs.Config.cache_config cfg)
           ~plan ~outputs ())
    in
    let blocks =
      Ccs.Cache.Opt.block_trace ~block_words:b (Ccs.Machine.trace machine)
    in
    let d = Ccs.Trace_analysis.reuse_distances blocks in
    Printf.printf "%d block accesses\n" (Array.length blocks);
    Ccs.Table.print ~header:[ "reuse distance"; "accesses" ]
      ~rows:
        (List.map
           (fun (label, c) -> [ label; string_of_int c ])
           (Ccs.Trace_analysis.histogram d));
    let caps = [ 2; 4; 8; 16; 32; 64; 128; 256 ] in
    Ccs.Table.print ~header:[ "LRU capacity (blocks)"; "misses" ]
      ~rows:
        (List.map
           (fun (c, miss) -> [ string_of_int c; string_of_int miss ])
           (Ccs.Trace_analysis.miss_curve ~distances:d ~capacities:caps))
  in
  (* Flight mode: merge a serve daemon's flight dumps and live trace
     files into a per-stage latency breakdown.  Corrupt dumps are
     skipped with their structured error on stderr — post-mortem
     tooling must never crash on the evidence. *)
  let run_flight dir chrome =
    (* a typo'd --dir is an error; a real daemon dir whose flight/ or
       trace/ subdirs don't exist yet (nothing dumped) is just empty *)
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      or_die (Error (Printf.sprintf "no such directory: %s" dir));
    let files_in sub =
      let d = Filename.concat dir sub in
      match Sys.readdir d with
      | exception Sys_error _ -> []
      | files ->
          Array.to_list files
          |> List.filter (fun f -> Filename.check_suffix f ".ccsflight")
          |> List.sort String.compare
          |> List.map (fun f -> (Filename.concat sub f, Filename.concat d f))
    in
    let loaded, rejected =
      List.fold_left
        (fun (ok, bad) (label, path) ->
          match Ccs.Flight.load ~path with
          | Ok d -> ((label, d) :: ok, bad)
          | Error e ->
              Printf.eprintf "ccsched: skipping %s: %s\n%!" path
                (Ccs.Error.to_string e);
              (ok, bad + 1))
        ([], 0)
        (files_in "flight" @ files_in "trace")
    in
    let loaded = List.rev loaded in
    if loaded = [] then
      Printf.printf
        "no flight dumps or live traces under %s (%d rejected)\n" dir
        rejected
    else begin
      Ccs.Table.print
        ~header:[ "dump"; "trigger"; "pid"; "seq"; "spans"; "dropped"; "logs" ]
        ~rows:
          (List.map
             (fun (label, (d : Ccs.Flight.dump)) ->
               [
                 label; d.Ccs.Flight.trigger; string_of_int d.Ccs.Flight.pid;
                 string_of_int d.Ccs.Flight.seq;
                 string_of_int (List.length d.Ccs.Flight.spans);
                 string_of_int d.Ccs.Flight.dropped_spans;
                 string_of_int (List.length d.Ccs.Flight.logs);
               ])
             loaded);
      let spans =
        List.concat_map
          (fun (label, (d : Ccs.Flight.dump)) ->
            List.map (fun s -> (label, s)) d.Ccs.Flight.spans)
          loaded
      in
      (* per-stage latency distribution (nearest-rank percentiles) *)
      let stages = Hashtbl.create 8 in
      List.iter
        (fun (_, (s : Ccs.Span.span)) ->
          let durs =
            Option.value
              (Hashtbl.find_opt stages s.Ccs.Span.stage)
              ~default:[]
          in
          Hashtbl.replace stages s.Ccs.Span.stage
            (Ccs.Span.duration_us s :: durs))
        spans;
      let pct sorted p =
        let n = Array.length sorted in
        sorted.(min (n - 1) (max 0 ((((n * p) + 99) / 100) - 1)))
      in
      let rows =
        Hashtbl.fold
          (fun stage durs acc ->
            let a = Array.of_list durs in
            Array.sort compare a;
            ( stage,
              [
                stage; string_of_int (Array.length a);
                string_of_int (pct a 50); string_of_int (pct a 95);
                string_of_int (pct a 99);
                string_of_int a.(Array.length a - 1);
              ] )
            :: acc)
          stages []
        |> List.sort compare |> List.map snd
      in
      if rows <> [] then
        Ccs.Table.print
          ~header:[ "stage"; "count"; "p50_us"; "p95_us"; "p99_us"; "max_us" ]
          ~rows;
      (* slowest-request exemplars: the heaviest root spans with their
         per-stage breakdown *)
      let roots =
        List.filter (fun (_, s) -> s.Ccs.Span.stage = "request") spans
        |> List.sort (fun (_, a) (_, b) ->
               compare (Ccs.Span.duration_us b) (Ccs.Span.duration_us a))
      in
      List.iter
        (fun (label, (root : Ccs.Span.span)) ->
          let children =
            List.filter
              (fun (l, (s : Ccs.Span.span)) ->
                l = label
                && s.Ccs.Span.parent = root.Ccs.Span.span_id
                && s.Ccs.Span.trace_id = root.Ccs.Span.trace_id)
              spans
          in
          Printf.printf "slowest: trace_id=%s %dus (%s)%s\n"
            root.Ccs.Span.trace_id
            (Ccs.Span.duration_us root)
            label
            (String.concat ""
               (List.map
                  (fun (_, (s : Ccs.Span.span)) ->
                    Printf.sprintf " %s=%dus" s.Ccs.Span.stage
                      (Ccs.Span.duration_us s))
                  children)))
        (take 3 roots);
      match chrome with
      | None -> ()
      | Some path ->
          Ccs.Trace_export.write ~path
            (Ccs.Trace_export.chrome_spans
               (List.map
                  (fun (label, (d : Ccs.Flight.dump)) ->
                    (label, d.Ccs.Flight.spans))
                  loaded));
          Printf.printf
            "wrote %s (%d spans from %d files); load it in Perfetto or \
             chrome://tracing\n"
            path (List.length spans) (List.length loaded)
    end
  in
  let run graph m b outputs dir chrome =
    match dir with
    | Some dir -> run_flight dir chrome
    | None -> with_graph graph @@ fun g -> run_graph g m b outputs
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"PATH"
          ~doc:
            "Flight mode: read a serve daemon's state directory instead \
             of simulating a graph — merge DIR/flight dumps and \
             DIR/trace live traces, print the per-stage p50/p95/p99 \
             latency breakdown and the slowest-request exemplars.")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "With --dir: also export the merged span forest as Chrome \
             trace-event JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record the partitioned schedule's block trace and print its \
          reuse-distance histogram and LRU miss curve; or, with --dir, \
          inspect a serve daemon's flight-recorder dumps and live trace \
          files.")
    Term.(
      const run $ graph_args $ cache_words_arg $ block_words_arg
      $ outputs_arg $ dir $ chrome)

(* --- multi ----------------------------------------------------------------- *)

let multi_cmd =
  let run graph m b processors =
    with_graph graph @@ fun g ->
    let cfg = Ccs.Config.make ~cache_words:m ~block_words:b () in
    let a = Ccs.Rates.analyze_exn g in
    let spec = Ccs.Auto.partition g a cfg in
    let t = Ccs.Rates.granularity g a ~at_least:m in
    let rows =
      List.init processors (fun i -> i + 1)
      |> List.map (fun p ->
             let assign = Ccs.Assign.lpt g a spec ~processors:p in
             let mcfg =
               {
                 Ccs.Multi_machine.processors = p;
                 cache = Ccs.Config.cache_config cfg;
                 miss_penalty = 32.;
               }
             in
             let r = Ccs.Multi_machine.run g a spec assign ~t ~batches:4 mcfg in
             [
               string_of_int p;
               Ccs.Table.fmt_float (Ccs.Assign.imbalance assign);
               string_of_int r.Ccs.Multi_machine.total_misses;
               Ccs.Table.fmt_float r.Ccs.Multi_machine.makespan;
               Ccs.Table.fmt_float r.Ccs.Multi_machine.speedup;
             ])
    in
    Ccs.Table.print
      ~header:[ "P"; "imbalance"; "misses"; "makespan/input"; "speedup" ]
      ~rows
  in
  let processors =
    Arg.(
      value & opt int 8
      & info [ "P"; "processors" ] ~docv:"N"
          ~doc:"Sweep processor counts 1..N.")
  in
  Cmd.v
    (Cmd.info "multi"
       ~doc:"Place components on processors and report speedup (future work).")
    Term.(const run $ graph_args $ cache_words_arg $ block_words_arg $ processors)

(* --- fuse ------------------------------------------------------------------ *)

let fuse_cmd =
  let run graph m b =
    with_graph graph @@ fun g ->
    let cfg = Ccs.Config.make ~cache_words:m ~block_words:b () in
    let a = Ccs.Rates.analyze_exn g in
    let spec = Ccs.Auto.partition g a cfg in
    let mapping = Ccs.Cluster.contract g a spec in
    print_string (Ccs.Serial.to_text mapping.Ccs.Cluster.graph)
  in
  Cmd.v
    (Cmd.info "fuse"
       ~doc:
         "Partition for a cache size and print the contracted (fused) graph.")
    Term.(const run $ graph_args $ cache_words_arg $ block_words_arg)

(* --- normalize --------------------------------------------------------------- *)

let normalize_cmd =
  let run graph =
    with_graph graph @@ fun g ->
    let info = Ccs.Transform.normalize g in
    print_string (Ccs.Serial.to_text info.Ccs.Transform.graph)
  in
  Cmd.v
    (Cmd.info "normalize"
       ~doc:"Add a super source/sink to a multi-source or multi-sink graph.")
    Term.(const run $ graph_args)

(* --- dot ------------------------------------------------------------------- *)

let dot_cmd =
  let run graph =
    with_graph graph @@ fun g -> print_string (Ccs.Serial.to_dot g)
  in
  Cmd.v (Cmd.info "dot" ~doc:"Emit Graphviz DOT for a graph.")
    Term.(const run $ graph_args)

(* --- serve / submit -------------------------------------------------------- *)

let address_args =
  let socket =
    Arg.(
      value & opt string "ccsched.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")
  in
  let tcp =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:"Use TCP instead of the Unix-domain socket.")
  in
  let resolve socket tcp =
    match tcp with
    | None -> Ok (Ccs_serve.Server.Unix_socket socket)
    | Some spec -> (
        let bad () =
          Error (Printf.sprintf "bad --tcp %S (expected HOST:PORT)" spec)
        in
        match String.rindex_opt spec ':' with
        | None -> bad ()
        | Some i -> (
            let host = String.sub spec 0 i in
            let port =
              String.sub spec (i + 1) (String.length spec - i - 1)
            in
            match int_of_string_opt port with
            | Some p when host <> "" && p > 0 ->
                Ok (Ccs_serve.Server.Tcp (host, p))
            | _ -> bad ()))
  in
  Term.(const resolve $ socket $ tcp)

let serve_cmd =
  let run address dir workers level backlog deadline_ms max_inflight
      retry_after_ms store_max_bytes store_max_entries hot_cache min_uptime_ms
      breaker chaos tracing =
    let address = or_die address in
    let level =
      match Ccs.Log.level_of_string level with
      | Some l -> l
      | None -> or_die (Error (Printf.sprintf "unknown log level %S" level))
    in
    (* With tracing on, log lines carry ts_us so they correlate with
       span timelines; without it, logs stay clock-free. *)
    let log =
      if tracing then Ccs.Log.to_channel ~level ~now:Ccs.Clock.now_us stderr
      else Ccs.Log.to_channel ~level stderr
    in
    let chaos =
      match chaos with
      | None -> []
      | Some spec -> (
          try Ccs.Fault.parse_env Serve spec
          with Ccs.Error.Error e -> or_die (Error (Ccs.Error.to_string e)))
    in
    Ccs_serve.Server.run
      {
        (Ccs_serve.Server.default_config ~address ~dir) with
        Ccs_serve.Server.workers;
        log;
        backlog;
        deadline_ms;
        max_inflight;
        retry_after_ms;
        store_max_bytes;
        store_max_entries;
        hot_cache;
        min_uptime_ms;
        breaker_limit = breaker;
        chaos;
        tracing;
      }
  in
  let dir =
    Arg.(
      value & opt string ".ccsched-serve"
      & info [ "dir" ] ~docv:"PATH"
          ~doc:
            "State directory: the persistent plan cache and per-worker \
             metrics snapshots live here.")
  in
  let workers =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Preforked accept workers sharing the listening socket and the \
             plan cache; 0 serves inline in this process.")
  in
  let level =
    Arg.(
      value & opt string "info"
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:"Log level on stderr: debug, info, warn or error.")
  in
  let backlog =
    Arg.(
      value & opt int 64
      & info [ "backlog" ] ~docv:"N"
          ~doc:"Kernel accept-queue depth for the listening socket.")
  in
  let deadline_ms =
    Arg.(
      value & opt int 0
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request time budget covering read, plan build and write; \
             a blown budget answers with a structured deadline-exceeded \
             error.  0 disables.")
  in
  let max_inflight =
    Arg.(
      value & opt int 0
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Per-worker concurrent-connection limit; connections past it \
             are answered with a structured overloaded error (carrying \
             retry_after_ms) and closed.  0 disables shedding.")
  in
  let retry_after_ms =
    Arg.(
      value & opt int 50
      & info [ "retry-after-ms" ] ~docv:"MS"
          ~doc:"Backoff hint carried by overloaded responses.")
  in
  let store_max_bytes =
    Arg.(
      value & opt int 0
      & info [ "store-max-bytes" ] ~docv:"BYTES"
          ~doc:
            "Evict least-recently-used plan-store records past this byte \
             bound.  0 means unbounded.")
  in
  let store_max_entries =
    Arg.(
      value & opt int 0
      & info [ "store-max-entries" ] ~docv:"N"
          ~doc:
            "Evict least-recently-used plan-store records past this entry \
             bound.  0 means unbounded.")
  in
  let hot_cache =
    Arg.(
      value & opt int 64
      & info [ "hot-cache" ] ~docv:"N"
          ~doc:
            "Per-worker in-memory artifact cache entries in front of the \
             disk store.  0 disables.")
  in
  let min_uptime_ms =
    Arg.(
      value & opt int 1000
      & info [ "min-uptime-ms" ] ~docv:"MS"
          ~doc:
            "A worker dying sooner than this counts as a rapid death to \
             the crash-loop circuit breaker.")
  in
  let breaker =
    Arg.(
      value & opt int 5
      & info [ "breaker" ] ~docv:"N"
          ~doc:
            "Quarantine a worker slot after this many consecutive rapid \
             deaths instead of respawning it forever.")
  in
  let chaos =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Seeded serve-layer fault plan (testing only), e.g. \
             kill@5,iofault@2:3,truncate@8 or srand@7:4 — epochs are \
             per-worker request indices.")
  in
  let tracing =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Record per-stage request spans: per-stage latency \
             histograms on /metrics, live trace files under DIR/trace, \
             richer flight dumps, and ts_us timestamps on log lines.  \
             Responses are bit-identical with or without it.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduling daemon: accept graph specs over a socket, \
          answer with plans and predicted miss bounds, and memoise the \
          NP-hard partitioning step in a persistent plan cache.  The \
          daemon is production-hardened: per-request deadlines, overload \
          shedding, a size-bounded self-healing plan store, and a \
          crash-loop circuit breaker around its workers.  GET /metrics \
          on the same socket returns Prometheus metrics.  SIGTERM shuts \
          down cleanly.")
    Term.(
      const run $ address_args $ dir $ workers $ level $ backlog
      $ deadline_ms $ max_inflight $ retry_after_ms $ store_max_bytes
      $ store_max_entries $ hot_cache $ min_uptime_ms $ breaker $ chaos
      $ tracing)

let submit_cmd =
  let run address graph m b ways capacities dry_run trace_id retries
      backoff_ms timeout_ms =
    let address = or_die address in
    with_graph graph @@ fun g ->
    let capacities =
      match capacities with
      | None -> None
      | Some s -> Some (Array.of_list (or_die (ints_of_string s)))
    in
    let fields =
      [
        ("op", Ccs.Json.String "plan");
        ("graph", Ccs.Json.String (Ccs.Serial.to_text g));
        ("cache_words", Ccs.Json.Int m);
        ("block_words", Ccs.Json.Int b);
      ]
      @ (match ways with
        | None -> []
        | Some w -> [ ("ways", Ccs.Json.Int w) ])
      @ (match capacities with
        | None -> []
        | Some caps ->
            [
              ( "capacities",
                Ccs.Json.List
                  (Array.to_list
                     (Array.map (fun c -> Ccs.Json.Int c) caps)) );
            ])
      @ (if dry_run then [ ("dry_run", Ccs.Json.Bool true) ] else [])
      @
      match trace_id with
      | None -> []
      | Some id -> [ ("trace_id", Ccs.Json.String id) ]
    in
    let line = Ccs.Json.to_string (Ccs.Json.Obj fields) in
    let response =
      (* Retries are safe: plan requests are idempotent by plan key, so
         a replay after a lost answer hits the record it stored. *)
      try
        Ccs_serve.Server.request_retry ~retries ~backoff_ms ~timeout_ms
          ~seed:(Unix.getpid ()) address line
      with
      | Unix.Unix_error (e, _, _) ->
          or_die
            (Error
               (Printf.sprintf "cannot reach daemon at %s: %s"
                  (Ccs_serve.Server.pp_address address)
                  (Unix.error_message e)))
      | End_of_file | Sys_blocked_io ->
          or_die
            (Error
               (Printf.sprintf "no response from daemon at %s"
                  (Ccs_serve.Server.pp_address address)))
    in
    print_endline response;
    match Ccs.Json.of_string response with
    | Ok v when Ccs.Json.member "ok" v = Some (Ccs.Json.Bool true) -> ()
    | _ -> exit 1
  in
  let ways =
    Arg.(
      value
      & opt (some int) None
      & info [ "ways" ] ~docv:"N"
          ~doc:"Ask for an N-way set-associative cache (1 = direct-mapped).")
  in
  let capacities =
    Arg.(
      value
      & opt (some string) None
      & info [ "capacities" ] ~docv:"N0,N1,..."
          ~doc:
            "Pin these per-channel buffer capacities (tokens, in channel \
             order) instead of the planner's choice.")
  in
  let dry_run =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:
            "Also run one period of the plan on the compiled backend and \
             report its output count and checksum.")
  in
  let trace_id =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-id" ] ~docv:"ID"
          ~doc:
            "Correlation id carried with the request and echoed in the \
             response, the daemon's log lines and its trace spans — pick \
             any string unique enough to grep for.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Replay the request up to N times on transport failure or an \
             overloaded response (jittered exponential backoff, honouring \
             the daemon's retry_after_ms hint).  Safe: plan requests are \
             idempotent by plan key.")
  in
  let backoff_ms =
    Arg.(
      value & opt int 50
      & info [ "backoff-ms" ] ~docv:"MS"
          ~doc:"Base retry backoff; doubles per attempt, plus jitter.")
  in
  let timeout_ms =
    Arg.(
      value & opt int 0
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Socket send/receive timeout per attempt; a stalled daemon \
             becomes a retryable transport error.  0 waits forever.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit one graph to a running ccsched serve daemon and print its \
          response line; exit nonzero on an error response.")
    Term.(
      const run $ address_args $ graph_args $ cache_words_arg
      $ block_words_arg $ ways $ capacities $ dry_run $ trace_id $ retries
      $ backoff_ms $ timeout_ms)

let () =
  let doc = "cache-conscious scheduling of streaming applications (SPAA'12)" in
  let status =
    (* Last-resort containment: no subcommand may escape with an uncaught
       exception on malformed input — everything becomes a one-line
       diagnostic and a nonzero exit.  [~catch:false] keeps Cmdliner from
       intercepting exceptions first (its handler prints a multi-line
       "internal error" report and exits 125). *)
    try
      Cmd.eval ~catch:false
        (Cmd.group (Cmd.info "ccsched" ~version:"1.0.0" ~doc)
           [
             check_cmd; info_cmd; partition_cmd; run_cmd; profile_cmd;
             compare_cmd; apps_cmd; multi_cmd; trace_cmd; codegen_cmd;
             fuse_cmd; normalize_cmd; dot_cmd; bench_cmd; serve_cmd;
             submit_cmd;
           ])
    with
    | Ccs.Error.Error e ->
        prerr_endline ("ccsched: error: " ^ Ccs.Error.to_string e);
        1
    | Ccs.Graph.Invalid_graph msg ->
        prerr_endline ("ccsched: invalid graph: " ^ msg);
        1
    | Invalid_argument msg | Failure msg ->
        prerr_endline ("ccsched: error: " ^ msg);
        1
    | Sys_error msg ->
        prerr_endline ("ccsched: i/o error: " ^ msg);
        1
    | exn ->
        prerr_endline ("ccsched: internal error: " ^ Printexc.to_string exn);
        125
  in
  exit status
