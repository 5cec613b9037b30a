(* Experiment harness: regenerates every quantitative claim of the paper
   (see DESIGN.md section 4 and EXPERIMENTS.md for the index and expected
   shapes), and nothing else: 19 experiments, E1-E11, E13-E19 and E22.  The
   paper is a theory paper with no tables or figures, so each section
   validates a theorem's predicted shape on the simulated DAM machine.
   Equivalence checks of the system around the planner (checkpointing,
   telemetry, the compiled backend, the daemon) live in the tier-1 tests,
   and its timings in perfbench/.

   Run everything:        dune exec bench/main.exe
   Run one experiment:    dune exec bench/main.exe -- E7
   CI smoke subset:       dune exec bench/main.exe -- --quick
   Machine-readable run:  dune exec bench/main.exe -- --json BENCH_2026-08-07.json

   With [--json FILE] every experiment appends structured records
   (simulated data points, predicted bounds, equivalence checks) to FILE;
   see EXPERIMENTS.md for the schema.  Every field is deterministic: wall
   clock is measured by perfbench/, not here. *)

let experiments : (string * string * (unit -> unit)) list =
  [
    ("E1", "pipeline upper bound (Lemma 4)", E_pipeline.e1);
    ("E2", "pipeline lower bound (Theorem 3)", E_pipeline.e2);
    ("E3", "greedy competitiveness (Theorem 5)", E_pipeline.e3);
    ("E4", "homogeneous DAG upper bound (Lemma 8)", E_dag.e4);
    ("E5", "DAG lower bound (Theorem 7)", E_dag.e5);
    ("E6", "application suite comparison", E_apps.e6);
    ("E7", "crossover study", E_apps.e7);
    ("E8", "inhomogeneous granularity-T", E_dag.e8);
    ("E9", "buffer-size ablation", E_ablations.e9);
    ("E10", "augmentation ablation", E_ablations.e10);
    ("E11", "degree-limit ablation", E_ablations.e11);
    ("E13", "replacement-policy sensitivity", E_policy.e13);
    ("E14", "LRU vs clairvoyant OPT", E_policy.e14);
    ("E15", "partitioner quality", E_partitioners.e15);
    ("E16", "multiprocessor placement", E_multi.e16);
    ("E17", "latency cost of cache efficiency", E_latency.e17);
    ("E18", "reuse-distance profiles", E_trace.e18);
    ("E19", "attributed profiling (Lemmas 4/8)", E_profile.e19);
    ("E22", "adaptive resilience under chaos", E_adapt.e22);
  ]

(* Sub-second experiments: the CI smoke set. *)
let quick_ids = [ "E1"; "E4"; "E5"; "E7"; "E9"; "E13"; "E15"; "E18"; "E19" ]

let usage () =
  Printf.eprintf
    "usage: main.exe [--json FILE] [--trace FILE] [--quick] [EXPERIMENT...]\n\
     available experiments:\n";
  List.iter
    (fun (id, desc, _) -> Printf.eprintf "  %-4s %s\n" id desc)
    experiments

type opts = {
  ids : string list;
  json : string option;
  trace : string option;
  quick : bool;
}

let parse_args args =
  let rec go acc = function
    | [] -> { acc with ids = List.rev acc.ids }
    | "--json" :: file :: rest -> go { acc with json = Some file } rest
    | [ "--json" ] ->
        Printf.eprintf "error: --json requires a FILE argument\n";
        usage ();
        exit 2
    | "--trace" :: file :: rest -> go { acc with trace = Some file } rest
    | [ "--trace" ] ->
        Printf.eprintf "error: --trace requires a FILE argument\n";
        usage ();
        exit 2
    | "--quick" :: rest -> go { acc with quick = true } rest
    | flag :: _ when String.length flag > 0 && flag.[0] = '-' ->
        Printf.eprintf "error: unknown flag %s\n" flag;
        usage ();
        exit 2
    | id :: rest -> go { acc with ids = id :: acc.ids } rest
  in
  go { ids = []; json = None; trace = None; quick = false } args

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let opts = parse_args args in
  (* Validate every requested id up front: one unknown id fails the whole
     invocation (previously `main.exe E7 E99` silently dropped E99). *)
  let unknown =
    List.filter
      (fun id -> not (List.exists (fun (i, _, _) -> i = id) experiments))
      opts.ids
  in
  if unknown <> [] then begin
    List.iter (fun id -> Printf.eprintf "error: unknown experiment %s\n" id)
      unknown;
    usage ();
    exit 1
  end;
  let to_run =
    match opts.ids with
    | [] ->
        if opts.quick then
          List.filter (fun (id, _, _) -> List.mem id quick_ids) experiments
        else experiments
    | ids -> List.filter (fun (id, _, _) -> List.mem id ids) experiments
  in
  (match opts.json with Some file -> Json.enable file | None -> ());
  (match opts.trace with
  | Some file ->
      E_profile.trace_file := Some file;
      Json.set_trace_file file;
      (* --trace implies the experiment that produces it. *)
      if opts.ids <> [] && not (List.mem "E19" opts.ids) then begin
        Printf.eprintf "error: --trace requires experiment E19 to run\n";
        exit 2
      end
  | None -> ());
  Printf.printf
    "Cache-Conscious Scheduling of Streaming Applications (SPAA'12) — \
     experiment harness\n";
  List.iter
    (fun (id, desc, run) ->
      Json.start_experiment ~id desc;
      run ();
      Json.finish_experiment ())
    to_run;
  Json.write ~argv:args
