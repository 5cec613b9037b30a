(* Shared helpers for the experiment harness. *)

module G = Ccs.Graph
module R = Ccs.Rates

let section id title =
  Printf.printf "\n=== %s: %s ===\n" id title

let note fmt = Printf.kfprintf (fun _ -> print_newline ()) stdout fmt

(* Attach a structured data point for the simulated run to the active
   --json experiment (no-op otherwise). *)
let record_run g (cache : Ccs.Cache.config) (r : Ccs.Runner.result) =
  if Json.enabled () then
    Json.point
      [
        ("kind", Json.String "simulation");
        ("graph", Json.String (G.name g));
        ("plan", Json.String r.Ccs.Runner.plan_name);
        ("m", Json.Int cache.Ccs.Cache.size_words);
        ("b", Json.Int cache.Ccs.Cache.block_words);
        ("inputs", Json.Int r.Ccs.Runner.inputs);
        ("outputs", Json.Int r.Ccs.Runner.outputs);
        ("accesses", Json.Int r.Ccs.Runner.accesses);
        ("misses", Json.Int r.Ccs.Runner.misses);
        ("misses_per_input", Json.Float r.Ccs.Runner.misses_per_input);
        ("buffer_words", Json.Int r.Ccs.Runner.buffer_words);
      ]

(* Attach a predicted (theorem) bound in misses/input for comparison
   against the simulated points of the same experiment. *)
let record_bound ~label value =
  if Json.enabled () then
    Json.point
      [
        ("kind", Json.String "predicted_bound");
        ("label", Json.String label);
        ("misses_per_input", Json.Float value);
      ]

(* Experiments abort on a structured error: every run here must succeed. *)
let ok_exn = function
  | Ok v -> v
  | Error e -> failwith (Ccs.Error.to_string e)

let run_result g cache plan outputs =
  let r, _ = ok_exn (Ccs.Runner.run ~graph:g ~cache ~plan ~outputs ()) in
  record_run g cache r;
  r

let run_mpi g cache plan outputs =
  (run_result g cache plan outputs).Ccs.Runner.misses_per_input

let f = Ccs.Table.fmt_float

let max_state g =
  List.fold_left (fun acc v -> max acc (G.state g v)) 1 (G.nodes g)

(* A partition whose components fit comfortably in a cache of [m] words,
   under the planner's own state bound and (for DAGs) Lemma 8 degree cap. *)
let fitting_partition ?(b = 16) g ~m =
  let cfg = Ccs.Config.make ~cache_words:m ~block_words:b () in
  let bound = Ccs.Auto.fitting_bound g cfg in
  let a = R.analyze_exn g in
  if G.is_pipeline g then Ccs.Pipeline_partition.optimal_dp g a ~bound
  else
    Ccs.Dag_partition.best g a ~bound ~max_degree:(Ccs.Auto.degree_cap cfg) ()

let ratio a b = if b = 0. then Float.nan else a /. b
