(* Machine-readable benchmark output (see EXPERIMENTS.md, "JSON output").

   {!Ccs.Json} (value type and printer) plus a process-global collector:
   the harness opens a run with [enable], each experiment is bracketed by
   [start_experiment]/[finish_experiment], and helpers sprinkled through
   the experiment code call [point] to attach structured records (simulated
   data points, predicted bounds, equivalence checks) to the current
   experiment.  [write] serializes everything to the requested file. *)

include Ccs.Json

(* --- collector ---------------------------------------------------------- *)

type experiment = {
  id : string;
  description : string;
  mutable records : value list; (* reversed *)
}

let output_path : string option ref = ref None
let trace_path : string option ref = ref None
let finished : experiment list ref = ref [] (* reversed *)
let current : experiment option ref = ref None

let enable path = output_path := Some path
let enabled () = !output_path <> None

let set_trace_file path = trace_path := Some path

let start_experiment ~id description =
  if enabled () then
    current := Some { id; description; records = [] }

let point fields =
  match !current with
  | Some e when enabled () -> e.records <- Obj fields :: e.records
  | _ -> ()

let finish_experiment () =
  match !current with
  | Some e ->
      finished := e :: !finished;
      current := None
  | None -> ()

let experiment_value e =
  Obj
    [
      ("experiment", String e.id);
      ("description", String e.description);
      ("records", List (List.rev e.records));
    ]

let write ~argv =
  match !output_path with
  | None -> ()
  | Some path ->
      let doc =
        Obj
          [
            (* v2 added the top-level "trace_file" pointer (null unless
               the run exported a Chrome trace via --trace); v3 drops every
               wall-clock field (unix_time, wall_s, cpu_s and the timing
               records), so each field is deterministic. *)
            ("schema_version", Int 3);
            ("generated_by", String "bench/main.exe");
            ("argv", List (List.map (fun a -> String a) argv));
            ( "trace_file",
              match !trace_path with Some p -> String p | None -> Null );
            ("experiments", List (List.rev_map experiment_value !finished));
          ]
      in
      (* Atomic write (shared Binio discipline): a crash mid-serialization
         cannot leave a truncated document where the CI regression gate
         expects a baseline, and parallel bench runs targeting the same
         file cannot rename each other's half-written temp into place. *)
      Ccs.Binio.write_atomic ~path (to_string doc ^ "\n");
      Printf.printf "\n(JSON written to %s)\n" path
