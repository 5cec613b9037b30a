(* Differential suite for the compiled execution backend: for any plan,
   [Compiled] must be bit-identical to the interpreted engine running the
   codegen-semantics kernels — same sink checksums, same output counts —
   and its recorded word-access trace replayed through the cache
   simulator must reproduce the interpreted machine's miss count. *)

module G = Ccs.Graph

let cache = Ccs.Cache.config ~size_words:2048 ~block_words:16 ()
let cfg = Ccs.Config.make ~cache_words:2048 ~block_words:16 ()

let auto_plan g = (Ccs.Auto.plan ~dynamic:false g cfg).Ccs.Auto.plan

(* Interpreted reference: an engine over a trace-free machine, driven for
   whole periods so both sides do exactly the same firings. *)
let interpreted g plan ~periods =
  let program = Ccs.Program.create g (Ccs.Codegen.codegen_semantics g) in
  let engine = Ccs.Engine.of_plan ~program ~cache ~plan () in
  let m = Ccs.Engine.machine engine in
  let period = Option.get plan.Ccs.Plan.period in
  for _ = 1 to periods do
    Ccs.Schedule.run m period
  done;
  let sinks = G.sinks g in
  let outputs =
    List.fold_left (fun a s -> a + Ccs.Machine.fires m s) 0 sinks
  in
  let checksum =
    List.fold_left (fun a s -> a +. (Ccs.Engine.state engine s).(0)) 0. sinks
  in
  (outputs, checksum, Ccs.Machine.misses m)

let compiled g plan ~periods =
  let l =
    match Ccs.Lowering.lower g ~plan ~cache with
    | Ok l -> l
    | Error (e :: _) -> Alcotest.failf "lowering: %s" (Ccs.Error.to_string e)
    | Error [] -> assert false
  in
  let c = Ccs.Compiled.create ~record_trace:true l in
  Ccs.Compiled.run_periods c periods;
  let misses = Ccs.Replay.misses ~cache (Ccs.Compiled.trace c) in
  (Ccs.Compiled.outputs c, Ccs.Compiled.checksum c, misses)

let bits = Int64.bits_of_float

let differential ?(periods = 3) g plan =
  let i_out, i_sum, i_miss = interpreted g plan ~periods in
  let c_out, c_sum, c_miss = compiled g plan ~periods in
  Alcotest.(check int) "same outputs" i_out c_out;
  Alcotest.(check int64) "bit-identical checksum" (bits i_sum) (bits c_sum);
  Alcotest.(check int) "same replayed misses" i_miss c_miss;
  (c_out, c_sum, c_miss)

(* --- the 12-application suite ------------------------------------- *)

(* Each app run for [max 1 (150_000 / firings per period)] whole periods:
   app -> (periods, firings, outputs, checksum, misses).  The goldens pin
   the plans, the codegen-semantics kernels and the cache accounting
   together; a change to any of them must update this table on purpose. *)
let suite_goldens =
  [
    ("fm-radio", (15, 145920, 7680, 3689640., 94));
    ("fft", (1, 167936, 2048, 16784896., 92));
    ("beamformer", (5, 145920, 1280, 409915., 96));
    ("filterbank", (13, 139776, 3328, 1385644., 85));
    ("bitonic", (2, 106496, 4096, 8402688., 29));
    ("des", (1, 106496, 2048, 1024.0000000018608, 4430));
    ("vocoder", (1, 79360, 512, 65632., 4740));
    ("matmul", (35, 147840, 71680, 160594560., 39));
    ("radar", (4, 124928, 1024, 33247., 72));
    ("ofdm", (12, 149760, 624, 7904.5078125, 6412));
    ("dct-codec", (65, 149760, 2080, 1082111.875, 74));
    ("mp3", (33, 145794, 2112, 1115647.5, 23330));
  ]

let test_app entry () =
  let name = entry.Ccs_apps.Suite.name in
  let g = entry.Ccs_apps.Suite.graph () in
  let plan = auto_plan g in
  ignore (differential g plan);
  let periods, fires, outputs, checksum, misses =
    List.assoc name suite_goldens
  in
  let period_fires =
    Array.fold_left ( + ) 0
      (Ccs.Schedule.fire_counts ~num_nodes:(G.num_nodes g)
         (Option.get plan.Ccs.Plan.period))
  in
  Alcotest.(check int) "periods" periods (max 1 (150_000 / period_fires));
  Alcotest.(check int) "firings" fires (periods * period_fires);
  let got_outputs, got_checksum, got_misses = differential ~periods g plan in
  Alcotest.(check int) "golden outputs" outputs got_outputs;
  Alcotest.(check int64) "golden checksum bits" (bits checksum)
    (bits got_checksum);
  Alcotest.(check int) "golden misses" misses got_misses

(* --- random graphs ------------------------------------------------ *)

(* Sinks keep at least one state word so the engine-side checksum stays
   readable through [Engine.state]; other modules may drop to zero state
   (exercising the spill-cell path on sources and interiors). *)
let with_zero_states g =
  let sinks = G.sinks g in
  let b = G.Builder.create ~name:(G.name g) () in
  List.iter
    (fun v ->
      let st = G.state g v in
      let state =
        if List.mem v sinks then max 1 st else if v mod 2 = 0 then 0 else st
      in
      ignore (G.Builder.add_module b ~state (G.node_name g v)))
    (G.nodes g);
  List.iter
    (fun e ->
      ignore
        (G.Builder.add_channel b ~delay:(G.delay g e) ~src:(G.src g e)
           ~dst:(G.dst g e) ~push:(G.push g e) ~pop:(G.pop g e) ()))
    (G.edges g);
  G.Builder.build b

let gen_case =
  QCheck2.Gen.(
    let* seed = int_bound 10_000 in
    let* n = int_range 2 8 in
    let* shape = oneofl [ `Pipeline; `Dag ] in
    let* zeros = bool in
    return (seed, n, shape, zeros))

let build_case (seed, n, shape, zeros) =
  let g =
    match shape with
    | `Pipeline ->
        Ccs.Generators.random_pipeline ~seed ~n ~max_state:24 ~max_rate:4 ()
    | `Dag ->
        (* [random_sdf_dag] needs at least 3 modules to draw chords. *)
        Ccs.Generators.random_sdf_dag ~seed ~n:(max 3 n) ~max_state:24
          ~max_rate:3 ~extra_edges:2 ()
  in
  if zeros then with_zero_states g else g

let prop_random_graphs =
  QCheck2.Test.make ~name:"compiled = interpreted on random SDF graphs"
    ~count:60 gen_case (fun case ->
      let g = build_case case in
      let plan = auto_plan g in
      ignore (differential ~periods:2 g plan);
      true)

(* --- compiled vs emitted (same lowering, two consumers) ------------ *)

let run_generated code ~periods =
  let path = Filename.temp_file "ccsgen" ".ml" in
  let oc = open_out path in
  output_string oc code;
  close_out oc;
  let out_path = Filename.temp_file "ccsgen" ".out" in
  let rc =
    Sys.command
      (Printf.sprintf "ocaml %s %d > %s 2>/dev/null" (Filename.quote path)
         periods
         (Filename.quote out_path))
  in
  let ic = open_in out_path in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  Sys.remove path;
  Sys.remove out_path;
  if rc <> 0 then Alcotest.failf "generated program exited with %d" rc;
  Scanf.sscanf line "outputs=%d checksum=%f" (fun o c -> (o, c))

let test_emitted_matches_compiled () =
  List.iter
    (fun name ->
      let entry = Option.get (Ccs_apps.Suite.find name) in
      let g = entry.Ccs_apps.Suite.graph () in
      let plan = auto_plan g in
      let periods = 3 in
      let e_out, e_sum =
        run_generated (Ccs.Codegen.emit ~cache g ~plan) ~periods
      in
      let c_out, c_sum, _ = compiled g plan ~periods in
      Alcotest.(check int) (name ^ " outputs") c_out e_out;
      (* The emitted program prints %.6f; compare at that precision. *)
      Alcotest.(check string)
        (name ^ " checksum")
        (Printf.sprintf "%.6f" c_sum)
        (Printf.sprintf "%.6f" e_sum))
    [ "fm-radio"; "bitonic" ]

(* --- compiled runner semantics ------------------------------------ *)

let test_run_to_target () =
  let entry = Option.get (Ccs_apps.Suite.find "fft") in
  let g = entry.Ccs_apps.Suite.graph () in
  let plan = auto_plan g in
  let l =
    match Ccs.Lowering.lower g ~plan ~cache with
    | Ok l -> l
    | Error _ -> Alcotest.fail "lowering failed"
  in
  let c = Ccs.Compiled.create l in
  Ccs.Compiled.run c ~target_outputs:50;
  let got = Ccs.Compiled.outputs c in
  Alcotest.(check bool) "met target" true (got >= 50);
  (* Whole periods only: outputs are a multiple of the period's yield. *)
  Alcotest.(check int) "whole periods" 0
    (got mod l.Ccs.Lowering.period_outputs)

let () =
  let app_cases =
    List.map
      (fun entry ->
        Alcotest.test_case entry.Ccs_apps.Suite.name `Slow (test_app entry))
      Ccs_apps.Suite.all
  in
  Alcotest.run "compiled"
    [
      ("apps-differential", app_cases);
      ("random", [ QCheck_alcotest.to_alcotest prop_random_graphs ]);
      ( "emitted",
        [ Alcotest.test_case "matches compiled" `Slow
            test_emitted_matches_compiled ] );
      ("runner", [ Alcotest.test_case "run to target" `Quick test_run_to_target ]);
    ]
