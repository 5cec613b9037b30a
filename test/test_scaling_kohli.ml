(* Tests for the related-work heuristics: Sermulins-style execution scaling
   and the Kohli-style greedy sweep. *)

module G = Ccs.Graph
module R = Ccs.Rates
module S = Ccs.Schedule
module P = Ccs.Plan

let cache64 = Ccs.Cache.config ~size_words:64 ~block_words:8 ()

let test_scaled_schedule_shape () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:2 () in
  let a = R.analyze_exn g in
  let period s = Option.get (Ccs.Scaling.plan g a ~s).P.period in
  let s2 = period 2 in
  Alcotest.(check (list int)) "each invocation doubled" [ 0; 0; 1; 1; 2; 2 ]
    (Sdf_oracle.firings s2);
  let s1 = period 1 in
  Alcotest.(check int) "s=1 is the base period" 3 (S.length s1)

let test_scaled_schedule_legal_periodic () =
  List.iter
    (fun entry ->
      let g = entry.Ccs_apps.Suite.graph () in
      let a = R.analyze_exn g in
      List.iter
        (fun s ->
          let plan = Ccs.Scaling.plan g a ~s in
          Alcotest.(check bool)
            (Printf.sprintf "%s x%d legal and periodic"
               entry.Ccs_apps.Suite.name s)
            true
            (Option.is_some plan.P.period && P.validate g plan = Ok ()))
        [ 1; 2; 5 ])
    Ccs_apps.Suite.all

let test_scaling_buffers_grow () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:2 () in
  let a = R.analyze_exn g in
  let b1 = P.buffer_words (Ccs.Scaling.plan g a ~s:1) in
  let b8 = P.buffer_words (Ccs.Scaling.plan g a ~s:8) in
  Alcotest.(check bool) "x8 uses more buffer" true (b8 > b1);
  Alcotest.(check int) "x8 scales linearly on a chain" (8 * b1) b8

let test_auto_respects_cache () =
  let g = Ccs.Generators.uniform_pipeline ~n:8 ~state:4 () in
  let a = R.analyze_exn g in
  let plan = Ccs.Scaling.auto g a ~cache_words:128 () in
  (* Total buffers plus the largest module state must fit. *)
  Alcotest.(check bool) "fits" true (P.buffer_words plan + 4 <= 128);
  (* And the next doubling must not fit (maximality), unless capped. *)
  let name = plan.P.name in
  Alcotest.(check bool) "picked s > 1" true (name <> "scaling-x1")

let test_auto_falls_back_to_1 () =
  (* A cache too small for even the base period's buffers: s = 1. *)
  let g =
    Ccs.Generators.pipeline ~n:3
      ~state:(fun _ -> 4)
      ~rates:(fun _ -> (8, 8))
      ()
  in
  let a = R.analyze_exn g in
  let plan = Ccs.Scaling.auto g a ~cache_words:10 () in
  Alcotest.(check string) "s=1" "scaling-x1" plan.P.name

let test_scaling_invalid_s () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:2 () in
  let a = R.analyze_exn g in
  Alcotest.check_raises "s=0"
    (Invalid_argument "Scaling.plan: s must be >= 1") (fun () ->
      ignore (Ccs.Scaling.plan g a ~s:0))

(* A PASS that starts by consuming initial tokens: src->mid holds two,
   so scaling by 2 stays legal and scaling by 3 underflows them. *)
let test_scaling_with_delay () =
  let b = G.Builder.create () in
  let src = G.Builder.add_module b ~state:4 "src" in
  let mid = G.Builder.add_module b ~state:4 "mid" in
  let snk = G.Builder.add_module b ~state:4 "snk" in
  ignore (G.Builder.add_channel b ~delay:2 ~src ~dst:mid ~push:1 ~pop:1 ());
  ignore (G.Builder.add_channel b ~src:mid ~dst:snk ~push:1 ~pop:1 ());
  let g = G.Builder.build b in
  let a = R.analyze_exn g in
  let plan = Ccs.Scaling.auto g a ~cache_words:2048 () in
  Alcotest.(check string) "largest legal factor" "scaling-x2" plan.P.name;
  Alcotest.(check bool) "certifies" true (P.validate g plan = Ok ());
  match Ccs.Scaling.plan g a ~s:3 with
  | _ -> Alcotest.fail "scaling by 3 must underflow src->mid"
  | exception Ccs.Error.Error e ->
      Alcotest.(check string)
        "underflow witness"
        "firing 2 (module mid) underflows channel src->mid#0"
        (Ccs.Error.to_string e)

let test_scaling_reduces_misses () =
  (* The heuristic's raison d'être: on a state-heavy pipeline, scaling must
     beat the unscaled baseline. *)
  let g = Ccs.Generators.uniform_pipeline ~n:8 ~state:64 () in
  let a = R.analyze_exn g in
  let cache = Ccs.Cache.config ~size_words:256 ~block_words:8 () in
  let run plan =
    let r, _ =
      Must.ok (Ccs.Runner.run ~graph:g ~cache ~plan ~outputs:2000 ())
    in
    r.Ccs.Runner.misses_per_input
  in
  let base = run (Ccs.Baseline.minimal_memory g a) in
  let scaled = run (Ccs.Scaling.plan g a ~s:16) in
  Alcotest.(check bool)
    (Printf.sprintf "scaled %.2f < base %.2f" scaled base)
    true (scaled < base /. 2.)

let test_kohli_terminates_and_targets () =
  List.iter
    (fun entry ->
      let g = entry.Ccs_apps.Suite.graph () in
      let a = R.analyze_exn g in
      let plan = Ccs.Kohli.auto g a ~cache_words:512 in
      let r, _ =
        Must.ok
          (Ccs.Runner.run ~graph:g
             ~cache:(Ccs.Cache.config ~size_words:512 ~block_words:8 ())
             ~plan ~outputs:200 ())
      in
      Alcotest.(check bool)
        (entry.Ccs_apps.Suite.name ^ " reached target")
        true
        (r.Ccs.Runner.outputs >= 200))
    Ccs_apps.Suite.all

let test_kohli_amortizes_state () =
  (* With room to run each module many times per sweep, Kohli must beat
     one-at-a-time round-robin on a state-heavy chain. *)
  let g = Ccs.Generators.uniform_pipeline ~n:8 ~state:64 () in
  let a = R.analyze_exn g in
  let cache = Ccs.Cache.config ~size_words:256 ~block_words:8 () in
  let run plan =
    let r, _ =
      Must.ok (Ccs.Runner.run ~graph:g ~cache ~plan ~outputs:2000 ())
    in
    r.Ccs.Runner.misses_per_input
  in
  let rr = run (Ccs.Baseline.round_robin g a) in
  let kohli = run (Ccs.Kohli.plan g a ~buffer_tokens:32) in
  Alcotest.(check bool)
    (Printf.sprintf "kohli %.2f < rr %.2f" kohli rr)
    true (kohli < rr /. 2.)

let test_kohli_capacities_cover_minbuf () =
  let g = Ccs_apps.Filterbank.graph ~bands:4 ~taps:8 () in
  let a = R.analyze_exn g in
  let mb = Ccs.Minbuf.compute g a in
  let plan = Ccs.Kohli.plan g a ~buffer_tokens:2 in
  Array.iteri
    (fun e cap ->
      Alcotest.(check bool)
        (Printf.sprintf "edge %d capacity covers minBuf" e)
        true
        (cap >= mb.Ccs.Minbuf.capacity.(e)))
    plan.P.capacities

let () =
  ignore cache64;
  Alcotest.run "scaling-kohli"
    [
      ( "scaling",
        [
          Alcotest.test_case "scaled schedule shape" `Quick
            test_scaled_schedule_shape;
          Alcotest.test_case "legal and periodic" `Quick
            test_scaled_schedule_legal_periodic;
          Alcotest.test_case "buffers grow" `Quick test_scaling_buffers_grow;
          Alcotest.test_case "auto respects cache" `Quick
            test_auto_respects_cache;
          Alcotest.test_case "auto falls back" `Quick test_auto_falls_back_to_1;
          Alcotest.test_case "invalid s" `Quick test_scaling_invalid_s;
          Alcotest.test_case "channel delay" `Quick test_scaling_with_delay;
          Alcotest.test_case "reduces misses" `Quick test_scaling_reduces_misses;
        ] );
      ( "kohli",
        [
          Alcotest.test_case "terminates on suite" `Quick
            test_kohli_terminates_and_targets;
          Alcotest.test_case "amortizes state" `Quick test_kohli_amortizes_state;
          Alcotest.test_case "capacities cover minbuf" `Quick
            test_kohli_capacities_cover_minbuf;
        ] );
    ]
