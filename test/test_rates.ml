(* Unit tests for rate analysis: gains, rate-matching, repetition vectors,
   and the granularity T of the inhomogeneous scheduler. *)

module G = Ccs.Graph
module B = G.Builder
module R = Ccs.Rates
module Q = Ccs.Rational

let q = Alcotest.testable (fun fmt x -> Q.pp fmt x) Q.equal

let test_pipeline_gains () =
  (* src -1/1-> a -2/1-> b -1/2-> sink : gains 1, 1, 2, 1 *)
  let g =
    Ccs.Generators.pipeline ~n:4
      ~state:(fun _ -> 1)
      ~rates:(fun i -> [| (1, 1); (2, 1); (1, 2) |].(i))
      ()
  in
  let a = R.analyze_exn g in
  Alcotest.check q "gain src" Q.one (R.gain a 0);
  Alcotest.check q "gain a" Q.one (R.gain a 1);
  Alcotest.check q "gain b" (Q.of_int 2) (R.gain a 2);
  Alcotest.check q "gain sink" Q.one (R.gain a 3);
  Alcotest.check q "edge gain 1 (a->b)" (Q.of_int 2) (Sdf_oracle.edge_gain a 1);
  Alcotest.(check (array int)) "repetition" [| 1; 1; 2; 1 |] a.R.repetition;
  Alcotest.(check int) "period inputs" 1 a.R.period_inputs

let test_fractional_gain () =
  (* src -1/3-> a : gain(a) = 1/3, repetition [3; 1]. *)
  let g =
    Ccs.Generators.pipeline ~n:2
      ~state:(fun _ -> 1)
      ~rates:(fun _ -> (1, 3))
      ()
  in
  let a = R.analyze_exn g in
  Alcotest.check q "gain a" (Q.make 1 3) (R.gain a 1);
  Alcotest.(check (array int)) "repetition" [| 3; 1 |] a.R.repetition;
  Alcotest.(check int) "period inputs" 3 a.R.period_inputs

let test_homogeneous_dag () =
  let g = Ccs.Generators.split_join ~branches:3 ~depth:2 ~state:1 () in
  let a = R.analyze_exn g in
  Alcotest.(check bool) "rate matched" true (Sdf_oracle.is_rate_matched g);
  G.nodes g
  |> List.iter (fun v -> Alcotest.check q "all gains 1" Q.one (R.gain a v));
  Array.iter
    (fun r -> Alcotest.(check int) "all repetitions 1" 1 r)
    a.R.repetition

let test_not_rate_matched () =
  (* Diamond with mismatched branch rates. *)
  let b = B.create () in
  let s = B.add_module b "s" in
  let x = B.add_module b "x" in
  let y = B.add_module b "y" in
  let t = B.add_module b "t" in
  ignore (B.add_channel b ~src:s ~dst:x ~push:1 ~pop:1 ());
  ignore (B.add_channel b ~src:s ~dst:y ~push:2 ~pop:1 ());
  ignore (B.add_channel b ~src:x ~dst:t ~push:1 ~pop:1 ());
  ignore (B.add_channel b ~src:y ~dst:t ~push:1 ~pop:1 ());
  let g = B.build b in
  Alcotest.(check bool) "not rate matched" false (Sdf_oracle.is_rate_matched g);
  (match R.analyze g with
  | Error msg ->
      Alcotest.(check bool)
        "error mentions inconsistency" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected Error");
  (match R.analyze_checked g with
  | Error (Ccs.Error.Rate_inconsistent { node; _ }) ->
      Alcotest.(check string) "offending module named" "t" node
  | Error e ->
      Alcotest.fail ("expected Rate_inconsistent, got " ^ Ccs.Error.code e)
  | Ok _ -> Alcotest.fail "expected Error");
  match R.analyze_exn g with
  | exception G.Invalid_graph msg ->
      Alcotest.(check bool) "message names the module" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "analyze_exn must raise"

let test_disconnected_rejected () =
  let b = B.create () in
  let _ = B.add_module b "x" in
  let _ = B.add_module b "y" in
  let g = B.build b in
  match R.analyze g with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "disconnected graph must be rejected"

let test_repetition_balances_edges () =
  let g = Ccs_apps.Filterbank.graph ~bands:4 ~taps:8 () in
  let a = R.analyze_exn g in
  List.iter
    (fun e ->
      Alcotest.(check int)
        (Printf.sprintf "edge %d balanced" e)
        (a.R.repetition.(G.src g e) * G.push g e)
        (a.R.repetition.(G.dst g e) * G.pop g e))
    (G.edges g)

let test_repetition_minimal () =
  let g = Ccs_apps.Mp3.graph ~bands:8 () in
  let a = R.analyze_exn g in
  let gcd_all = Array.fold_left Q.gcd 0 a.R.repetition in
  Alcotest.(check int) "repetition vector is primitive" 1 gcd_all

let test_granularity () =
  (* Gains 1, 1, 1/3: granularity must be a multiple of 3. *)
  let g =
    Ccs.Generators.pipeline ~n:3
      ~state:(fun _ -> 1)
      ~rates:(fun i -> [| (1, 1); (1, 3) |].(i))
      ()
  in
  let a = R.analyze_exn g in
  Alcotest.(check int) "smallest" 3 (R.granularity g a ~at_least:1);
  Alcotest.(check int) "at_least 4 -> 6" 6 (R.granularity g a ~at_least:4);
  Alcotest.(check int) "at_least 100 -> 102" 102
    (R.granularity g a ~at_least:100);
  Alcotest.(check int) "exact multiple stays" 9
    (R.granularity g a ~at_least:9)

let test_granularity_makes_firings_integral () =
  let g = Ccs_apps.Beamformer.graph ~channels:2 ~beams:2 ~taps:4 () in
  let a = R.analyze_exn g in
  let t = R.granularity g a ~at_least:50 in
  List.iter
    (fun v ->
      let n = R.firings_per_batch a ~t v in
      Alcotest.(check bool)
        (Printf.sprintf "firings of %s positive" (G.node_name g v))
        true (n > 0))
    (G.nodes g);
  List.iter
    (fun e ->
      let tok = R.tokens_per_batch a ~t e in
      Alcotest.(check int)
        (Printf.sprintf "edge %d tokens = src firings * push" e)
        (R.firings_per_batch a ~t (G.src g e) * G.push g e)
        tok)
    (G.edges g)

let test_firings_rejects_bad_t () =
  let g =
    Ccs.Generators.pipeline ~n:2
      ~state:(fun _ -> 1)
      ~rates:(fun _ -> (1, 3))
      ()
  in
  let a = R.analyze_exn g in
  Alcotest.check_raises "non-multiple t"
    (Invalid_argument "Rates.firings_per_batch: t is not a granularity multiple")
    (fun () -> ignore (R.firings_per_batch a ~t:2 1))

let test_gain_of_generated_dag () =
  (* random_sdf_dag guarantees rate-matching by construction. *)
  for seed = 0 to 9 do
    let g =
      Ccs.Generators.random_sdf_dag ~seed ~n:12 ~max_state:16 ~max_rate:6
        ~extra_edges:6 ()
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d rate matched" seed)
      true (Sdf_oracle.is_rate_matched g)
  done

let test_period_tokens () =
  let g = Ccs_apps.Beamformer.graph ~channels:2 ~beams:2 ~taps:4 () in
  let a = R.analyze_exn g in
  List.iter
    (fun e ->
      let tokens = a.R.period_tokens.(e) in
      Alcotest.(check int)
        (Printf.sprintf "edge %d tokens = repetition(src) * push" e)
        (a.R.repetition.(G.src g e) * G.push g e)
        tokens;
      Alcotest.check q
        (Printf.sprintf "edge %d gain = tokens / period_inputs" e)
        (Q.make tokens a.R.period_inputs) (Sdf_oracle.edge_gain a e))
    (G.edges g)

(* A chain whose repetition vector is small but whose middle channel moves
   2 x (2^61 + 1) tokens per period: the product wraps a native int.  The
   partitioners compare these products, so rate analysis must refuse the
   graph rather than let a negative channel weight through. *)
let chain rates =
  let b = B.create ~name:"overflow" () in
  let nodes =
    List.init (List.length rates + 1) (fun i ->
        B.add_module b ~state:10 (Printf.sprintf "m%d" i))
  in
  List.iteri
    (fun i (push, pop) ->
      ignore
        (B.add_channel b ~src:(List.nth nodes i) ~dst:(List.nth nodes (i + 1))
           ~push ~pop ()))
    rates;
  B.build b

let expect_overflow name g =
  match R.analyze_checked g with
  | Error (Ccs.Error.Failure_msg { context; _ }) ->
      Alcotest.(check string) (name ^ ": context") "rate analysis" context;
      Alcotest.(check bool) (name ^ ": not rate matched") false
        (Sdf_oracle.is_rate_matched g)
  | Error e -> Alcotest.fail (name ^ ": unexpected " ^ Ccs.Error.to_string e)
  | Ok _ -> Alcotest.fail (name ^ ": overflowing graph accepted")

let test_overflow_rejected () =
  let big = 2305843009213693953 in
  expect_overflow "period tokens" (chain [ (2, 3); (big, big); (1, 1) ]);
  (* Each channel fits, their total does not. *)
  let half = 1 lsl 61 in
  expect_overflow "total" (chain [ (half, half); (half, half) ]);
  (* Gains 1, 2^-40, 2^-80: the gain propagation itself overflows. *)
  let wide = 1 lsl 40 in
  expect_overflow "gain" (chain [ (1, wide); (1, wide) ])

let () =
  Alcotest.run "rates"
    [
      ( "unit",
        [
          Alcotest.test_case "pipeline gains" `Quick test_pipeline_gains;
          Alcotest.test_case "fractional gain" `Quick test_fractional_gain;
          Alcotest.test_case "homogeneous dag" `Quick test_homogeneous_dag;
          Alcotest.test_case "not rate matched" `Quick test_not_rate_matched;
          Alcotest.test_case "disconnected rejected" `Quick
            test_disconnected_rejected;
          Alcotest.test_case "repetition balances edges" `Quick
            test_repetition_balances_edges;
          Alcotest.test_case "repetition minimal" `Quick
            test_repetition_minimal;
          Alcotest.test_case "granularity" `Quick test_granularity;
          Alcotest.test_case "granularity firings integral" `Quick
            test_granularity_makes_firings_integral;
          Alcotest.test_case "bad t rejected" `Quick test_firings_rejects_bad_t;
          Alcotest.test_case "generated dags rate-matched" `Quick
            test_gain_of_generated_dag;
          Alcotest.test_case "period tokens" `Quick test_period_tokens;
          Alcotest.test_case "overflow rejected" `Quick test_overflow_rejected;
        ] );
    ]
