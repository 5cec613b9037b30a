(* Tests for the cache-free token simulator used by schedulers to size
   buffers and validate candidate schedules. *)

module G = Ccs.Graph
module S = Ccs.Schedule
module Sim = Ccs.Simulate

let chain3 () = Ccs.Generators.uniform_pipeline ~n:3 ~state:1 ()

let test_peaks_simple () =
  let g = chain3 () in
  (* Fire source twice before draining: edge 0 peaks at 2. *)
  let s = S.of_list [ 0; 0; 1; 1; 2; 2 ] in
  Alcotest.(check (array int)) "peaks" [| 2; 2 |] (Sim.peaks g s);
  let tight = S.of_list [ 0; 1; 2; 0; 1; 2 ] in
  Alcotest.(check (array int)) "tight peaks" [| 1; 1 |] (Sim.peaks g tight)

let test_peaks_includes_delay () =
  let b = G.Builder.create () in
  let x = G.Builder.add_module b "x" in
  let y = G.Builder.add_module b "y" in
  ignore (G.Builder.add_channel b ~delay:3 ~src:x ~dst:y ~push:1 ~pop:1 ());
  let g = G.Builder.build b in
  (* Empty schedule: peak is the initial delay. *)
  Alcotest.(check (array int)) "delay is the floor" [| 3 |]
    (Sim.peaks g (S.seq []))

let illegal ~node ~edge ~at_firing kind =
  Error (Ccs.Error.Schedule_illegal { node; edge; at_firing; kind })

let witness = Alcotest.testable Ccs.Error.pp ( = )
let outcome = Alcotest.(result unit witness)

let test_illegal_underflow () =
  let g = chain3 () in
  let underflow = illegal ~node:"m1" ~edge:"m0->m1#0" ~at_firing:0 `Underflow in
  Alcotest.check outcome "validate names the witness" underflow
    (Sim.validate g ~capacities:[| 9; 9 |] (S.of_list [ 1 ]));
  match Sim.peaks g (S.of_list [ 1 ]) with
  | _ -> Alcotest.fail "consuming from an empty channel must fail"
  | exception Ccs.Error.Error e ->
      Alcotest.check outcome "peaks raises the same witness" underflow
        (Error e)

(* Plan.validate decides periodicity from the fire counts. *)
let periodicity g sched =
  match
    Ccs.Plan.validate g
      (Ccs.Plan.of_period ~name:"p" ~capacities:(Sim.peaks g sched) sched)
  with
  | Ok () -> []
  | Error es -> List.map Ccs.Error.to_string es

let test_period_restores_state () =
  let g = chain3 () in
  Alcotest.(check (list string)) "balanced period" []
    (periodicity g (S.of_list [ 0; 1; 2 ]));
  Alcotest.(check (list string)) "unbalanced"
    [
      "plan p: period does not restore channel state";
      "plan p: firing counts are not a multiple of the repetition vector";
    ]
    (periodicity g (S.of_list [ 0; 0; 1; 2 ]));
  match
    Ccs.Plan.validate g
      (Ccs.Plan.of_period ~name:"p" ~capacities:[| 1; 1 |]
         (S.of_list [ 1; 0; 2 ]))
  with
  | Error [ e ] ->
      Alcotest.check outcome "illegal: the witness, not a balance finding"
        (illegal ~node:"m1" ~edge:"m0->m1#0" ~at_firing:0 `Underflow)
        (Error e)
  | _ -> Alcotest.fail "an illegal period has exactly one finding"

let test_legal () =
  let g = chain3 () in
  Alcotest.check outcome "fits capacity 1" (Ok ())
    (Sim.validate g ~capacities:[| 1; 1 |] (S.of_list [ 0; 1; 2 ]));
  Alcotest.check outcome "exceeds capacity 1"
    (illegal ~node:"m0" ~edge:"m0->m1#0" ~at_firing:1 `Overflow)
    (Sim.validate g ~capacities:[| 1; 1 |] (S.of_list [ 0; 0; 1; 1; 2; 2 ]));
  Alcotest.check outcome "fits capacity 2" (Ok ())
    (Sim.validate g ~capacities:[| 2; 2 |] (S.of_list [ 0; 0; 1; 1; 2; 2 ]));
  Alcotest.check outcome "underflow illegal"
    (illegal ~node:"m1" ~edge:"m0->m1#0" ~at_firing:0 `Underflow)
    (Sim.validate g ~capacities:[| 9; 9 |] (S.of_list [ 1 ]))

let test_multirate () =
  (* src -3/2-> snk: firing src twice then snk three times is balanced. *)
  let g =
    Ccs.Generators.pipeline ~n:2 ~state:(fun _ -> 1) ~rates:(fun _ -> (3, 2)) ()
  in
  let s = S.of_list [ 0; 0; 1; 1; 1 ] in
  Alcotest.(check (list string)) "periodic" [] (periodicity g s);
  Alcotest.(check (array int)) "peak 6" [| 6 |] (Sim.peaks g s);
  Alcotest.check outcome "overflow at capacity 5"
    (illegal ~node:"m0" ~edge:"m0->m1#0" ~at_firing:1 `Overflow)
    (Sim.validate g ~capacities:[| 5 |] s)

let test_machine_agreement () =
  (* Simulate.validate must agree with what the machine accepts. *)
  let g = Ccs_apps.Beamformer.graph ~channels:2 ~beams:2 ~taps:4 () in
  let a = Ccs.Rates.analyze_exn g in
  let mb = Ccs.Minbuf.compute g a in
  let sched = S.of_list mb.Ccs.Minbuf.schedule in
  Alcotest.check outcome "minbuf schedule legal at minbuf caps" (Ok ())
    (Sim.validate g ~capacities:mb.Ccs.Minbuf.capacity sched);
  let m =
    Ccs.Machine.create ~graph:g
      ~cache:(Ccs.Cache.config ~size_words:256 ~block_words:8 ())
      ~capacities:mb.Ccs.Minbuf.capacity ()
  in
  (* Must run without Not_fireable. *)
  S.run m sched;
  Alcotest.(check int) "one period ran" (List.length mb.Ccs.Minbuf.schedule)
    (Ccs.Machine.total_fires m)

(* Certification never enumerates a period's firings: each of these
   periods denotes at least a billion firings, more than a walk could
   replay within a test's time, and its witness comes from arithmetic on
   the repeated body's net change. *)
let billion = 1_000_000_000

let test_huge_repeat () =
  let g = chain3 () in
  let one = S.of_list [ 0; 1; 2 ] in
  Alcotest.check outcome "balanced body" (Ok ())
    (Sim.validate g ~capacities:[| 1; 1 |] (S.repeat billion one));
  Alcotest.(check (array int)) "peaks of a balanced body" [| 1; 1 |]
    (Sim.peaks g (S.repeat billion one));
  Alcotest.(check (array int)) "peaks of a growing body" [| billion; 0 |]
    (Sim.peaks g (S.repeat billion (S.fire 0)));
  (* m0->m1 gains a token per iteration and takes two pushes, so it
     overflows capacity c in iteration c-1, at that iteration's second
     firing. *)
  let c = 1_000_000 in
  Alcotest.check outcome "late overflow"
    (illegal ~node:"m0" ~edge:"m0->m1#0"
       ~at_firing:((3 * (c - 1)) + 1)
       `Overflow)
    (Sim.validate g ~capacities:[| c; 2 * c |]
       (S.repeat billion (S.of_list [ 0; 0; 1 ])));
  (* x->y starts with [delay] tokens and loses one per iteration, so the
     second pop of iteration [delay] underflows. *)
  let delay = 123_456_789 in
  let b = G.Builder.create () in
  let x = G.Builder.add_module b "x" in
  let y = G.Builder.add_module b "y" in
  ignore (G.Builder.add_channel b ~delay ~src:x ~dst:y ~push:1 ~pop:1 ());
  let g = G.Builder.build b in
  let body = S.of_list [ x; y; y ] in
  let underflow =
    illegal ~node:"y" ~edge:"x->y#0" ~at_firing:((3 * delay) + 2) `Underflow
  in
  Alcotest.check outcome "late underflow" underflow
    (Sim.validate g ~capacities:[| max_int |] (S.repeat billion body));
  match Sim.peaks g (S.repeat billion body) with
  | _ -> Alcotest.fail "peaks of an underflowing period must fail"
  | exception Ccs.Error.Error e ->
      Alcotest.check outcome "peaks raises the same witness" underflow
        (Error e)

(* Net changes and firing counts past [max_int] give structured findings,
   never a wrapped [Ok] or an exception. *)
let test_int_overflow () =
  let b = G.Builder.create () in
  let x = G.Builder.add_module b "x" in
  let y = G.Builder.add_module b "y" in
  ignore (G.Builder.add_channel b ~src:x ~dst:y ~push:(1 lsl 31) ~pop:1 ());
  let g = G.Builder.build b in
  (* k·d = 2^63: the channel passes max_int = 2^62 - 1 at the push of
     iteration 2^31 - 1. *)
  let wide = S.repeat (1 lsl 32) (S.fire x) in
  let overflow =
    illegal ~node:"x" ~edge:"x->y#0" ~at_firing:((1 lsl 31) - 1) `Overflow
  in
  Alcotest.check outcome "k·d past max_int" overflow
    (Sim.validate g ~capacities:[| max_int |] wide);
  (match Sim.peaks g wide with
  | _ -> Alcotest.fail "an occupancy past max_int has no peak"
  | exception Ccs.Error.Error e ->
      Alcotest.check outcome "peaks raises the overflow" overflow (Error e));
  (* 2^62 pushes of one token, as 2^31 x 2^31: the last one, firing
     max_int, takes the channel past max_int. *)
  let g = chain3 () in
  let long = S.repeat (1 lsl 31) (S.repeat (1 lsl 31) (S.fire 0)) in
  Alcotest.check outcome "2^62 firings"
    (illegal ~node:"m0" ~edge:"m0->m1#0" ~at_firing:max_int `Overflow)
    (Sim.validate g ~capacities:[| max_int; max_int |] long);
  (* Legal for 3·2^80 firings, then an underflow: its index does not fit,
     and reads max_int. *)
  let legal =
    S.repeat (1 lsl 40) (S.repeat (1 lsl 40) (S.of_list [ 0; 1; 2 ]))
  in
  Alcotest.check outcome "witness past max_int"
    (illegal ~node:"m1" ~edge:"m0->m1#0" ~at_firing:max_int `Underflow)
    (Sim.validate g ~capacities:[| 1; 1 |] (S.seq [ legal; S.fire 1 ]));
  (* Plan.validate reports a period too long to count, and nothing else
     about it: its fire counts would wrap. *)
  List.iter
    (fun (name, period) ->
      Alcotest.(check (list string))
        name
        [
          Printf.sprintf "plan p: period has %d (max_int) firings or more"
            max_int;
        ]
        (match
           Ccs.Plan.validate g
             (Ccs.Plan.of_period ~name:"p" ~capacities:[| 1; 1 |] period)
         with
        | Ok () -> []
        | Error es -> List.map Ccs.Error.to_string es))
    [ ("legal, too long", legal); ("illegal, too long", long) ]

let () =
  Alcotest.run "simulate"
    [
      ( "unit",
        [
          Alcotest.test_case "peaks" `Quick test_peaks_simple;
          Alcotest.test_case "peaks include delay" `Quick
            test_peaks_includes_delay;
          Alcotest.test_case "illegal underflow" `Quick test_illegal_underflow;
          Alcotest.test_case "period restores channel state" `Quick
            test_period_restores_state;
          Alcotest.test_case "legal" `Quick test_legal;
          Alcotest.test_case "multirate" `Quick test_multirate;
          Alcotest.test_case "machine agreement" `Quick test_machine_agreement;
          Alcotest.test_case "billion-firing periods" `Quick test_huge_repeat;
          Alcotest.test_case "int overflow" `Quick test_int_overflow;
        ] );
    ]
