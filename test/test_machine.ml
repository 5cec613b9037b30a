(* Tests for the execution engine: firing rules, token accounting, and the
   cache traffic each firing generates. *)

module G = Ccs.Graph
module M = Ccs.Machine
module C = Ccs.Cache

let cache_cfg = C.config ~size_words:64 ~block_words:8 ()

(* src -1/1-> mid -2/3-> sink, all state 8. *)
let sample () =
  let b = G.Builder.create () in
  let src = G.Builder.add_module b ~state:8 "src" in
  let mid = G.Builder.add_module b ~state:8 "mid" in
  let snk = G.Builder.add_module b ~state:8 "snk" in
  let e0 = G.Builder.add_channel b ~src ~dst:mid ~push:1 ~pop:1 () in
  let e1 = G.Builder.add_channel b ~src:mid ~dst:snk ~push:2 ~pop:3 () in
  (G.Builder.build b, src, mid, snk, e0, e1)

let machine ?(caps = [| 4; 6 |]) () =
  let g, src, mid, snk, e0, e1 = sample () in
  let m = M.create ~graph:g ~cache:cache_cfg ~capacities:caps () in
  (m, src, mid, snk, e0, e1)

let test_initial_state () =
  let m, _, _, _, e0, e1 = machine () in
  Alcotest.(check int) "no tokens" 0 (M.tokens m e0);
  Alcotest.(check int) "capacity" 4 (M.capacity m e0);
  Alcotest.(check int) "space" 6 (M.capacity m e1 - M.tokens m e1);
  Alcotest.(check int) "no fires" 0 (M.total_fires m)

let test_firing_rules () =
  let m, src, mid, snk, e0, e1 = machine () in
  Alcotest.(check bool) "src fireable" true (M.can_fire m src);
  Alcotest.(check bool) "mid blocked" false (M.can_fire m mid);
  Alcotest.(check bool) "snk blocked" false (M.can_fire m snk);
  M.fire m src;
  Alcotest.(check int) "token arrived" 1 (M.tokens m e0);
  Alcotest.(check bool) "mid now fireable" true (M.can_fire m mid);
  M.fire m mid;
  Alcotest.(check int) "e0 drained" 0 (M.tokens m e0);
  Alcotest.(check int) "e1 has 2" 2 (M.tokens m e1);
  Alcotest.(check bool) "snk needs 3" false (M.can_fire m snk);
  M.fire m src;
  M.fire m mid;
  Alcotest.(check int) "e1 has 4" 4 (M.tokens m e1);
  Alcotest.(check bool) "snk fireable" true (M.can_fire m snk);
  M.fire m snk;
  Alcotest.(check int) "e1 drained to 1" 1 (M.tokens m e1)

let test_not_fireable_exception () =
  let m, _, mid, _, _, _ = machine () in
  match M.fire m mid with
  | () -> Alcotest.fail "should not fire"
  | exception M.Not_fireable { node; reason } ->
      Alcotest.(check int) "node" mid node;
      Alcotest.(check bool) "reason mentions input" true
        (String.length reason > 0)

let test_output_full_blocks () =
  let m, src, _, _, e0, _ = machine ~caps:[| 2; 6 |] () in
  M.fire m src;
  M.fire m src;
  Alcotest.(check int) "full" 2 (M.tokens m e0);
  Alcotest.(check bool) "src blocked on space" false (M.can_fire m src);
  match M.fire m src with
  | () -> Alcotest.fail "should have been blocked"
  | exception M.Not_fireable { reason; _ } ->
      Alcotest.(check bool) "reason mentions output" true
        (String.length reason > 0)

let test_fire_counts_and_io () =
  let m, src, mid, snk, e0, e1 = machine () in
  List.iter (fun v -> M.fire m v) [ src; mid; src; mid; snk ];
  Alcotest.(check int) "src fired" 2 (M.fires m src);
  Alcotest.(check int) "total" 5 (M.total_fires m);
  Alcotest.(check int) "inputs" 2 (M.source_inputs m);
  Alcotest.(check int) "outputs" 1 (M.sink_outputs m);
  Alcotest.(check int) "e0 produced" 2 (M.produced m e0);
  Alcotest.(check int) "e0 consumed" 2 (M.consumed m e0);
  Alcotest.(check int) "e1 produced" 4 (M.produced m e1);
  Alcotest.(check int) "e1 consumed" 3 (M.consumed m e1)

let test_conservation () =
  (* produced - consumed = tokens in flight, for every channel. *)
  let m, src, mid, snk, e0, e1 = machine () in
  List.iter (fun v -> M.fire m v) [ src; src; mid; mid; snk; src ];
  List.iter
    (fun e ->
      Alcotest.(check int)
        (Printf.sprintf "edge %d conservation" e)
        (M.produced m e - M.consumed m e)
        (M.tokens m e))
    [ e0; e1 ]

let test_capacity_validation () =
  let g, _, _, _, _, _ = sample () in
  match
    M.create ~graph:g ~cache:cache_cfg ~capacities:[| 4; 2 |] ()
  with
  | _ -> Alcotest.fail "capacity below pop must be rejected"
  | exception Invalid_argument _ -> ()

let test_capacity_array_length () =
  let g, _, _, _, _, _ = sample () in
  match M.create ~graph:g ~cache:cache_cfg ~capacities:[| 4 |] () with
  | _ -> Alcotest.fail "wrong capacities length must be rejected"
  | exception Invalid_argument _ -> ()

let test_state_loaded_on_fire () =
  (* Firing src (state 8 = 1 block) misses once for state and once for the
     produced token's block. *)
  let m, src, _, _, _, _ = machine () in
  M.fire m src;
  Alcotest.(check int) "2 cold misses" 2 (M.misses m);
  (* Firing again: state is hot; token goes into the same buffer block. *)
  M.fire m src;
  Alcotest.(check int) "no new misses" 2 (M.misses m)

let test_delay_initializes_tokens () =
  let b = G.Builder.create () in
  let x = G.Builder.add_module b ~state:1 "x" in
  let y = G.Builder.add_module b ~state:1 "y" in
  let e = G.Builder.add_channel b ~delay:2 ~src:x ~dst:y ~push:1 ~pop:1 () in
  let g = G.Builder.build b in
  let m = M.create ~graph:g ~cache:cache_cfg ~capacities:[| 3 |] () in
  Alcotest.(check int) "delay present" 2 (M.tokens m e);
  Alcotest.(check bool) "y fireable immediately" true (M.can_fire m y)

let test_trace_recording () =
  let m, src, _, _, _, _ = machine () in
  let g, _, _, _, _, _ = sample () in
  ignore g;
  let m2 =
    M.create ~record_trace:true ~graph:(M.graph m) ~cache:cache_cfg
      ~capacities:[| 4; 6 |] ()
  in
  M.fire m2 src;
  let trace = M.trace m2 in
  (* State spans one block + one buffer block. *)
  Alcotest.(check int) "trace length" 2 (Array.length trace);
  Alcotest.check_raises "no recorder"
    (Invalid_argument "Machine.trace: machine created without record_trace")
    (fun () -> ignore (M.trace m))

let test_ring_buffer_wraparound () =
  (* Capacity-4 buffer, fire src 6 times with mid consuming in between:
     token addresses wrap; machine still conserves tokens. *)
  let m, src, mid, snk, e0, _ = machine () in
  for _ = 1 to 6 do
    M.fire m src;
    M.fire m mid;
    (* Drain e1 whenever the sink can fire so its capacity never blocks. *)
    if M.can_fire m snk then M.fire m snk
  done;
  Alcotest.(check int) "all consumed" 0 (M.tokens m e0);
  Alcotest.(check int) "produced 6" 6 (M.produced m e0)

(* The layout a machine is created on: [create] builds it with
   [plan_layout]. *)
let test_regions_disjoint () =
  let g, _, _, _, _, _ = sample () in
  let l =
    M.plan_layout ~graph:g ~cache:cache_cfg ~capacities:[| 4; 6 |] ()
  in
  let regions = Array.to_list l.M.l_states @ Array.to_list l.M.l_buffers in
  List.iteri
    (fun i r1 ->
      List.iteri
        (fun j r2 ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "regions %d %d disjoint" i j)
              true
              (r1.Ccs.Layout.base + r1.Ccs.Layout.length <= r2.Ccs.Layout.base
              || r2.Ccs.Layout.base + r2.Ccs.Layout.length <= r1.Ccs.Layout.base))
        regions)
    regions

let test_misses_per_input () =
  let m, src, _, _, _, _ = machine () in
  Alcotest.(check bool) "nan before inputs" true
    (Float.is_nan (M.misses_per_input m));
  M.fire m src;
  Alcotest.(check bool) "finite after input" true
    (Float.is_finite (M.misses_per_input m))

let () =
  Alcotest.run "machine"
    [
      ( "unit",
        [
          Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "firing rules" `Quick test_firing_rules;
          Alcotest.test_case "not fireable" `Quick test_not_fireable_exception;
          Alcotest.test_case "output full blocks" `Quick
            test_output_full_blocks;
          Alcotest.test_case "fire counts and io" `Quick
            test_fire_counts_and_io;
          Alcotest.test_case "token conservation" `Quick test_conservation;
          Alcotest.test_case "capacity validation" `Quick
            test_capacity_validation;
          Alcotest.test_case "capacities length" `Quick
            test_capacity_array_length;
          Alcotest.test_case "state loaded on fire" `Quick
            test_state_loaded_on_fire;
          Alcotest.test_case "delay tokens" `Quick test_delay_initializes_tokens;
          Alcotest.test_case "trace recording" `Quick test_trace_recording;
          Alcotest.test_case "ring wraparound" `Quick
            test_ring_buffer_wraparound;
          Alcotest.test_case "regions disjoint" `Quick test_regions_disjoint;
          Alcotest.test_case "misses per input" `Quick test_misses_per_input;
        ] );
    ]
