(* Tests for minimum-buffer computation and its witnessing PASS. *)

module G = Ccs.Graph
module R = Ccs.Rates
module M = Ccs.Minbuf

let pass_respects_capacities g (mb : M.t) =
  (* Replaying the PASS must never exceed the reported capacities. *)
  let tokens = Array.init (G.num_edges g) (fun e -> G.delay g e) in
  List.iter
    (fun v ->
      List.iter
        (fun e ->
          tokens.(e) <- tokens.(e) - G.pop g e;
          if tokens.(e) < 0 then Alcotest.fail "PASS underflows a channel")
        (G.in_edges g v);
      List.iter
        (fun e ->
          tokens.(e) <- tokens.(e) + G.push g e;
          if tokens.(e) > mb.M.capacity.(e) then
            Alcotest.fail "PASS exceeds reported capacity")
        (G.out_edges g v))
    mb.M.schedule;
  (* One period must return every channel to its initial occupancy. *)
  Array.iteri
    (fun e t ->
      Alcotest.(check int) (Printf.sprintf "edge %d balanced" e) (G.delay g e) t)
    tokens

let test_homogeneous_pipeline () =
  let g = Ccs.Generators.uniform_pipeline ~n:6 ~state:4 () in
  let a = R.analyze_exn g in
  let mb = M.compute g a in
  (* Latest-first on a unit chain keeps every buffer at one token. *)
  Array.iter (fun c -> Alcotest.(check int) "capacity 1" 1 c) mb.M.capacity;
  Alcotest.(check int) "period length" 6 (List.length mb.M.schedule);
  pass_respects_capacities g mb

let test_multirate_pipeline () =
  let g =
    Ccs.Generators.pipeline ~n:3
      ~state:(fun _ -> 1)
      ~rates:(fun i -> [| (3, 2); (1, 1) |].(i))
      ()
  in
  let a = R.analyze_exn g in
  let mb = M.compute g a in
  pass_respects_capacities g mb;
  (* Edge 0 carries 3 tokens per src firing, consumed 2 at a time: the
     latest-first schedule needs at most push+pop-gcd = 4. *)
  Alcotest.(check bool)
    "capacity bounded by closed form" true
    (mb.M.capacity.(0) <= Sdf_oracle.closed_form_bound g 0)

let test_schedule_counts_match_repetition () =
  let g = Ccs_apps.Beamformer.graph ~channels:2 ~beams:2 ~taps:4 () in
  let a = R.analyze_exn g in
  let mb = M.compute g a in
  let counts = Array.make (G.num_nodes g) 0 in
  List.iter (fun v -> counts.(v) <- counts.(v) + 1) mb.M.schedule;
  Alcotest.(check (array int)) "each module fires q(v) times" a.R.repetition
    counts;
  pass_respects_capacities g mb

let test_delay_counts_toward_capacity () =
  let b = G.Builder.create () in
  let x = G.Builder.add_module b "x" in
  let y = G.Builder.add_module b "y" in
  let e = G.Builder.add_channel b ~delay:7 ~src:x ~dst:y ~push:1 ~pop:1 () in
  let g = G.Builder.build b in
  let a = R.analyze_exn g in
  let mb = M.compute g a in
  Alcotest.(check bool) "capacity >= delay + transit" true
    (mb.M.capacity.(e) >= 7)

let test_closed_form () =
  let g =
    Ccs.Generators.pipeline ~n:2
      ~state:(fun _ -> 1)
      ~rates:(fun _ -> (6, 4))
      ()
  in
  (* 6 + 4 - gcd 6 4 = 8 *)
  Alcotest.(check int) "closed form" 8 (Sdf_oracle.closed_form_bound g 0)

let test_total_subset () =
  let g = Ccs.Generators.uniform_pipeline ~n:5 ~state:1 () in
  let a = R.analyze_exn g in
  let mb = M.compute g a in
  (* Edges internal to {0,1,2} are edges 0 and 1; each has capacity 1. *)
  Alcotest.(check int) "subset total" 2
    (M.total g mb ~subset:(fun v -> v <= 2));
  Alcotest.(check int) "whole graph" 4 (M.total g mb ~subset:(fun _ -> true));
  Alcotest.(check int) "empty subset" 0 (M.total g mb ~subset:(fun _ -> false))

let test_buffer_state_assumption_on_apps () =
  (* The paper's standing assumption: sum of minimum buffers is O(total
     state).  Check the concrete constant on the app suite: total minBuf
     must not exceed 4x total state. *)
  List.iter
    (fun entry ->
      let g = entry.Ccs_apps.Suite.graph () in
      let a = R.analyze_exn g in
      let mb = M.compute g a in
      let buf = Array.fold_left ( + ) 0 mb.M.capacity in
      Alcotest.(check bool)
        (Printf.sprintf "%s: minBuf %d <= 4 * state %d"
           entry.Ccs_apps.Suite.name buf (G.total_state g))
        true
        (buf <= 4 * G.total_state g))
    Ccs_apps.Suite.all

let test_pass_on_random_dags () =
  for seed = 0 to 19 do
    let g =
      Ccs.Generators.random_sdf_dag ~seed ~n:10 ~max_state:8 ~max_rate:4
        ~extra_edges:5 ()
    in
    let a = R.analyze_exn g in
    let mb = M.compute g a in
    pass_respects_capacities g mb
  done

(* A chain whose first 12 channels downsample by 2 and 3 in turn and whose
   last 12 upsample back: 80 modules, 168,014 firings per period. *)
let multirate_chain () =
  let n = 80 and depth = 12 in
  let factor k = if k mod 2 = 0 then 2 else 3 in
  Ccs.Generators.pipeline ~name:"multirate80" ~n
    ~state:(fun _ -> 8)
    ~rates:(fun i ->
      if i < depth then (1, factor i)
      else if i >= n - 1 - depth then (factor (n - 2 - i), 1)
      else (1, 1))
    ()

let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* The walker allocates per run, not per firing: nothing per firing when
   only a verdict is asked for, and the recorded firing order otherwise. *)
let test_allocation_per_firing () =
  let g = multirate_chain () in
  let a = R.analyze_exn g in
  let firings = float_of_int (Array.fold_left ( + ) 0 a.R.repetition) in
  Alcotest.(check (float 0.)) "firings per period" 168_014. firings;
  let graph_words = float_of_int (64 * (G.num_nodes g + G.num_edges g)) in
  let capacities = (M.compute g a).M.capacity in
  let check name words ~per_firing =
    if words > (per_firing *. firings) +. graph_words then
      Alcotest.failf "%s allocated %.0f words (%.2f per firing)" name words
        (words /. firings)
  in
  let feasible = minor_words (fun () -> M.feasible g a ~capacities) in
  if feasible >= 0.1 *. firings then
    Alcotest.failf "feasible allocated %.0f words" feasible;
  check "feasible" feasible ~per_firing:0.;
  check "compute" (minor_words (fun () -> M.compute g a)) ~per_firing:8.;
  check "local_period"
    (minor_words (fun () ->
         Ccs.Partitioned.local_period g a (Ccs.Spec.whole g) 0))
    ~per_firing:8.

let () =
  Alcotest.run "minbuf"
    [
      ( "unit",
        [
          Alcotest.test_case "homogeneous pipeline" `Quick
            test_homogeneous_pipeline;
          Alcotest.test_case "multirate pipeline" `Quick
            test_multirate_pipeline;
          Alcotest.test_case "schedule counts = repetition" `Quick
            test_schedule_counts_match_repetition;
          Alcotest.test_case "delay in capacity" `Quick
            test_delay_counts_toward_capacity;
          Alcotest.test_case "closed form" `Quick test_closed_form;
          Alcotest.test_case "total over subset" `Quick test_total_subset;
          Alcotest.test_case "buffer/state assumption on apps" `Quick
            test_buffer_state_assumption_on_apps;
          Alcotest.test_case "PASS on random dags" `Quick
            test_pass_on_random_dags;
          Alcotest.test_case "allocation per firing" `Quick
            test_allocation_per_firing;
        ] );
    ]
