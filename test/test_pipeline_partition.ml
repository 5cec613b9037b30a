(* Tests for pipeline partitioning: the Theorem-5 greedy construction and
   the minimum-bandwidth dynamic program. *)

module G = Ccs.Graph
module R = Ccs.Rates
module S = Ccs.Spec
module P = Ccs.Pipeline_partition
module Q = Ccs.Rational

let q = Alcotest.testable (fun fmt x -> Q.pp fmt x) Q.equal

let test_chain_order () =
  let g = Ccs.Generators.uniform_pipeline ~n:5 ~state:1 () in
  Alcotest.(check (array int)) "in order" [| 0; 1; 2; 3; 4 |] (P.chain_order g);
  let d = Ccs.Generators.split_join ~branches:2 ~depth:1 ~state:1 () in
  Alcotest.check_raises "non-pipeline rejected"
    (Invalid_argument "Pipeline: graph is not a pipeline") (fun () ->
      ignore (P.chain_order d))

let test_gain_minimizing_edge () =
  (* Rates (4,1),(1,4),(1,1): node gains 1,4,1,1, so edge gains are
     e0 = 1*4 = 4, e1 = 4*1 = 4, e2 = 1*1 = 1.  The minimum over the whole
     chain is e2; restricted to [0..2] the tie between e0 and e1 breaks to
     the first. *)
  let g =
    Ccs.Generators.pipeline ~n:4
      ~state:(fun _ -> 1)
      ~rates:(fun i -> [| (4, 1); (1, 4); (1, 1) |].(i))
      ()
  in
  let a = R.analyze_exn g in
  let chain = P.chain_order g in
  Alcotest.(check int) "gainMin over all" 2
    (P.gain_minimizing_edge g a chain ~lo:0 ~hi:3);
  Alcotest.(check int) "gainMin over [0..2]" 0
    (P.gain_minimizing_edge g a chain ~lo:0 ~hi:2);
  Alcotest.check_raises "single-node segment"
    (Invalid_argument
       "Pipeline.gain_minimizing_edge: segment has no internal edge")
    (fun () -> ignore (P.gain_minimizing_edge g a chain ~lo:2 ~hi:2))

let check_valid_segmentation g sp ~bound =
  Alcotest.(check bool) "well ordered" true (S.is_well_ordered sp);
  Alcotest.(check bool)
    (Printf.sprintf "bounded by %d" bound)
    true
    (Sdf_oracle.is_c_bounded sp ~bound);
  (* Segments of a chain must be contiguous in chain order. *)
  let chain = P.chain_order g in
  let last = ref (-1) in
  Array.iter
    (fun v ->
      let c = S.component_of sp v in
      Alcotest.(check bool) "monotone component ids" true (c >= !last);
      last := c)
    chain

let test_greedy_small_graph_single_component () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:1 () in
  let a = R.analyze_exn g in
  let sp = P.greedy g a ~m:100 in
  Alcotest.(check int) "one component" 1 (S.num_components sp)

let test_greedy_structure () =
  let g = Ccs.Generators.uniform_pipeline ~n:30 ~state:10 () in
  let a = R.analyze_exn g in
  let m = 30 in
  let sp = P.greedy g a ~m in
  (* Theorem 5: each component has state at most 8m. *)
  check_valid_segmentation g sp ~bound:(8 * m);
  Alcotest.(check bool) "more than one component" true
    (S.num_components sp > 1);
  (* Components of at least... every W segment accumulated > 2m state, so
     the number of components is at most total/2m + 1. *)
  Alcotest.(check bool) "not too many components" true
    (S.num_components sp <= (G.total_state g / (2 * m)) + 1)

let test_greedy_rejects_oversized_module () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:100 () in
  let a = R.analyze_exn g in
  match P.greedy g a ~m:50 with
  | _ -> Alcotest.fail "module bigger than m must be rejected"
  | exception Invalid_argument _ -> ()

let test_greedy_cuts_at_gain_minimizing_edges () =
  (* A pipeline with one low-gain edge in the first 2m-segment: greedy
     must cut exactly there.  6 modules of state 20 (m=25, 2m=50); module 1
     decimates by 4 (edge 0 rates (1,4)), so edge gains are e0 = 1 and
     e1..e4 = 1/4. *)
  let g =
    Ccs.Generators.pipeline ~n:6
      ~state:(fun _ -> 20)
      ~rates:(fun i -> if i = 0 then (1, 4) else (1, 1))
      ()
  in
  let a = R.analyze_exn g in
  let sp = P.greedy g a ~m:25 in
  (* First W = modules 0,1,2 (state 60 > 50); internal edges e0 (gain 1)
     and e1 (gain 1/4): cut at e1, so 0 and 1 stay together. *)
  Alcotest.(check bool) "cut after module 1" true
    (S.component_of sp 1 <> S.component_of sp 2);
  Alcotest.(check int) "0 and 1 together" (S.component_of sp 0)
    (S.component_of sp 1)

let test_dp_optimal_on_uniform () =
  let g = Ccs.Generators.uniform_pipeline ~n:12 ~state:10 () in
  let a = R.analyze_exn g in
  let sp = P.optimal_dp g a ~bound:40 in
  check_valid_segmentation g sp ~bound:40;
  (* Homogeneous chain: every cut costs 1, so the optimum = ceil(12/4)-1 = 2
     cuts. *)
  Alcotest.check q "bandwidth 2" (Q.of_int 2) (S.bandwidth sp a)

let test_dp_prefers_cheap_cuts () =
  (* Cutting is forced (bound < total), and the DP must route cuts through
     the low-gain edge.  Rates (1,3),(1,1),(3,1) give node gains 1, 1/3,
     1/3, 1 and edge gains e0 = 1, e1 = 1/3, e2 = 1.  4 modules of state
     30 with bound 60: exactly one cut, which must land on e1. *)
  let g =
    Ccs.Generators.pipeline ~n:4
      ~state:(fun _ -> 30)
      ~rates:(fun i -> [| (1, 3); (1, 1); (3, 1) |].(i))
      ()
  in
  let a = R.analyze_exn g in
  let sp = P.optimal_dp g a ~bound:60 in
  Alcotest.(check int) "two components" 2 (S.num_components sp);
  Alcotest.(check bool) "cut at e1" true
    (S.component_of sp 1 <> S.component_of sp 2);
  Alcotest.check q "bandwidth 1/3" (Q.make 1 3) (S.bandwidth sp a)

let test_dp_beats_or_ties_greedy () =
  (* The DP is the true optimum among bound-bounded segmentations, so with
     the same bound it is never worse than any other segmentation we can
     construct. *)
  for seed = 0 to 9 do
    let g =
      Ccs.Generators.random_pipeline ~seed ~n:24 ~max_state:16 ~max_rate:4 ()
    in
    let a = R.analyze_exn g in
    let m = 40 in
    (* Greedy partitions with 8m worst case; give the DP the same bound. *)
    match P.greedy g a ~m with
    | greedy_sp ->
        let bound = max (8 * m) (S.max_component_state greedy_sp) in
        let dp_sp = P.optimal_dp g a ~bound in
        check_valid_segmentation g dp_sp ~bound;
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: dp <= greedy" seed)
          true
          (Q.compare (S.bandwidth dp_sp a) (S.bandwidth greedy_sp a) <= 0)
    | exception Invalid_argument _ -> () (* a module exceeded m: skip *)
  done

let test_dp_infeasible () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:50 () in
  let a = R.analyze_exn g in
  Alcotest.check_raises "infeasible bound"
    (Invalid_argument "Pipeline.optimal_dp: module m0 has state 50 > bound=10")
    (fun () -> ignore (P.optimal_dp g a ~bound:10))

let test_dp_exhaustive_check () =
  (* Compare the DP against brute-force enumeration of all segmentations
     on small random chains. *)
  let brute_force g a ~bound =
    let chain = P.chain_order g in
    let n = Array.length chain in
    let best = ref None in
    (* Bitmask over cut positions 0..n-2. *)
    for mask = 0 to (1 lsl (n - 1)) - 1 do
      (* Check boundedness. *)
      let ok = ref true in
      let seg_state = ref 0 in
      let cost = ref (Q.of_int 0) in
      Array.iteri
        (fun i v ->
          seg_state := !seg_state + G.state g v;
          if !seg_state > bound then ok := false;
          if i < n - 1 && (mask lsr i) land 1 = 1 then begin
            seg_state := 0;
            let e = List.hd (G.out_edges g v) in
            cost := Q.add !cost (Sdf_oracle.edge_gain a e)
          end)
        chain;
      if !ok then
        match !best with
        | Some b when Q.compare b !cost <= 0 -> ()
        | _ -> best := Some !cost
    done;
    Option.get !best
  in
  for seed = 20 to 27 do
    let g =
      Ccs.Generators.random_pipeline ~seed ~n:9 ~max_state:8 ~max_rate:4 ()
    in
    let a = R.analyze_exn g in
    let bound = 20 in
    let dp_sp = P.optimal_dp g a ~bound in
    let expected = brute_force g a ~bound in
    Alcotest.check q
      (Printf.sprintf "seed %d matches brute force" seed)
      expected (S.bandwidth dp_sp a)
  done

let test_greedy_10k_stage_pipeline () =
  (* Regression for [of_cuts]'s quadratic rescans: segmenting a 10k-stage
     chain with hundreds of cuts must be fast (O(n + cuts)) and yield a
     well-formed contiguous segmentation. *)
  let n = 10_000 in
  let g = Ccs.Generators.uniform_pipeline ~n ~state:64 () in
  let a = R.analyze_exn g in
  let spec = P.greedy g a ~m:256 in
  let k = S.num_components spec in
  Alcotest.(check bool)
    (Printf.sprintf "many components (%d)" k)
    true (k > 100);
  (* Segments are contiguous along the chain: component ids along the
     chain order are non-decreasing and cover 0..k-1. *)
  let assignment = S.assignment spec in
  let last = ref (-1) in
  Array.iter
    (fun v ->
      let c = assignment.(v) in
      Alcotest.(check bool) "contiguous segment ids" true
        (c = !last || c = !last + 1);
      last := c)
    (Ccs.Graph.topological_order g);
  Alcotest.(check int) "ids cover 0..k-1" (k - 1) !last;
  (* Theorem 5's guarantee: cuts land at gain-minimizing edges inside each
     >2m window, so every component spans at most a constant number of
     windows — O(m) state, here generously 8m + the tail absorption. *)
  for c = 0 to k - 1 do
    let s = S.component_state spec c in
    Alcotest.(check bool)
      (Printf.sprintf "segment %d state %d is O(m)" c s)
      true
      (s <= 8 * 256)
  done

let () =
  Alcotest.run "pipeline-partition"
    [
      ( "unit",
        [
          Alcotest.test_case "chain order" `Quick test_chain_order;
          Alcotest.test_case "gain-minimizing edge" `Quick
            test_gain_minimizing_edge;
          Alcotest.test_case "greedy small graph" `Quick
            test_greedy_small_graph_single_component;
          Alcotest.test_case "greedy structure" `Quick test_greedy_structure;
          Alcotest.test_case "greedy oversized module" `Quick
            test_greedy_rejects_oversized_module;
          Alcotest.test_case "greedy cuts at gainMin" `Quick
            test_greedy_cuts_at_gain_minimizing_edges;
          Alcotest.test_case "dp optimal uniform" `Quick
            test_dp_optimal_on_uniform;
          Alcotest.test_case "dp prefers cheap cuts" `Quick
            test_dp_prefers_cheap_cuts;
          Alcotest.test_case "dp <= greedy" `Quick test_dp_beats_or_ties_greedy;
          Alcotest.test_case "dp infeasible" `Quick test_dp_infeasible;
          Alcotest.test_case "dp vs brute force" `Quick
            test_dp_exhaustive_check;
          Alcotest.test_case "greedy 10k-stage pipeline" `Quick
            test_greedy_10k_stage_pipeline;
        ] );
    ]
