(* Tests for reuse-distance / working-set analysis, cross-validated against
   the LRU cache simulator (the reuse-distance histogram must BE the LRU
   miss curve). *)

module T = Ccs.Trace_analysis
module C = Ccs.Cache

let test_reuse_basic () =
  (* Trace a b a: the second 'a' has one distinct block (b) in between. *)
  let d = T.reuse_distances [| 0; 1; 0 |] in
  Alcotest.(check int) "cold a" max_int d.(0);
  Alcotest.(check int) "cold b" max_int d.(1);
  Alcotest.(check int) "reuse a" 1 d.(2)

let test_reuse_immediate () =
  let d = T.reuse_distances [| 7; 7; 7 |] in
  Alcotest.(check int) "first cold" max_int d.(0);
  Alcotest.(check int) "immediate reuse 0" 0 d.(1);
  Alcotest.(check int) "again" 0 d.(2)

let test_reuse_counts_distinct () =
  (* a b b c a : last access counts distinct {b, c} = 2, not 3. *)
  let d = T.reuse_distances [| 0; 1; 1; 2; 0 |] in
  Alcotest.(check int) "distinct-only" 2 d.(4)

let test_misses_at_matches_simulator () =
  (* Core identity: LRU misses at capacity C = #accesses with distance >=
     C.  Validate on random traces against the real simulator. *)
  let rng = Random.State.make [| 42 |] in
  for trial = 0 to 19 do
    let n = 200 + Random.State.int rng 200 in
    let trace =
      Array.init n (fun _ -> Random.State.int rng 12)
    in
    let distances = T.reuse_distances trace in
    List.iter
      (fun cap ->
        let predicted =
          List.assoc cap (T.miss_curve ~distances ~capacities:[ cap ])
        in
        let c =
          C.create (C.config ~size_words:(cap * 8) ~block_words:8 ())
        in
        Array.iter (fun b -> ignore (C.touch c (b * 8))) trace;
        Alcotest.(check int)
          (Printf.sprintf "trial %d cap %d" trial cap)
          (C.misses c) predicted)
      [ 1; 2; 4; 8 ]
  done

let test_miss_curve_monotone () =
  let trace = Array.init 500 (fun i -> (i * 7) mod 23) in
  let distances = T.reuse_distances trace in
  let curve = T.miss_curve ~distances ~capacities:[ 1; 2; 4; 8; 16; 32 ] in
  let rec check = function
    | (_, m1) :: ((_, m2) :: _ as rest) ->
        Alcotest.(check bool) "monotone" true (m2 <= m1);
        check rest
    | _ -> ()
  in
  check curve

let test_histogram_total () =
  let trace = Array.init 300 (fun i -> i mod 17) in
  let distances = T.reuse_distances trace in
  let h = T.histogram distances in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 h in
  Alcotest.(check int) "histogram covers all accesses" 300 total;
  (* 17 cold accesses. *)
  Alcotest.(check int) "cold bucket" 17 (List.assoc "cold" h)

let test_working_set () =
  (* Cyclic scan over 10 blocks: a window of w < 10 sees w distinct
     blocks; windows >= 10 see all 10. *)
  let trace = Array.init 400 (fun i -> i mod 10) in
  let ws = T.working_set_curve ~trace ~windows:[ 4; 10; 40 ] in
  List.iter
    (fun (w, avg) ->
      let expected = float_of_int (min w 10) in
      Alcotest.(check (float 1e-9)) (Printf.sprintf "window %d" w) expected avg)
    ws

let test_partitioned_shifts_reuse_mass () =
  (* The mechanism behind the whole paper: the partitioned schedule's
     accesses reuse at short distances; the naive schedule's at the
     footprint scale. *)
  let g = Ccs.Generators.uniform_pipeline ~n:16 ~state:64 () in
  let a = Ccs.Rates.analyze_exn g in
  let m = 256 and b = 16 in
  let capture plan =
    let machine =
      Ccs.Machine.create ~record_trace:true ~graph:g
        ~cache:(Ccs.Cache.config ~size_words:m ~block_words:b ())
        ~capacities:plan.Ccs.Plan.capacities ()
    in
    plan.Ccs.Plan.drive machine ~target_outputs:2000;
    let blocks = C.Opt.block_trace ~block_words:b (Ccs.Machine.trace machine) in
    T.reuse_distances blocks
  in
  let spec = Ccs.Pipeline_partition.optimal_dp g a ~bound:(m / 2) in
  let part = capture (Ccs.Partitioned.batch g a spec ~t:m) in
  let naive = capture (Ccs.Baseline.round_robin g a) in
  let cap = m / b in
  let frac_below d =
    let below =
      Array.fold_left (fun acc x -> if x < cap then acc + 1 else acc) 0 d
    in
    float_of_int below /. float_of_int (Array.length d)
  in
  Alcotest.(check bool)
    (Printf.sprintf "partitioned %.2f >> naive %.2f short-reuse mass"
       (frac_below part) (frac_below naive))
    true
    (frac_below part > 0.9 && frac_below naive < 0.4)

let () =
  Alcotest.run "trace-analysis"
    [
      ( "unit",
        [
          Alcotest.test_case "basic reuse" `Quick test_reuse_basic;
          Alcotest.test_case "immediate reuse" `Quick test_reuse_immediate;
          Alcotest.test_case "distinct only" `Quick test_reuse_counts_distinct;
          Alcotest.test_case "matches simulator" `Quick
            test_misses_at_matches_simulator;
          Alcotest.test_case "miss curve monotone" `Quick
            test_miss_curve_monotone;
          Alcotest.test_case "histogram totals" `Quick test_histogram_total;
          Alcotest.test_case "working set" `Quick test_working_set;
          Alcotest.test_case "partitioning shifts reuse mass" `Quick
            test_partitioned_shifts_reuse_mass;
        ] );
    ]
