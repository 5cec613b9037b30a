(* Tests for the DAM-model cache simulator, including the classic
   replacement-policy behaviours and Belady's OPT. *)

module C = Ccs.Cache

let lru_cache ~size ~block =
  C.create (C.config ~size_words:size ~block_words:block ())

let test_config_validation () =
  Alcotest.check_raises "zero block"
    (Invalid_argument "Cache.config: block_words must be > 0") (fun () ->
      ignore (C.config ~size_words:8 ~block_words:0 ()));
  Alcotest.check_raises "block > size"
    (Invalid_argument "Cache.config: size_words must be >= block_words")
    (fun () -> ignore (C.config ~size_words:4 ~block_words:8 ()))

let test_geometry () =
  let c = lru_cache ~size:64 ~block:8 in
  Alcotest.(check int) "size" 64 (C.size_words c);
  Alcotest.(check int) "block" 8 (C.block_words c);
  Alcotest.(check int) "blocks" 8 (C.num_blocks c)

let test_block_granularity () =
  let c = lru_cache ~size:64 ~block:8 in
  Alcotest.(check bool) "cold miss" false (C.touch c 0);
  (* Any word in the same block now hits. *)
  Alcotest.(check bool) "same block hits" true (C.touch c 7);
  Alcotest.(check bool) "next block misses" false (C.touch c 8);
  Alcotest.(check int) "misses" 2 (C.misses c);
  Alcotest.(check int) "hits" 1 (C.hits c);
  Alcotest.(check int) "accesses" 3 (C.accesses c)

let test_lru_eviction () =
  (* 2-block cache: touching 3 distinct blocks cyclically always misses. *)
  let c = lru_cache ~size:16 ~block:8 in
  for _ = 1 to 3 do
    List.iter (fun a -> ignore (C.touch c a)) [ 0; 8; 16 ]
  done;
  Alcotest.(check int) "cyclic thrash: all 9 miss" 9 (C.misses c)

let test_working_set_fits () =
  let c = lru_cache ~size:32 ~block:8 in
  for _ = 1 to 10 do
    List.iter (fun a -> ignore (C.touch c a)) [ 0; 8; 16; 24 ]
  done;
  Alcotest.(check int) "only cold misses" 4 (C.misses c);
  Alcotest.(check int) "rest hit" 36 (C.hits c)

let test_cached_no_side_effect () =
  let c = lru_cache ~size:16 ~block:8 in
  ignore (C.touch c 0);
  let misses_before = C.misses c in
  Alcotest.(check bool) "cached" true (C.cached c 3);
  Alcotest.(check bool) "not cached" false (C.cached c 8);
  Alcotest.(check int) "no accounting" misses_before (C.misses c)

let test_flush () =
  let c = lru_cache ~size:16 ~block:8 in
  ignore (C.touch c 0);
  C.flush c;
  Alcotest.(check bool) "gone after flush" false (C.cached c 0);
  Alcotest.(check int) "flush counted" 1 (C.flushes c);
  Alcotest.(check bool) "re-touch misses" false (C.touch c 0)

let test_direct_mapped_conflict () =
  (* Direct-mapped with 2 blocks: blocks 0 and 2 map to set 0 and conflict
     even though the cache could hold both. *)
  let c =
    C.create
      (C.config ~policy:C.Direct_mapped ~size_words:16 ~block_words:8 ())
  in
  ignore (C.touch c 0);
  ignore (C.touch c 16);
  ignore (C.touch c 0);
  Alcotest.(check int) "conflict misses" 3 (C.misses c);
  (* Fully-associative LRU of the same size has no conflict. *)
  let c' = lru_cache ~size:16 ~block:8 in
  ignore (C.touch c' 0);
  ignore (C.touch c' 16);
  ignore (C.touch c' 0);
  Alcotest.(check int) "no conflict in LRU" 2 (C.misses c')

let test_set_assoc_capacity_non_dividing () =
  (* Regression: when [ways] does not divide [nblocks], the set count used
     to round *down*, silently dropping up to [ways-1] blocks of modeled
     capacity (33 blocks / 4 ways modeled 32 — and 3 blocks / 2 ways
     modeled 2 in a single set).  The last set now shrinks instead, so the
     total modeled capacity is exactly [nblocks]. *)
  List.iter
    (fun (nblocks, ways) ->
      let c =
        C.create
          (C.config ~policy:(C.Set_associative ways)
             ~size_words:(nblocks * 8) ~block_words:8 ())
      in
      (* Touch enough distinct blocks to fill every set; the resident
         blocks then number the modeled capacity. *)
      for blk = 0 to (4 * nblocks) + ways do
        ignore (C.touch c (blk * 8))
      done;
      Alcotest.(check int)
        (Printf.sprintf "capacity %d blocks / %d ways" nblocks ways)
        nblocks
        (Array.fold_left
           (fun acc set -> acc + Array.length set)
           0 (C.persist c).C.p_sets);
      Alcotest.(check int)
        (Printf.sprintf "sets %d blocks / %d ways" nblocks ways)
        ((nblocks + ways - 1) / ways)
        (C.num_sets c))
    [ (33, 4); (3, 2); (5, 2); (7, 3); (8, 4); (1, 4) ]

let test_set_assoc_no_lost_way () =
  (* Behavioral form of the same bug: 3 blocks, 2-way.  The rounded-down
     engine had one 2-way set for all three blocks and thrashed; with the
     full 3 blocks of capacity the working set {0,1,2} fits (blocks 0,2 in
     set 0, block 1 in the shrunken set 1) and only cold-misses. *)
  let c =
    C.create
      (C.config ~policy:(C.Set_associative 2) ~size_words:24 ~block_words:8 ())
  in
  for _ = 1 to 5 do
    List.iter (fun a -> ignore (C.touch c a)) [ 0; 8; 16 ]
  done;
  Alcotest.(check int) "only cold misses" 3 (C.misses c);
  Alcotest.(check int) "rest hit" 12 (C.hits c)

let test_set_associative () =
  (* 4 blocks, 2-way: 2 sets.  Blocks 0,2,4 all map to set 0; 2-way holds
     two of them. *)
  let c =
    C.create
      (C.config ~policy:(C.Set_associative 2) ~size_words:32 ~block_words:8 ())
  in
  ignore (C.touch c 0);   (* block 0, set 0: miss *)
  ignore (C.touch c 16);  (* block 2, set 0: miss *)
  ignore (C.touch c 0);   (* hit *)
  ignore (C.touch c 32);  (* block 4, set 0: miss, evicts block 2 (LRU) *)
  ignore (C.touch c 0);   (* still resident *)
  ignore (C.touch c 16);  (* miss again *)
  Alcotest.(check int) "misses" 4 (C.misses c);
  Alcotest.(check int) "hits" 2 (C.hits c)

(* --- Belady OPT ---------------------------------------------------------- *)

let test_opt_simple () =
  (* Classic example: trace a b c a b with capacity 2.
     OPT: a(m) b(m) c(m, evict whichever not needed soonest...) *)
  let trace = [| 0; 1; 2; 0; 1 |] in
  (* OPT with capacity 2: a miss, b miss, c miss (evict c's best victim =
     the block with farthest next use; a is used at 3, b at 4, c never
     again... c is being inserted; evict b (next use 4 > a's 3)), a hit,
     b miss => 4 misses.  *)
  Alcotest.(check int) "opt misses" 4
    (C.Opt.misses ~block_capacity:2 trace)

let test_opt_beats_lru () =
  (* Cyclic scan of 3 blocks with capacity 2: LRU misses everything (9);
     OPT keeps one block stable and misses only 5. *)
  let trace = [| 0; 1; 2; 0; 1; 2; 0; 1; 2 |] in
  let opt = C.Opt.misses ~block_capacity:2 trace in
  let c = lru_cache ~size:16 ~block:8 in
  Array.iter (fun b -> ignore (C.touch c (b * 8))) trace;
  Alcotest.(check int) "lru thrash" 9 (C.misses c);
  Alcotest.(check bool) "opt strictly better" true (opt < 9);
  (* By hand: misses at positions 0,1,2 (cold), then alternating hits and
     misses — 6 in total. *)
  Alcotest.(check int) "opt value" 6 opt

let test_opt_all_distinct () =
  let trace = Array.init 10 Fun.id in
  Alcotest.(check int) "all cold" 10 (C.Opt.misses ~block_capacity:4 trace)

let test_opt_repeated_single () =
  let trace = Array.make 100 7 in
  Alcotest.(check int) "one cold miss" 1 (C.Opt.misses ~block_capacity:1 trace)

let test_block_trace () =
  Alcotest.(check (array int)) "word->block" [| 0; 0; 1; 2 |]
    (C.Opt.block_trace ~block_words:8 [| 0; 7; 8; 23 |])

let test_opt_heap_bounded () =
  (* Regression: the miss path used to push its heap entry twice (once in
     the insert branch, once in the unconditional post-access update), so
     an all-miss trace grew the heap to 2n.  Exactly one push per access
     bounds the peak by the trace length. *)
  let all_miss = Array.init 500 Fun.id in
  let s = C.Opt.misses_stats ~block_capacity:4 all_miss in
  Alcotest.(check int) "all cold" 500 s.C.Opt.misses;
  Alcotest.(check bool)
    (Printf.sprintf "peak heap %d <= 500 accesses" s.C.Opt.peak_heap)
    true
    (s.C.Opt.peak_heap <= 500);
  (* A hit-heavy trace must respect the same bound. *)
  let cyclic = Array.init 600 (fun i -> i mod 3) in
  let s = C.Opt.misses_stats ~block_capacity:4 cyclic in
  Alcotest.(check int) "3 cold misses" 3 s.C.Opt.misses;
  Alcotest.(check bool) "peak heap bounded" true (s.C.Opt.peak_heap <= 600)

let prop_opt_heap_bounded =
  QCheck2.Test.make ~name:"OPT heap length <= accesses" ~count:200
    QCheck2.Gen.(
      pair (int_range 1 6) (array_size (int_range 1 400) (int_range 0 12)))
    (fun (cap, blocks) ->
      let s = C.Opt.misses_stats ~block_capacity:cap blocks in
      s.C.Opt.peak_heap <= Array.length blocks)

let prop_opt_lower_bounds_lru =
  (* Belady is optimal: for any trace, OPT <= LRU at equal capacity. *)
  QCheck2.Test.make ~name:"OPT <= LRU on random traces" ~count:200
    QCheck2.Gen.(
      pair (int_range 1 6) (array_size (int_range 1 300) (int_range 0 12)))
    (fun (cap_blocks, blocks) ->
      let opt = C.Opt.misses ~block_capacity:cap_blocks blocks in
      let c = lru_cache ~size:(cap_blocks * 8) ~block:8 in
      Array.iter (fun b -> ignore (C.touch c (b * 8))) blocks;
      opt <= C.misses c)

let prop_lru_augmented_competitive =
  (* Sleator-Tarjan: LRU with 2k capacity misses at most 2x OPT with k
     (plus k cold misses).  Check the inequality with slack. *)
  QCheck2.Test.make ~name:"LRU(2k) <= 2*OPT(k) + k" ~count:100
    QCheck2.Gen.(
      pair (int_range 1 4) (array_size (int_range 1 400) (int_range 0 10)))
    (fun (k, blocks) ->
      let opt = C.Opt.misses ~block_capacity:k blocks in
      let c = lru_cache ~size:(2 * k * 8) ~block:8 in
      Array.iter (fun b -> ignore (C.touch c (b * 8))) blocks;
      C.misses c <= (2 * opt) + (2 * k))

let () =
  Alcotest.run "cache"
    [
      ( "unit",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "geometry" `Quick test_geometry;
          Alcotest.test_case "block granularity" `Quick test_block_granularity;
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
          Alcotest.test_case "working set fits" `Quick test_working_set_fits;
          Alcotest.test_case "cached no side effect" `Quick
            test_cached_no_side_effect;
          Alcotest.test_case "flush" `Quick test_flush;
          Alcotest.test_case "direct-mapped conflicts" `Quick
            test_direct_mapped_conflict;
          Alcotest.test_case "set-associative" `Quick test_set_associative;
          Alcotest.test_case "set-assoc capacity (ways does not divide)"
            `Quick test_set_assoc_capacity_non_dividing;
          Alcotest.test_case "set-assoc no lost way" `Quick
            test_set_assoc_no_lost_way;
        ] );
      ( "opt",
        [
          Alcotest.test_case "opt simple" `Quick test_opt_simple;
          Alcotest.test_case "opt beats lru" `Quick test_opt_beats_lru;
          Alcotest.test_case "all distinct" `Quick test_opt_all_distinct;
          Alcotest.test_case "repeated single" `Quick test_opt_repeated_single;
          Alcotest.test_case "block trace" `Quick test_block_trace;
          Alcotest.test_case "heap bounded" `Quick test_opt_heap_bounded;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_opt_lower_bounds_lru;
            prop_lru_augmented_competitive;
            prop_opt_heap_bounded;
          ] );
    ]
