(* The benchmark harness's pure helpers: order statistics, span self
   time, and the serve mix's planned cache counts. *)

open Perfbench

let feq = Alcotest.float 1e-9

let test_median () =
  Alcotest.check feq "odd" 3. (Stats.median [ 5.; 1.; 3. ]);
  Alcotest.check feq "even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ])

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "nearest-rank p90 of 1..100" 90. (Stats.percentile xs 0.9);
  Alcotest.check feq "p50" 50. (Stats.percentile xs 0.5);
  Alcotest.check feq "p100" 100. (Stats.percentile xs 1.0);
  Alcotest.check feq "p7, where 0.07 *. 100. > 7." 7. (Stats.percentile xs 0.07)

let test_sample_count_rule () =
  let n k = List.init k float_of_int in
  Alcotest.(check bool) "p90 needs 100 samples" true
    (Stats.percentile_supported (n 99) 0.9 = None);
  Alcotest.(check (option feq)) "100 samples support p90" (Some 89.)
    (Stats.percentile_supported (n 100) 0.9);
  Alcotest.(check bool) "p99 needs 1000" true
    (Stats.percentile_supported (n 999) 0.99 = None
    && Stats.percentile_supported (n 1000) 0.99 <> None);
  Alcotest.(check bool) "p50 needs 20" true
    (Stats.percentile_supported (n 19) 0.5 = None
    && Stats.percentile_supported (n 20) 0.5 <> None)

let test_geomean_of_medians () =
  (* Medians 3 and 12: an app's sample count does not weigh it. *)
  Alcotest.check feq "geomean of per-app medians" 6.
    (Stats.geomean_of_medians [ [ 1.; 3.; 100. ]; [ 12. ] ]);
  Alcotest.check_raises "non-positive value" (Invalid_argument "Stats.geomean: value <= 0")
    (fun () -> ignore (Stats.geomean [ 1.; 0. ]))

let span ~id ~parent ~stage ~s ~e =
  { Ccs.Span.trace_id = "t"; span_id = id; parent; stage; start_us = s; end_us = e }

let test_self_time () =
  (* root [0,100) has children a [10,40) and b [30,60), which overlap:
     together they cover [10,60), so root's self time is 50.  a's child
     [15,20) leaves a 25; b and the leaf have no children. *)
  let spans =
    [
      span ~id:2 ~parent:1 ~stage:"leaf" ~s:15 ~e:20;
      span ~id:1 ~parent:0 ~stage:"a" ~s:10 ~e:40;
      span ~id:3 ~parent:0 ~stage:"b" ~s:30 ~e:60;
      span ~id:0 ~parent:(-1) ~stage:"root" ~s:0 ~e:100;
      span ~id:4 ~parent:(-1) ~stage:"a" ~s:200 ~e:207;
    ]
  in
  let self = Spans.self_times spans in
  let get stage = List.assoc stage self in
  Alcotest.(check (pair int int)) "root" (50, 1) (get "root");
  Alcotest.(check (pair int int)) "a, summed over its two spans" (25 + 7, 2) (get "a");
  Alcotest.(check (pair int int)) "b" (30, 1) (get "b");
  Alcotest.(check (pair int int)) "leaf" (5, 1) (get "leaf")

let test_recorder () =
  let tr = Spans.create ~capacity:8 ~run_id:"run" in
  Spans.with_span tr "outer" (fun () -> Spans.with_span tr "inner" ignore);
  match Spans.to_list tr with
  | [ inner; outer ] ->
      Alcotest.(check string) "run id" "run" outer.trace_id;
      Alcotest.(check int) "inner's parent" outer.span_id inner.parent;
      Alcotest.(check int) "outer is a root" (-1) outer.parent;
      Alcotest.(check int) "nothing dropped" 0 (Spans.dropped tr)
  | _ -> Alcotest.fail "expected two spans"

let is_cold = function Mix.Cold _ -> true | _ -> false

let test_mix_counts () =
  let mix = Mix.make ~seed:7 ~apps:12 ~requests:1000 in
  let count p = Mix.count p mix in
  Alcotest.(check int) "requests" 1000 (Array.length mix.ops);
  Alcotest.(check int) "cold" 50 (count is_cold);
  Alcotest.(check int) "reformatted" 80 (count (function Mix.Reformatted _ -> true | _ -> false));
  Alcotest.(check int) "scrapes" 10 (count (( = ) Mix.Scrape));
  (* Warm-up builds each of the 12 base keys and hits it 3 times. *)
  Alcotest.(check int) "planned misses" (12 + 50) (Mix.planned_misses mix);
  Alcotest.(check int) "planned hits" ((12 * 3) + 860 + 80) (Mix.planned_hits mix)

let test_mix_keys () =
  let mix = Mix.make ~seed:3 ~apps:12 ~requests:2000 in
  let colds = List.filter is_cold (Array.to_list mix.ops) in
  Alcotest.(check int) "every cold key is new" (List.length colds)
    (List.length (List.sort_uniq compare colds));
  List.iter
    (function
      | Mix.Cold (_, k) ->
          Alcotest.(check bool) "cold sizes avoid the base size" true
            (Mix.cold_cache_words k <> Mix.base_cache_words)
      | _ -> ())
    colds;
  let per_app = Array.make 12 0 in
  List.iter (function Mix.Cold (a, _) -> per_app.(a) <- per_app.(a) + 1 | _ -> ()) colds;
  let lo = Array.fold_left min max_int per_app and hi = Array.fold_left max 0 per_app in
  Alcotest.(check bool) "cold builds spread evenly over the apps" true (hi - lo <= 1);
  Alcotest.(check bool) "same seed, same mix" true
    (Mix.make ~seed:3 ~apps:12 ~requests:2000 = mix);
  Alcotest.(check bool) "another seed, another order" true
    ((Mix.make ~seed:4 ~apps:12 ~requests:2000).ops <> mix.ops)

let test_normalize () =
  let build = {|{"ok":true,"cached":false,"key":"k","elapsed_us":912,"batch":4}|}
  and hit = {|{"ok":true,"cached":true,"key":"k","elapsed_us":3,"batch":4}|} in
  Alcotest.(check bool) "hit equals build" true (Mix.normalize hit = Mix.normalize build);
  Alcotest.(check bool) "cached flag" true (Mix.cached hit && not (Mix.cached build));
  Alcotest.(check bool) "errors do not normalize" true
    (Mix.normalize {|{"ok":false,"error":{"code":"x"}}|} = None)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "percentile sample-count rule" `Quick test_sample_count_rule;
          Alcotest.test_case "geomean of per-app medians" `Quick test_geomean_of_medians;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time over nested spans" `Quick test_self_time;
          Alcotest.test_case "recorder parents and run id" `Quick test_recorder;
        ] );
      ( "mix",
        [
          Alcotest.test_case "planned hit and miss counts" `Quick test_mix_counts;
          Alcotest.test_case "cold keys are new and balanced" `Quick test_mix_keys;
          Alcotest.test_case "response normalization" `Quick test_normalize;
        ] );
    ]
