(* Tests for the looped-schedule representation. *)

module S = Ccs.Schedule

let test_length () =
  Alcotest.(check int) "fire" 1 (S.length (S.fire 0));
  Alcotest.(check int) "seq" 3 (S.length (S.of_list [ 0; 1; 2 ]));
  Alcotest.(check int) "repeat" 10 (S.length (S.repeat 5 (S.of_list [ 0; 1 ])));
  Alcotest.(check int) "nested" 30
    (S.length (S.repeat 3 (S.seq [ S.fire 9; S.repeat 3 (S.of_list [ 1; 2; 3 ]) ])));
  Alcotest.(check int) "repeat 0" 0 (S.length (S.repeat 0 (S.fire 1)))

let test_repeat_negative () =
  Alcotest.check_raises "negative repeat"
    (Invalid_argument "Schedule.repeat: negative count") (fun () ->
      ignore (S.repeat (-1) (S.fire 0)))

let test_iter_order () =
  let s = S.seq [ S.fire 0; S.repeat 2 (S.of_list [ 1; 2 ]); S.fire 3 ] in
  let seen = ref [] in
  S.iter s ~f:(fun v -> seen := v :: !seen);
  Alcotest.(check (list int)) "order" [ 0; 1; 2; 1; 2; 3 ] (List.rev !seen)

let test_to_list () =
  let s = S.repeat 2 (S.of_list [ 4; 5 ]) in
  Alcotest.(check (list int)) "flattened" [ 4; 5; 4; 5 ] (Sdf_oracle.firings s)

let test_fire_counts () =
  let s =
    S.seq [ S.repeat 3 (S.fire 0); S.repeat 2 (S.seq [ S.fire 1; S.fire 0 ]) ]
  in
  Alcotest.(check (array int)) "counts" [| 5; 2; 0 |]
    (S.fire_counts ~num_nodes:3 s)

let test_fire_counts_no_unroll () =
  (* Deep nesting with huge repeat counts must not take huge time. *)
  let s = S.repeat 1_000_000 (S.repeat 1_000_000 (S.fire 0)) in
  let t0 = Sys.time () in
  let counts = S.fire_counts ~num_nodes:1 s in
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check int) "count" 1_000_000_000_000 counts.(0);
  Alcotest.(check bool) "fast" true (elapsed < 0.1)

let test_run_on_machine () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:4 () in
  let m =
    Ccs.Machine.create ~graph:g
      ~cache:(Ccs.Cache.config ~size_words:64 ~block_words:8 ())
      ~capacities:[| 2; 2 |] ()
  in
  S.run m (S.repeat 2 (S.of_list [ 0; 1; 2 ]));
  Alcotest.(check int) "all fired" 6 (Ccs.Machine.total_fires m);
  Alcotest.(check int) "outputs" 2 (Ccs.Machine.sink_outputs m)

let test_pp () =
  let s = S.repeat 2 (S.seq [ S.fire 0; S.fire 1 ]) in
  let str = Format.asprintf "%a" S.pp s in
  Alcotest.(check string) "rendering" "2*(0 1)" str

let () =
  Alcotest.run "schedule"
    [
      ( "unit",
        [
          Alcotest.test_case "length" `Quick test_length;
          Alcotest.test_case "negative repeat" `Quick test_repeat_negative;
          Alcotest.test_case "iter order" `Quick test_iter_order;
          Alcotest.test_case "to_list" `Quick test_to_list;
          Alcotest.test_case "fire counts" `Quick test_fire_counts;
          Alcotest.test_case "fire counts no unroll" `Quick
            test_fire_counts_no_unroll;
          Alcotest.test_case "run on machine" `Quick test_run_on_machine;
          Alcotest.test_case "pretty printing" `Quick test_pp;
        ] );
    ]
