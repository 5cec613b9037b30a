(* Tests for the address-space layout allocator. *)

module L = Ccs.Layout

let test_packed () =
  let l = L.create () in
  let r1 = L.alloc l ~len:5 in
  let r2 = L.alloc l ~len:3 in
  Alcotest.(check int) "r1 base" 0 r1.L.base;
  Alcotest.(check int) "r2 base" 5 r2.L.base;
  Alcotest.(check int) "size" 8 (L.size l)

let test_aligned () =
  let l = L.create ~align:16 () in
  let r1 = L.alloc l ~len:5 in
  let r2 = L.alloc l ~len:20 in
  let r3 = L.alloc l ~len:1 in
  Alcotest.(check int) "r1 base" 0 r1.L.base;
  Alcotest.(check int) "r2 aligned" 16 r2.L.base;
  Alcotest.(check int) "r3 aligned past r2" 48 r3.L.base

let test_per_alloc_align_override () =
  let l = L.create ~align:16 () in
  let _ = L.alloc l ~len:5 in
  let packed = L.alloc ~align:1 l ~len:3 in
  Alcotest.(check int) "packed override" 5 packed.L.base

let test_zero_length () =
  let l = L.create () in
  let r = L.alloc l ~len:0 in
  Alcotest.(check int) "zero-length region" 0 r.L.length;
  let r2 = L.alloc l ~len:4 in
  Alcotest.(check int) "no space consumed" 0 r2.L.base

let test_negative_rejected () =
  let l = L.create () in
  Alcotest.check_raises "negative len"
    (Invalid_argument "Layout.alloc: negative length") (fun () ->
      ignore (L.alloc l ~len:(-1)))

let test_word_addressing () =
  let l = L.create () in
  let _ = L.alloc l ~len:10 in
  let r = L.alloc l ~len:4 in
  Alcotest.(check int) "first word" 10 r.L.base;
  Alcotest.(check int) "words" 4 r.L.length;
  Alcotest.(check int) "high-water mark" 14 (L.size l)

let test_disjointness_under_mixed_aligns () =
  let l = L.create ~align:8 () in
  let regions =
    List.init 20 (fun i ->
        L.alloc ~align:(if i mod 2 = 0 then 8 else 1) l ~len:(1 + (i mod 5)))
  in
  (* No two regions overlap. *)
  List.iteri
    (fun i r1 ->
      List.iteri
        (fun j r2 ->
          if i < j && r1.L.length > 0 && r2.L.length > 0 then
            let disjoint =
              r1.L.base + r1.L.length <= r2.L.base
              || r2.L.base + r2.L.length <= r1.L.base
            in
            Alcotest.(check bool)
              (Printf.sprintf "regions %d,%d disjoint" i j)
              true disjoint)
        regions)
    regions

let () =
  Alcotest.run "layout"
    [
      ( "unit",
        [
          Alcotest.test_case "packed" `Quick test_packed;
          Alcotest.test_case "aligned" `Quick test_aligned;
          Alcotest.test_case "per-alloc override" `Quick
            test_per_alloc_align_override;
          Alcotest.test_case "zero length" `Quick test_zero_length;
          Alcotest.test_case "negative rejected" `Quick test_negative_rejected;
          Alcotest.test_case "word addressing" `Quick test_word_addressing;
          Alcotest.test_case "disjointness" `Quick
            test_disjointness_under_mixed_aligns;
        ] );
    ]
