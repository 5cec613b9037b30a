(* Unit and property tests for the exact rational arithmetic that underlies
   all gain computations. *)

module Q = Ccs.Rational

let q = Alcotest.testable (fun fmt x -> Q.pp fmt x) Q.equal

let check_q = Alcotest.check q

let test_make_normalizes () =
  check_q "6/4 = 3/2" (Q.make 3 2) (Q.make 6 4);
  check_q "-6/4 = -3/2" (Q.make (-3) 2) (Q.make (-6) 4);
  check_q "6/-4 = -3/2" (Q.make (-3) 2) (Q.make 6 (-4));
  check_q "-6/-4 = 3/2" (Q.make 3 2) (Q.make (-6) (-4));
  check_q "0/7 = 0" (Q.of_int 0) (Q.make 0 7);
  Alcotest.check Alcotest.int "den of 0 is 1" 1 (Q.den (Q.make 0 9))

let test_make_zero_den () =
  Alcotest.check_raises "zero denominator" Q.Division_by_zero_rational
    (fun () -> ignore (Q.make 1 0))

let test_add () =
  check_q "1/2 + 1/3 = 5/6" (Q.make 5 6) (Q.add (Q.make 1 2) (Q.make 1 3));
  check_q "1/2 + 1/2 = 1" Q.one (Q.add (Q.make 1 2) (Q.make 1 2));
  check_q "x + 0 = x" (Q.make 7 3) (Q.add (Q.make 7 3) (Q.of_int 0))

let test_sub () =
  check_q "1/2 - 1/3 = 1/6" (Q.make 1 6) (Q.sub (Q.make 1 2) (Q.make 1 3));
  check_q "x - x = 0" (Q.of_int 0) (Q.sub (Q.make 7 3) (Q.make 7 3))

let test_mul () =
  check_q "2/3 * 3/4 = 1/2" (Q.make 1 2) (Q.mul (Q.make 2 3) (Q.make 3 4));
  check_q "x * 1 = x" (Q.make 5 7) (Q.mul (Q.make 5 7) Q.one);
  check_q "x * 0 = 0" (Q.of_int 0) (Q.mul (Q.make 5 7) (Q.of_int 0))

let test_div () =
  check_q "1/2 / 1/4 = 2" (Q.of_int 2) (Q.div (Q.make 1 2) (Q.make 1 4));
  Alcotest.check_raises "divide by zero" Q.Division_by_zero_rational
    (fun () -> ignore (Q.div Q.one (Q.of_int 0)))

let test_inv () =
  check_q "inv 2/3 = 3/2" (Q.make 3 2) (Q.inv (Q.make 2 3));
  check_q "inv -2/3 = -3/2" (Q.make (-3) 2) (Q.inv (Q.make (-2) 3))

let test_compare () =
  Alcotest.check Alcotest.int "1/2 < 2/3" (-1)
    (Q.compare (Q.make 1 2) (Q.make 2 3));
  Alcotest.check Alcotest.int "2/3 > 1/2" 1
    (Q.compare (Q.make 2 3) (Q.make 1 2));
  Alcotest.check Alcotest.int "3/6 = 1/2" 0
    (Q.compare (Q.make 3 6) (Q.make 1 2));
  Alcotest.check Alcotest.int "-1/2 < 1/3" (-1)
    (Q.compare (Q.make (-1) 2) (Q.make 1 3))

let test_floor_ceil () =
  Alcotest.check Alcotest.int "floor 7/2" 3 (Q.floor (Q.make 7 2));
  Alcotest.check Alcotest.int "ceil 7/2" 4 (Q.ceil (Q.make 7 2));
  Alcotest.check Alcotest.int "floor -7/2" (-4) (Q.floor (Q.make (-7) 2));
  Alcotest.check Alcotest.int "ceil -7/2" (-3) (Q.ceil (Q.make (-7) 2));
  Alcotest.check Alcotest.int "floor 4 = 4" 4 (Q.floor (Q.of_int 4));
  Alcotest.check Alcotest.int "ceil 4 = 4" 4 (Q.ceil (Q.of_int 4))

let test_integer () =
  Alcotest.check Alcotest.bool "4/2 is integer" true
    (Q.is_integer (Q.make 4 2));
  Alcotest.check Alcotest.bool "1/2 not integer" false
    (Q.is_integer (Q.make 1 2));
  Alcotest.check Alcotest.int "to_int_exn 9/3" 3 (Q.to_int_exn (Q.make 9 3))

let test_gcd_lcm () =
  Alcotest.check Alcotest.int "gcd 12 18" 6 (Q.gcd 12 18);
  Alcotest.check Alcotest.int "gcd 0 5" 5 (Q.gcd 0 5);
  Alcotest.check Alcotest.int "gcd 0 0" 0 (Q.gcd 0 0);
  Alcotest.check Alcotest.int "gcd -12 18" 6 (Q.gcd (-12) 18);
  Alcotest.check Alcotest.int "lcm 4 6" 12 (Q.lcm 4 6);
  Alcotest.check Alcotest.int "lcm 1 9" 9 (Q.lcm 1 9);
  Alcotest.check Alcotest.int "lcm 0 9" 0 (Q.lcm 0 9)

let test_overflow_detected () =
  let huge = Q.make max_int 1 in
  Alcotest.check_raises "mul overflow" Q.Overflow (fun () ->
      ignore (Q.mul huge (Q.of_int 2)))

let test_to_string () =
  Alcotest.check Alcotest.string "3/2" "3/2" (Q.to_string (Q.make 3 2));
  Alcotest.check Alcotest.string "integer prints bare" "5"
    (Q.to_string (Q.of_int 5))

(* Property tests. *)

let small_rational =
  QCheck2.Gen.(
    map2
      (fun n d -> Q.make n d)
      (int_range (-1000) 1000)
      (int_range 1 1000))

let prop_add_commutative =
  QCheck2.Test.make ~name:"add commutative" ~count:500
    QCheck2.Gen.(pair small_rational small_rational)
    (fun (a, b) -> Q.equal (Q.add a b) (Q.add b a))

let prop_mul_commutative =
  QCheck2.Test.make ~name:"mul commutative" ~count:500
    QCheck2.Gen.(pair small_rational small_rational)
    (fun (a, b) -> Q.equal (Q.mul a b) (Q.mul b a))

let prop_add_associative =
  QCheck2.Test.make ~name:"add associative" ~count:500
    QCheck2.Gen.(triple small_rational small_rational small_rational)
    (fun (a, b, c) -> Q.equal (Q.add (Q.add a b) c) (Q.add a (Q.add b c)))

let prop_distributive =
  QCheck2.Test.make ~name:"mul distributes over add" ~count:500
    QCheck2.Gen.(triple small_rational small_rational small_rational)
    (fun (a, b, c) ->
      Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)))

let prop_normalized =
  QCheck2.Test.make ~name:"results always in lowest terms" ~count:500
    QCheck2.Gen.(pair small_rational small_rational)
    (fun (a, b) ->
      let r = Q.mul a b in
      Q.den r > 0 && Q.gcd (Q.num r) (Q.den r) <= 1)

let prop_inv_involution =
  QCheck2.Test.make ~name:"inv (inv x) = x for x <> 0" ~count:500
    small_rational
    (fun a ->
      QCheck2.assume (not (Q.equal a (Q.of_int 0)));
      Q.equal a (Q.inv (Q.inv a)))

let prop_floor_ceil_bracket =
  QCheck2.Test.make ~name:"floor <= x <= ceil, gap < 1" ~count:500
    small_rational
    (fun a ->
      let f = Q.floor a and c = Q.ceil a in
      Q.compare (Q.of_int f) a <= 0
      && Q.compare a (Q.of_int c) <= 0
      && c - f <= 1)

let prop_compare_total_order =
  QCheck2.Test.make ~name:"compare antisymmetric" ~count:500
    QCheck2.Gen.(pair small_rational small_rational)
    (fun (a, b) -> Q.compare a b = -Q.compare b a)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_add_commutative;
      prop_mul_commutative;
      prop_add_associative;
      prop_distributive;
      prop_normalized;
      prop_inv_involution;
      prop_floor_ceil_bracket;
      prop_compare_total_order;
    ]

let () =
  Alcotest.run "rational"
    [
      ( "unit",
        [
          Alcotest.test_case "make normalizes" `Quick test_make_normalizes;
          Alcotest.test_case "zero denominator" `Quick test_make_zero_den;
          Alcotest.test_case "add" `Quick test_add;
          Alcotest.test_case "sub" `Quick test_sub;
          Alcotest.test_case "mul" `Quick test_mul;
          Alcotest.test_case "div" `Quick test_div;
          Alcotest.test_case "inv" `Quick test_inv;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "floor/ceil" `Quick test_floor_ceil;
          Alcotest.test_case "integrality" `Quick test_integer;
          Alcotest.test_case "gcd/lcm" `Quick test_gcd_lcm;
          Alcotest.test_case "overflow detected" `Quick test_overflow_detected;
          Alcotest.test_case "to_string" `Quick test_to_string;
        ] );
      ("properties", properties);
    ]
