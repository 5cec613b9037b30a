type t = { num : int; den : int }

exception Overflow
exception Division_by_zero_rational

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let gcd a b = gcd (abs a) (abs b)

(* Overflow-checked multiplication: [a * b] fits in a native int iff dividing
   back recovers [a]. *)
let mul_exact a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / b <> a then raise Overflow else p

let lcm a b = if a = 0 || b = 0 then 0 else abs (mul_exact (a / gcd a b) b)

let make num den =
  if den = 0 then raise Division_by_zero_rational
  else
    let s = if den < 0 then -1 else 1 in
    let num = s * num and den = s * den in
    let g = gcd num den in
    if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }
let one = of_int 1
let num q = q.num
let den q = q.den

let add a b =
  let g = gcd a.den b.den in
  let da = a.den / g and db = b.den / g in
  (* a.num*db + b.num*da over a.den*db; re-normalize to stay reduced. *)
  let n =
    let x = mul_exact a.num db and y = mul_exact b.num da in
    if (x > 0 && y > max_int - x) || (x < 0 && y < min_int - x) then
      raise Overflow
    else x + y
  in
  make n (mul_exact a.den db)

let neg a = { a with num = -a.num }
let sub a b = add a (neg b)

let mul a b =
  (* Cross-reduce first to keep intermediates small. *)
  let g1 = gcd a.num b.den and g2 = gcd b.num a.den in
  let g1 = if g1 = 0 then 1 else g1 and g2 = if g2 = 0 then 1 else g2 in
  make
    (mul_exact (a.num / g1) (b.num / g2))
    (mul_exact (a.den / g2) (b.den / g1))

let inv a =
  if a.num = 0 then raise Division_by_zero_rational
  else if a.num < 0 then { num = -a.den; den = -a.num }
  else { num = a.den; den = a.num }

let div a b = mul a (inv b)
let mul_int a k = mul a (of_int k)

let compare a b =
  (* Compare a.num/a.den vs b.num/b.den without overflow when possible. *)
  if a.den = b.den then Stdlib.compare a.num b.num
  else
    match
      (mul_exact a.num b.den, mul_exact b.num a.den)
    with
    | x, y -> Stdlib.compare x y
    | exception Overflow ->
        Stdlib.compare
          (float_of_int a.num /. float_of_int a.den)
          (float_of_int b.num /. float_of_int b.den)

let equal a b = a.num = b.num && a.den = b.den
let is_integer a = a.den = 1

let to_int_exn a =
  if a.den = 1 then a.num
  else invalid_arg "Rational.to_int_exn: not an integer"

let floor a =
  if a.num >= 0 then a.num / a.den
  else -(((-a.num) + a.den - 1) / a.den)

let ceil a =
  if a.num >= 0 then (a.num + a.den - 1) / a.den else -((-a.num) / a.den)

let to_float a = float_of_int a.num /. float_of_int a.den

let pp fmt a =
  if a.den = 1 then Format.fprintf fmt "%d" a.num
  else Format.fprintf fmt "%d/%d" a.num a.den

let to_string a = Format.asprintf "%a" pp a
