(* Order statistics over timing samples.  Every timing the harness
   reports is a median, a percentile backed by enough samples, or a
   geomean of per-app medians — never a mean, which one descheduled
   sample can move. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest rank of the [p] percentile among [n] samples; the epsilon
   keeps [0.07 *. 100. = 7.000000000000001] at rank 7. *)
let rank ~n p = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile xs p =
  if p <= 0. || p > 1. then invalid_arg "Stats.percentile: p outside (0, 1]";
  match sorted xs with
  | [||] -> invalid_arg "Stats.percentile: no samples"
  | a ->
      let n = Array.length a in
      a.(max 1 (min n (rank ~n p)) - 1)

(* Samples ranked strictly above the nearest-rank [p] percentile. *)
let beyond ~n p = n - rank ~n p

(* A percentile is reported only when at least [min_beyond] samples lie
   beyond it, so p90 needs 100 samples. *)
let min_beyond = 10

let percentile_supported xs p =
  let n = List.length xs in
  if n > 0 && beyond ~n p >= min_beyond then Some (percentile xs p) else None

let geomean = function
  | [] -> invalid_arg "Stats.geomean: no values"
  | xs ->
      List.iter
        (fun x -> if not (x > 0.) then invalid_arg "Stats.geomean: value <= 0")
        xs;
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

(* One sample list per app: each app's median first, so an app with more
   samples weighs no more than the others. *)
let geomean_of_medians groups = geomean (List.map median groups)
