module Graph = Ccs_sdf.Graph
module Minbuf = Ccs_sdf.Minbuf

let scale pass ~s =
  Schedule.seq (List.map (fun v -> Schedule.repeat s (Schedule.fire v)) pass)

let scaled_schedule g a ~s =
  if s < 1 then invalid_arg "Scaling.scaled_schedule: s must be >= 1";
  scale (Minbuf.compute g a).Minbuf.schedule ~s

let plan g a ~s =
  let period = scaled_schedule g a ~s in
  let capacities = Simulate.peaks g period in
  Plan.of_period ~name:(Printf.sprintf "scaling-x%d" s) ~capacities period

let auto g a ~cache_words ?(max_s = 4096) () =
  let pass = (Minbuf.compute g a).Minbuf.schedule in
  let max_state =
    List.fold_left (fun acc v -> max acc (Graph.state g v)) 0 (Graph.nodes g)
  in
  (* Whether the scaled period is token-legal and its buffers plus the
     largest module state fit.  Both hold for every smaller [s]: buffers
     grow with [s], and a channel that the PASS leaves [x < 0] tokens
     short of its delay ends that block at [delay + s·x]. *)
  let fits s =
    match Simulate.peaks g (scale pass ~s) with
    | peaks -> Array.fold_left ( + ) 0 peaks + max_state <= cache_words
    | exception Ccs_sdf.Error.Error (Schedule_illegal _) -> false
  in
  if not (fits 1) then plan g a ~s:1
  else begin
    (* Doubling phase. *)
    let rec double s = if 2 * s <= max_s && fits (2 * s) then double (2 * s) else s in
    let lo = double 1 in
    (* Bisect in (lo, min (2*lo) max_s]. *)
    let rec bisect lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if fits mid then bisect mid hi else bisect lo mid
    in
    let s = bisect lo (min (2 * lo) max_s + 1) in
    plan g a ~s
  end
