let two_pi = 8. *. atan 1.

(* Sources keep their oscillator phase in state.(0) (and friends), so the
   declared state must be at least 1 word; the rest models code/tables. *)

let fm_source ~state_words ~carrier ~tone =
  if state_words < 2 then invalid_arg "Kernels.fm_source: state_words >= 2";
  Kernel.make ~state_words (fun ~state ~inputs:_ ~outputs ->
      (* state.(0) = accumulated carrier phase, state.(1) = sample index *)
      Array.iter
        (fun out ->
          Array.iteri
            (fun i _ ->
              let deviation =
                0.5 *. carrier *. sin (two_pi *. tone *. state.(1))
              in
              state.(0) <- state.(0) +. carrier +. deviation;
              state.(1) <- state.(1) +. 1.;
              out.(i) <- cos (two_pi *. state.(0)))
            out)
        outputs)

let counter_source ~state_words =
  if state_words < 1 then
    invalid_arg "Kernels.counter_source: state_words >= 1";
  Kernel.make ~state_words (fun ~state ~inputs:_ ~outputs ->
      Array.iter
        (fun out ->
          Array.iteri
            (fun i _ ->
              out.(i) <- state.(0);
              state.(0) <- state.(0) +. 1.)
            out)
        outputs)

let null_sink ~state_words =
  Kernel.stateless ~state_words (fun ~inputs:_ ~outputs:_ -> ())

let collecting_sink ~state_words =
  let collected = ref [] in
  let kernel =
    Kernel.stateless ~state_words (fun ~inputs ~outputs:_ ->
        Array.iter
          (fun arr -> Array.iter (fun x -> collected := x :: !collected) arr)
          inputs)
  in
  (kernel, fun () -> List.rev !collected)

let identity ~state_words =
  Kernel.stateless ~state_words (fun ~inputs ~outputs ->
      Array.blit inputs.(0) 0 outputs.(0) 0 (Array.length outputs.(0)))

let gain ~state_words k =
  Kernel.stateless ~state_words (fun ~inputs ~outputs ->
      Array.iteri (fun i x -> outputs.(0).(i) <- k *. x) inputs.(0))

let fir ~taps =
  let ntaps = Array.length taps in
  let state_words = 2 * ntaps in
  (* state.(0..ntaps-1) = coefficients, state.(ntaps..) = delay line. *)
  let init () =
    let st = Array.make state_words 0. in
    Array.blit taps 0 st 0 ntaps;
    st
  in
  Kernel.make ~init ~state_words (fun ~state ~inputs ~outputs ->
      let input = inputs.(0) and out = outputs.(0) in
      let pop = Array.length input and push = Array.length out in
      let emitted = ref 0 in
      Array.iteri
        (fun idx x ->
          (* Shift the delay line and insert the new sample. *)
          for i = state_words - 1 downto ntaps + 1 do
            state.(i) <- state.(i - 1)
          done;
          state.(ntaps) <- x;
          (* Emit on the last [push] consumed samples (decimation keeps
             the freshest outputs). *)
          if idx >= pop - push then begin
            let acc = ref 0. in
            for i = 0 to ntaps - 1 do
              acc := !acc +. (state.(i) *. state.(ntaps + i))
            done;
            out.(!emitted) <- !acc;
            incr emitted
          end)
        input)

let fm_demodulate ~state_words =
  if state_words < 1 then
    invalid_arg "Kernels.fm_demodulate: state_words >= 1";
  Kernel.make ~state_words (fun ~state ~inputs ~outputs ->
      (* state.(0) = previous sample.  |x(n) - x(n-1)| ~ 2π·f_inst·|sin φ|:
         a rectified discriminator whose low-passed output is proportional
         to the instantaneous frequency — the slope-detection receiver.
         (The carrier-rate |sin| ripple is the downstream low-pass
         filter's job.) *)
      Array.iteri
        (fun i x ->
          outputs.(0).(i) <- Float.abs (x -. state.(0));
          state.(0) <- x)
        inputs.(0))

let sbox ~table_words =
  let init () =
    (* Fixed pseudo-random permutation-ish table. *)
    Array.init table_words (fun i ->
        float_of_int ((i * 2654435761) land 0xFFFF) /. 65536.)
  in
  (* Total float -> table index map.  The obvious
     [abs (int_of_float scaled) mod table_words] is not: [int_of_float] on
     NaN or out-of-range floats is unspecified, and [abs min_int] is still
     negative, so a hostile token read out of bounds.  Clamp to the exactly
     representable int range first, then reduce to a non-negative
     residue. *)
  let index_of x =
    let scaled = x *. float_of_int table_words in
    if Float.is_nan scaled then 0
    else if scaled >= 1073741823. then 1073741823 mod table_words
    else if scaled <= -1073741824. then
      (-1073741824 mod table_words + table_words) mod table_words
    else
      let r = int_of_float scaled mod table_words in
      if r < 0 then r + table_words else r
  in
  Kernel.make ~init ~state_words:table_words (fun ~state ~inputs ~outputs ->
      Array.iteri
        (fun i x -> outputs.(0).(i) <- state.(index_of x))
        inputs.(0))

let duplicate ~state_words =
  Kernel.stateless ~state_words (fun ~inputs ~outputs ->
      Array.iter
        (fun out -> Array.blit inputs.(0) 0 out 0 (Array.length out))
        outputs)

let generic ~state_words =
  Kernel.make ~state_words (fun ~state ~inputs ~outputs ->
      let consumed = Array.concat (Array.to_list inputs) in
      let n = Array.length consumed in
      Array.iter
        (fun out ->
          Array.iteri
            (fun k _ ->
              if n = 0 then
                if Array.length state > 0 then begin
                  (* Source-like: emit a counter stream. *)
                  out.(k) <- state.(0);
                  state.(0) <- state.(0) +. 1.
                end
                else out.(k) <- float_of_int k
              else out.(k) <- (0.5 *. consumed.(k mod n)) +. 0.25)
            out)
        outputs)

let autobind g v =
  let module G = Ccs_sdf.Graph in
  let state_words = G.state g v in
  let ins = G.in_edges g v and outs = G.out_edges g v in
  match (ins, outs) with
  | [], _ when state_words >= 1 -> counter_source ~state_words
  | _, [] -> null_sink ~state_words
  | [ i ], [ o ]
    when G.pop g i = 1 && G.push g o = 1 && state_words >= 2
         && state_words mod 2 = 0 ->
      (* Unit-rate filter-shaped module: a real FIR sized to the state. *)
      let taps =
        Array.init (state_words / 2) (fun k ->
            1. /. float_of_int ((2 * k) + 2))
      in
      fir ~taps
  | _ -> generic ~state_words
