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

let collecting_sink ~state_words =
  let collected = ref [] in
  let kernel =
    Kernel.stateless ~state_words (fun ~inputs ~outputs:_ ->
        Array.iter
          (fun arr -> Array.iter (fun x -> collected := x :: !collected) arr)
          inputs)
  in
  (kernel, fun () -> List.rev !collected)

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
