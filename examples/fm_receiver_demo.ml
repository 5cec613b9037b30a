(* A working FM receiver: synthesize an FM-modulated carrier, schedule the
   receiver graph with the paper's partitioned scheduler, and run REAL
   samples through it — demodulation happens while the cache simulator
   counts the misses the schedule incurs.  Finally verify the recovered
   baseband tone's frequency from its zero crossings.

   This is the workload the paper's introduction motivates (StreamIt / GNU
   Radio FM receivers), demonstrated end-to-end: same graph, same plan,
   data actually flowing.

   Run with: dune exec examples/fm_receiver_demo.exe *)

module B = Ccs.Graph.Builder

let tone = 0.01 (* cycles/sample at the decimated rate: what we must recover *)
let carrier = 0.25
let decimation = 4

(* Low-pass FIR: a simple moving-average-of-taps window is enough to pass
   the baseband tone and kill carrier residue. *)
let lowpass_taps n = Array.make n (1. /. float_of_int n)

let build () =
  let b = B.create ~name:"fm-receiver" () in
  let src = B.add_module b ~state:2 "rf-source" in
  let demod = B.add_module b ~state:1 "discriminator" in
  ignore (B.add_channel b ~src ~dst:demod ~push:1 ~pop:1 ());
  let lpf = B.add_module b ~state:(2 * 64) "low-pass" in
  (* Decimate by 4: consume 4 discriminator samples per output sample. *)
  ignore (B.add_channel b ~src:demod ~dst:lpf ~push:1 ~pop:decimation ());
  let audio = B.add_module b ~state:(2 * 16) "audio-shape" in
  ignore (B.add_channel b ~src:lpf ~dst:audio ~push:1 ~pop:1 ());
  let speaker = B.add_module b ~state:4 "speaker" in
  ignore (B.add_channel b ~src:audio ~dst:speaker ~push:1 ~pop:1 ());
  B.build b

let () =
  let g = build () in
  let speaker_kernel, recorded = Ccs.Kernels.collecting_sink ~state_words:4 in
  let program =
    Ccs.Program.create g (fun v ->
        match Ccs.Graph.node_name g v with
        | "rf-source" ->
            Ccs.Kernels.fm_source ~state_words:2 ~carrier
              ~tone:(tone /. float_of_int decimation)
        | "discriminator" -> Ccs.Kernels.fm_demodulate ~state_words:1
        | "low-pass" -> Ccs.Kernels.fir ~taps:(lowpass_taps 64)
        | "audio-shape" -> Ccs.Kernels.fir ~taps:(lowpass_taps 16)
        | "speaker" -> speaker_kernel
        | name -> failwith name)
  in

  (* Schedule with the paper's machinery... *)
  let cfg = Ccs.Config.make ~cache_words:128 ~block_words:16 () in
  let choice = Ccs.Auto.plan ~dynamic:false g cfg in
  Printf.printf "receiver: %d modules, %d words of state; partition: %d \
                 components, batch T=%d\n"
    (Ccs.Graph.num_nodes g) (Ccs.Graph.total_state g)
    (Ccs.Spec.num_components choice.Ccs.Auto.partition)
    choice.Ccs.Auto.batch;

  (* ...and run real samples through it. *)
  let engine =
    Ccs.Engine.of_plan ~program ~cache:(Ccs.Config.cache_config cfg)
      ~plan:choice.Ccs.Auto.plan ()
  in
  let audio_samples = 8_192 in
  (match
     Ccs.Engine.run_plan engine choice.Ccs.Auto.plan ~outputs:audio_samples
   with
  | Ok result -> Format.printf "%a@." Ccs.Runner.pp_result result
  | Error e -> failwith (Ccs.Error.to_string e));

  (* Estimate the recovered tone's frequency from zero crossings of the
     (DC-removed) audio. *)
  let audio = Array.of_list (recorded ()) in
  let n = Array.length audio in
  let mean = Array.fold_left ( +. ) 0. audio /. float_of_int n in
  let crossings = ref 0 in
  for i = 1 to n - 1 do
    let a = audio.(i - 1) -. mean and b = audio.(i) -. mean in
    if (a < 0. && b >= 0.) || (a >= 0. && b < 0.) then incr crossings
  done;
  (* Skip the filter warm-up transient by ignoring the first 5% in the
     count scale. *)
  let measured_freq = float_of_int !crossings /. 2. /. float_of_int n in
  Printf.printf
    "baseband tone: expected %.4f cycles/sample, measured %.4f (from %d \
     zero crossings over %d samples)\n"
    tone measured_freq !crossings n;
  if Float.abs (measured_freq -. tone) > 0.2 *. tone then begin
    print_endline "DEMODULATION FAILED";
    exit 1
  end
  else print_endline "demodulation OK — schedule moved real data correctly"
