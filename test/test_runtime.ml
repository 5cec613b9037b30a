(* Tests for the data-carrying runtime: kernels compute correctly and the
   engine moves tokens faithfully under any scheduler. *)

module G = Ccs.Graph
module R = Ccs.Rates

let cache64 = Ccs.Cache.config ~size_words:64 ~block_words:8 ()

(* --- kernel unit tests ----------------------------------------------------- *)

let fire1 (k : Ccs.Kernel.t) ~inputs ~out_shapes =
  let state = k.Ccs.Kernel.init () in
  let outputs = Array.map (fun n -> Array.make n 0.) out_shapes in
  k.Ccs.Kernel.fire ~state ~inputs ~outputs;
  outputs

let test_identity_gain () =
  let id = Ccs.Kernels.identity ~state_words:4 in
  let out = fire1 id ~inputs:[| [| 1.; 2.; 3. |] |] ~out_shapes:[| 3 |] in
  Alcotest.(check (array (float 0.))) "identity" [| 1.; 2.; 3. |] out.(0);
  let g2 = Ccs.Kernels.gain ~state_words:4 2. in
  let out = fire1 g2 ~inputs:[| [| 1.; 2. |] |] ~out_shapes:[| 2 |] in
  Alcotest.(check (array (float 1e-9))) "gain x2" [| 2.; 4. |] out.(0)

let test_duplicate () =
  let dup = Ccs.Kernels.duplicate ~state_words:4 in
  let out = fire1 dup ~inputs:[| [| 7. |] |] ~out_shapes:[| 1; 1 |] in
  Alcotest.(check (float 0.)) "dup a" 7. out.(0).(0);
  Alcotest.(check (float 0.)) "dup b" 7. out.(1).(0)

let test_fir_matches_convolution () =
  (* Stream 32 samples one at a time through a 4-tap FIR and compare with
     direct convolution. *)
  let taps = [| 0.5; 0.25; -0.25; 0.125 |] in
  let k = Ccs.Kernels.fir ~taps in
  let state = k.Ccs.Kernel.init () in
  let samples = Array.init 32 (fun i -> sin (float_of_int i)) in
  let got =
    Array.map
      (fun x ->
        let outputs = [| Array.make 1 0. |] in
        k.Ccs.Kernel.fire ~state ~inputs:[| [| x |] |] ~outputs;
        outputs.(0).(0))
      samples
  in
  Array.iteri
    (fun n _ ->
      let expected = ref 0. in
      Array.iteri
        (fun j c -> if n - j >= 0 then expected := !expected +. (c *. samples.(n - j)))
        taps;
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "sample %d" n)
        !expected got.(n))
    samples

let test_counter_and_collect () =
  (* A source's autobound kernel is the counter. *)
  let g = Ccs.Generators.uniform_pipeline ~n:2 ~state:1 () in
  let src = Ccs.Kernels.autobind g (G.source g) in
  let state = src.Ccs.Kernel.init () in
  let outputs = [| Array.make 3 0. |] in
  src.Ccs.Kernel.fire ~state ~inputs:[||] ~outputs;
  Alcotest.(check (array (float 0.))) "0 1 2" [| 0.; 1.; 2. |] outputs.(0);
  src.Ccs.Kernel.fire ~state ~inputs:[||] ~outputs;
  Alcotest.(check (array (float 0.))) "3 4 5" [| 3.; 4.; 5. |] outputs.(0)

(* --- engine data integrity ------------------------------------------------- *)

let test_program_checks_state () =
  let g = Ccs.Generators.uniform_pipeline ~n:2 ~state:8 () in
  match
    Ccs.Program.create g (fun _ -> Ccs.Kernels.identity ~state_words:4)
  with
  | _ -> Alcotest.fail "state mismatch must be rejected"
  | exception Invalid_argument _ -> ()

let test_chain_preserves_sequence () =
  (* counter -> identity chain -> collector: the collected stream must be
     0,1,2,... in order, under both a static and a dynamic partitioned
     plan. *)
  let n = 6 in
  let g = Ccs.Generators.uniform_pipeline ~n ~state:8 () in
  let a = R.analyze_exn g in
  let spec = Ccs.Spec.of_assignment g (Array.init n (fun v -> v / 2)) in
  let plans =
    [
      Ccs.Partitioned.batch g a spec ~t:16;
      Ccs.Partitioned.pipeline_dynamic g a spec ~m_tokens:16;
      Ccs.Baseline.minimal_memory g a;
    ]
  in
  List.iter
    (fun plan ->
      let sink_kernel, collected = Ccs.Kernels.collecting_sink ~state_words:8 in
      let program =
        Ccs.Program.create g (fun v ->
            if v = 0 then Ccs.Kernels.autobind g v
            else if v = n - 1 then sink_kernel
            else Ccs.Kernels.identity ~state_words:8)
      in
      let engine = Ccs.Engine.of_plan ~program ~cache:cache64 ~plan () in
      let result = Must.ok (Ccs.Engine.run_plan engine plan ~outputs:100) in
      Alcotest.(check bool)
        (plan.Ccs.Plan.name ^ " produced")
        true
        (result.Ccs.Runner.outputs >= 100);
      let data = collected () in
      List.iteri
        (fun i x ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s token %d" plan.Ccs.Plan.name i)
            (float_of_int i) x)
        data)
    plans

(* The data moves in step with the machine's token accounting: after
   each firing the queued values are exactly the machine's tokens, so the
   sink receives every value once, in order, and nothing is left over. *)
let test_queue_matches_machine () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:8 () in
  let sink_kernel, collected = Ccs.Kernels.collecting_sink ~state_words:8 in
  let program =
    Ccs.Program.create g (fun v ->
        if v = 0 then Ccs.Kernels.autobind g v
        else if v = 2 then sink_kernel
        else Ccs.Kernels.identity ~state_words:8)
  in
  let engine =
    Must.ok
      (Ccs.Engine.create ~program ~cache:cache64 ~capacities:[| 4; 4 |] ())
  in
  let tokens () =
    List.map (Ccs.Machine.tokens (Ccs.Engine.machine engine)) (G.edges g)
  in
  List.iter (Ccs.Engine.fire engine) [ 0; 0; 1 ];
  Alcotest.(check (list int)) "one token per edge" [ 1; 1 ] (tokens ());
  List.iter (Ccs.Engine.fire engine) [ 1; 2; 2 ];
  Alcotest.(check (list int)) "drained" [ 0; 0 ] (tokens ());
  Alcotest.(check (list (float 0.))) "sink saw both values in order"
    [ 0.; 1. ] (collected ())

let test_delay_tokens_are_zeros () =
  let b = G.Builder.create () in
  let x = G.Builder.add_module b ~state:1 "x" in
  let y = G.Builder.add_module b ~state:1 "y" in
  ignore (G.Builder.add_channel b ~delay:2 ~src:x ~dst:y ~push:1 ~pop:1 ());
  let g = G.Builder.build b in
  let sink_kernel, collected = Ccs.Kernels.collecting_sink ~state_words:1 in
  let program =
    Ccs.Program.create g (fun v ->
        if v = x then Ccs.Kernels.autobind g v else sink_kernel)
  in
  let engine =
    Must.ok (Ccs.Engine.create ~program ~cache:cache64 ~capacities:[| 4 |] ())
  in
  (* y can fire twice on the delay tokens before x ever runs. *)
  Ccs.Engine.fire engine y;
  Ccs.Engine.fire engine y;
  Ccs.Engine.fire engine x;
  Ccs.Engine.fire engine y;
  Alcotest.(check (list (float 0.))) "two zeros then data" [ 0.; 0.; 0. ]
    (collected ())

(* --- bitonic sort with real data ------------------------------------------- *)

let test_bitonic_sorts () =
  let log_lanes = 3 in
  let lanes = 1 lsl log_lanes in
  let g = Ccs_apps.Bitonic.graph ~log_lanes ~comparator_state:8 () in
  let a = R.analyze_exn g in
  (* Input: one batch of [lanes] distinct values per source firing. *)
  let values =
    [| 5.; 1.; 7.; 3.; 8.; 2.; 6.; 4. |]
  in
  let source_kernel =
    Ccs.Kernel.stateless ~state_words:4 (fun ~inputs:_ ~outputs ->
        Array.iteri (fun lane out -> out.(0) <- values.(lane)) outputs)
  in
  let sink_kernel, collected = Ccs.Kernels.collecting_sink ~state_words:4 in
  (* Direction-aware comparators: the generator names comparators
     "cmp-s<stage>.<substage>-l<low>"; ascending iff bit <stage> of the low
     lane is clear (classic bitonic network). *)
  let comparator name =
    let stage, low =
      Scanf.sscanf name "cmp-s%d.%d-l%d" (fun s _ l -> (s, l))
    in
    let ascending = low land (1 lsl stage) = 0 in
    Ccs.Kernel.stateless ~state_words:8 (fun ~inputs ~outputs ->
        let x = inputs.(0).(0) and y = inputs.(1).(0) in
        let lo, hi = if x <= y then (x, y) else (y, x) in
        if ascending then begin
          outputs.(0).(0) <- lo;
          outputs.(1).(0) <- hi
        end
        else begin
          outputs.(0).(0) <- hi;
          outputs.(1).(0) <- lo
        end)
  in
  let program =
    Ccs.Program.create g (fun v ->
        match G.node_name g v with
        | "source" -> source_kernel
        | "sink" -> sink_kernel
        | name -> comparator name)
  in
  let spec = Ccs.Dag_partition.best g a ~bound:64 () in
  let plan = Ccs.Partitioned.homogeneous g a spec ~m_tokens:8 in
  let engine =
    Ccs.Engine.of_plan ~program
      ~cache:(Ccs.Cache.config ~size_words:128 ~block_words:8 ())
      ~plan ()
  in
  let rounds = 8 in
  let _ = Must.ok (Ccs.Engine.run_plan engine plan ~outputs:rounds) in
  let data = Array.of_list (collected ()) in
  Alcotest.(check bool) "enough data" true (Array.length data >= lanes);
  (* Every consecutive block of [lanes] tokens is one sorted batch and a
     permutation of the input. *)
  let sorted_input = Array.copy values in
  Array.sort compare sorted_input;
  for r = 0 to (Array.length data / lanes) - 1 do
    let batch = Array.sub data (r * lanes) lanes in
    Alcotest.(check (array (float 0.)))
      (Printf.sprintf "round %d sorted" r)
      sorted_input batch
  done

(* --- the demo's property: FM demodulation recovers the tone ----------------- *)

let test_fm_path () =
  let src =
    Ccs.Kernels.fm_source ~state_words:2 ~carrier:0.25 ~tone:0.0025
  in
  let demod = Ccs.Kernels.fm_demodulate ~state_words:1 in
  let src_state = src.Ccs.Kernel.init () in
  let demod_state = demod.Ccs.Kernel.init () in
  (* Run 4096 samples through source->demod and low-pass by averaging
     blocks of 64; the averaged signal must oscillate at ~0.0025*64/400 ..
     just check it is non-constant and positive (frequency always > 0). *)
  let n = 4096 in
  let demodulated =
    Array.init n (fun _ ->
        let s = [| Array.make 1 0. |] in
        src.Ccs.Kernel.fire ~state:src_state ~inputs:[||] ~outputs:s;
        let d = [| Array.make 1 0. |] in
        demod.Ccs.Kernel.fire ~state:demod_state ~inputs:[| s.(0) |]
          ~outputs:d;
        d.(0).(0))
  in
  let blocks = n / 64 in
  let averaged =
    Array.init blocks (fun b ->
        let acc = ref 0. in
        for i = 0 to 63 do
          acc := !acc +. demodulated.((b * 64) + i)
        done;
        !acc /. 64.)
  in
  Array.iter
    (fun x -> Alcotest.(check bool) "frequency positive" true (x > 0.))
    averaged;
  let mn = Array.fold_left Float.min infinity averaged in
  let mx = Array.fold_left Float.max neg_infinity averaged in
  Alcotest.(check bool) "modulation visible" true (mx -. mn > 0.1 *. mx)

let test_sbox_hostile_inputs () =
  (* Regression: the table index used [abs (int_of_float (x * n))], which
     is unspecified for NaN and out-of-range floats and negative for
     [min_int] — a hostile token could read out of bounds.  Every float,
     however pathological, must map inside the table. *)
  let table_words = 64 in
  let k = Ccs.Kernels.sbox ~table_words in
  let state = k.Ccs.Kernel.init () in
  Alcotest.(check int) "table arity" table_words (Array.length state);
  let hostile =
    [|
      Float.nan;
      Float.infinity;
      Float.neg_infinity;
      1e308;
      -1e308;
      4.611686018427388e18 (* ~ float max_int *);
      -4.611686018427388e18;
      -0.999999;
      -0.;
      0.;
      0.5;
      1.0;
      -1.0;
      Float.min_float;
      -.Float.min_float;
    |]
  in
  let outputs = [| Array.make (Array.length hostile) Float.nan |] in
  k.Ccs.Kernel.fire ~state ~inputs:[| hostile |] ~outputs;
  Array.iteri
    (fun i y ->
      Alcotest.(check bool)
        (Printf.sprintf "output %d is a table entry" i)
        true
        (Array.exists (fun s -> s = y) state))
    outputs.(0);
  (* NaN maps to slot 0; in-range values hit the expected slot. *)
  Alcotest.(check (float 0.)) "nan -> slot 0" state.(0)
    (let o = [| Array.make 1 0. |] in
     k.Ccs.Kernel.fire ~state ~inputs:[| [| Float.nan |] |] ~outputs:o;
     o.(0).(0));
  Alcotest.(check (float 0.)) "0.5 -> slot n/2" state.(table_words / 2)
    (let o = [| Array.make 1 0. |] in
     k.Ccs.Kernel.fire ~state ~inputs:[| [| 0.5 |] |] ~outputs:o;
     o.(0).(0))

let () =
  Alcotest.run "runtime"
    [
      ( "kernels",
        [
          Alcotest.test_case "identity/gain" `Quick test_identity_gain;
          Alcotest.test_case "sbox hostile floats" `Quick
            test_sbox_hostile_inputs;
          Alcotest.test_case "duplicate" `Quick test_duplicate;
          Alcotest.test_case "fir = convolution" `Quick
            test_fir_matches_convolution;
          Alcotest.test_case "counter/collect" `Quick test_counter_and_collect;
        ] );
      ( "engine",
        [
          Alcotest.test_case "program state check" `Quick
            test_program_checks_state;
          Alcotest.test_case "chain preserves sequence" `Quick
            test_chain_preserves_sequence;
          Alcotest.test_case "queues = machine tokens" `Quick
            test_queue_matches_machine;
          Alcotest.test_case "delay tokens are zeros" `Quick
            test_delay_tokens_are_zeros;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "bitonic sorts real data" `Quick
            test_bitonic_sorts;
          Alcotest.test_case "fm path" `Quick test_fm_path;
        ] );
    ]
