(* Tests for the data-carrying runtime: kernels compute correctly and the
   engine moves tokens faithfully under any scheduler. *)

module G = Ccs.Graph
module R = Ccs.Rates

let cache64 = Ccs.Cache.config ~size_words:64 ~block_words:8 ()

(* --- kernel unit tests ----------------------------------------------------- *)

(* Plumbing for the engine tests: copies its one input to its one output. *)
let copy ~state_words =
  Ccs.Kernel.stateless ~state_words (fun ~inputs ~outputs ->
      Array.blit inputs.(0) 0 outputs.(0) 0 (Array.length outputs.(0)))

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
  (* A source's codegen-semantics kernel is the counter. *)
  let g = Ccs.Generators.uniform_pipeline ~n:2 ~state:1 () in
  let src = Ccs.Codegen.codegen_semantics g (G.source g) in
  let state = src.Ccs.Kernel.init () in
  let outputs = [| Array.make 3 0. |] in
  src.Ccs.Kernel.fire ~state ~inputs:[||] ~outputs;
  Alcotest.(check (array (float 0.))) "0 1 2" [| 0.; 1.; 2. |] outputs.(0);
  src.Ccs.Kernel.fire ~state ~inputs:[||] ~outputs;
  Alcotest.(check (array (float 0.))) "3 4 5" [| 3.; 4.; 5. |] outputs.(0)

(* --- engine data integrity ------------------------------------------------- *)

let test_program_checks_state () =
  let g = Ccs.Generators.uniform_pipeline ~n:2 ~state:8 () in
  match Ccs.Program.create g (fun _ -> copy ~state_words:4) with
  | _ -> Alcotest.fail "state mismatch must be rejected"
  | exception Invalid_argument _ -> ()

let test_chain_preserves_sequence () =
  (* counter -> copy chain -> collector: the collected stream must be
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
            if v = 0 then Ccs.Codegen.codegen_semantics g v
            else if v = n - 1 then sink_kernel
            else copy ~state_words:8)
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

(* x -> y over one channel; [kernel_of] binds the two modules. *)
let two_module_engine ?(delay = 0) ~push ~pop ~capacity kernel_of =
  let b = G.Builder.create () in
  let x = G.Builder.add_module b ~state:1 "x" in
  let y = G.Builder.add_module b ~state:1 "y" in
  ignore (G.Builder.add_channel b ~delay ~src:x ~dst:y ~push ~pop ());
  let g = G.Builder.build b in
  let program = Ccs.Program.create g (kernel_of g) in
  let engine =
    Must.ok
      (Ccs.Engine.create ~program ~cache:cache64 ~capacities:[| capacity |] ())
  in
  (Ccs.Engine.machine engine, x, y)

(* The data moves in step with the machine's token accounting: the ring
   slots the cursors name hold exactly the machine's tokens, so values
   pushed through a 2-slot channel that starts with a delay token wrap the
   ring many times and still reach the sink once each, in order. *)
let test_queue_matches_machine () =
  let sink_kernel, collected = Ccs.Kernels.collecting_sink ~state_words:1 in
  let m, x, y =
    two_module_engine ~delay:1 ~push:1 ~pop:1 ~capacity:2 (fun g v ->
        if v = 0 then Ccs.Codegen.codegen_semantics g v else sink_kernel)
  in
  let fire v = Ccs.Machine.fire m v in
  fire x;
  Alcotest.(check int) "delay token + one" 2 (Ccs.Machine.tokens m 0);
  for _ = 1 to 4 do
    List.iter fire [ y; y; x; x ]
  done;
  List.iter fire [ y; x; y; y ];
  Alcotest.(check int) "drained" 0 (Ccs.Machine.tokens m 0);
  Alcotest.(check int) "ten tokens through two slots" 10
    (Ccs.Machine.produced m 0);
  Alcotest.(check (list (float 0.))) "sink saw the delay token, then 0..9"
    (0. :: List.init 10 float_of_int)
    (collected ())

let test_delay_tokens_are_zeros () =
  let sink_kernel, collected = Ccs.Kernels.collecting_sink ~state_words:1 in
  let m, x, y =
    two_module_engine ~delay:2 ~push:1 ~pop:1 ~capacity:4 (fun g v ->
        if v = 0 then Ccs.Codegen.codegen_semantics g v else sink_kernel)
  in
  (* y can fire twice on the delay tokens before x ever runs. *)
  List.iter (Ccs.Machine.fire m) [ y; y; x; y ];
  Alcotest.(check (list (float 0.))) "two zeros then data" [ 0.; 0.; 0. ]
    (collected ())

(* The output arrays are reused across firings but zero-filled before each
   one: a slot the kernel writes once and then leaves alone carries 0.0 on
   every later firing, not the stale value. *)
let test_unwritten_slot_is_zero () =
  let sink_kernel, collected = Ccs.Kernels.collecting_sink ~state_words:1 in
  let firings = ref 0 in
  let source =
    Ccs.Kernel.stateless ~state_words:1 (fun ~inputs:_ ~outputs ->
        incr firings;
        outputs.(0).(0) <- float_of_int !firings;
        if !firings = 1 then outputs.(0).(1) <- 99.)
  in
  let m, x, y =
    two_module_engine ~push:2 ~pop:2 ~capacity:2 (fun _ v ->
        if v = 0 then source else sink_kernel)
  in
  for _ = 1 to 4 do
    List.iter (Ccs.Machine.fire m) [ x; y ]
  done;
  Alcotest.(check (list (float 0.))) "slot 1 is 0.0 after the first firing"
    [ 1.; 99.; 2.; 0.; 3.; 0.; 4.; 0. ]
    (collected ())

(* Every engine validates its outputs, [of_plan] ones included: a kernel's
   NaN comes back as a [Nan_output] fault naming the module. *)
let test_of_plan_reports_nan () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:4 () in
  let plan = Ccs.Baseline.minimal_memory g (R.analyze_exn g) in
  let program =
    Ccs.Program.create g (fun v ->
        if v = 1 then
          Ccs.Kernel.stateless ~state_words:4 (fun ~inputs:_ ~outputs ->
              outputs.(0).(0) <- Float.nan)
        else Ccs.Codegen.codegen_semantics g v)
  in
  let engine = Ccs.Engine.of_plan ~program ~cache:cache64 ~plan () in
  match Ccs.Engine.run_plan engine plan ~outputs:5 with
  | Error (Ccs.Error.Fault { node; fault = Ccs.Error.Nan_output; _ }) ->
      Alcotest.(check string) "names the module" (G.node_name g 1) node
  | Ok _ -> Alcotest.fail "a NaN token must be a fault"
  | Error e -> Alcotest.fail ("expected Nan_output: " ^ Ccs.Error.to_string e)

(* The engine allocates nothing per firing: with kernels that allocate
   nothing, firing N and 10N more times costs the same minor words (the
   difference would be 9N times the per-firing allocation). *)
let test_firing_allocates_nothing () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:4 () in
  let source =
    Ccs.Kernel.stateless ~state_words:4 (fun ~inputs:_ ~outputs ->
        outputs.(0).(0) <- 1.)
  in
  let sink =
    Ccs.Kernel.make ~state_words:4 (fun ~state ~inputs ~outputs:_ ->
        state.(0) <- state.(0) +. inputs.(0).(0))
  in
  let program =
    Ccs.Program.create g (fun v ->
        match v with 0 -> source | 1 -> copy ~state_words:4 | _ -> sink)
  in
  let engine =
    Must.ok
      (Ccs.Engine.create ~program ~cache:cache64 ~capacities:[| 1; 1 |] ())
  in
  let m = Ccs.Engine.machine engine in
  let words n =
    let before = Gc.minor_words () in
    for _ = 1 to n do
      Ccs.Machine.fire m 0;
      Ccs.Machine.fire m 1;
      Ccs.Machine.fire m 2
    done;
    Gc.minor_words () -. before
  in
  let n = 1000 in
  ignore (words n);
  let short = words n in
  let long = words (10 * n) in
  Alcotest.(check (float 0.)) "same words for N and 10N rounds" short long;
  Alcotest.(check (float 0.)) "sink summed every token"
    (float_of_int (12 * n)) (Ccs.Engine.state engine 2).(0)

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

let () =
  Alcotest.run "runtime"
    [
      ( "kernels",
        [
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
          Alcotest.test_case "unwritten output slot is 0.0" `Quick
            test_unwritten_slot_is_zero;
          Alcotest.test_case "of_plan reports NaN output" `Quick
            test_of_plan_reports_nan;
          Alcotest.test_case "firing allocates nothing" `Quick
            test_firing_allocates_nothing;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "bitonic sorts real data" `Quick
            test_bitonic_sorts;
          Alcotest.test_case "fm path" `Quick test_fm_path;
        ] );
    ]
