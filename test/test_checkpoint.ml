(* Checkpoint format and restore semantics: a restored machine must be
   bit-identical to the one that was saved (same future misses, counters,
   outputs), and every kind of file damage — truncation, bit flips, wrong
   magic, version skew — must come back as a structured error, never as
   garbage state. *)

module G = Ccs.Graph
module E = Ccs.Error

let cache = Ccs.Cache.config ~size_words:256 ~block_words:16 ()

let temp_path () = Filename.temp_file "ccs-test" ".ccsckpt"

let setup ?(n = 4) () =
  let g = Ccs.Generators.uniform_pipeline ~n ~state:8 () in
  let cfg = Ccs.Config.make ~cache_words:256 ~block_words:16 () in
  let choice = Ccs.Auto.plan ~dynamic:false g cfg in
  (g, choice.Ccs.Auto.plan)

let machine_for ?counters ?tracer g plan =
  Ccs.Machine.create ?counters ?tracer ~graph:g ~cache
    ~capacities:plan.Ccs.Plan.capacities ()

let test_machine_persist_roundtrip () =
  let g, plan = setup () in
  let m1 = machine_for g plan in
  plan.Ccs.Plan.drive m1 ~target_outputs:37;
  let p = Ccs.Machine.persist m1 in
  let m2 = machine_for g plan in
  Ccs.Machine.restore m2 p;
  Alcotest.(check int) "total fires" (Ccs.Machine.total_fires m1)
    (Ccs.Machine.total_fires m2);
  Alcotest.(check int) "outputs" (Ccs.Machine.sink_outputs m1)
    (Ccs.Machine.sink_outputs m2);
  List.iter
    (fun e ->
      Alcotest.(check int) "tokens" (Ccs.Machine.tokens m1 e)
        (Ccs.Machine.tokens m2 e);
      Alcotest.(check int) "consumed" (Ccs.Machine.consumed m1 e)
        (Ccs.Machine.consumed m2 e))
    (G.edges g)

let test_machine_restore_shape_mismatch () =
  let g, plan = setup () in
  let g2, plan2 = setup ~n:6 () in
  let m1 = machine_for g plan in
  let m2 = machine_for g2 plan2 in
  Alcotest.check_raises "wrong shape rejected"
    (Invalid_argument
       "Machine.restore: state for 4 nodes / 3 channels does not fit a \
        machine with 6 nodes / 5 channels")
    (fun () -> Ccs.Machine.restore m2 (Ccs.Machine.persist m1))

let test_checkpoint_roundtrip_fields () =
  let g, plan = setup () in
  let m = machine_for g plan in
  plan.Ccs.Plan.drive m ~target_outputs:20;
  let ckpt = Ccs.Checkpoint.capture ~plan_name:"p" ~epoch:3 m in
  let path = temp_path () in
  Ccs.Checkpoint.save ~path ckpt;
  (match Ccs.Checkpoint.load ~path () with
  | Error e -> Alcotest.fail ("load failed: " ^ E.to_string e)
  | Ok back ->
      Alcotest.(check string) "digest" ckpt.Ccs.Checkpoint.graph_digest
        back.Ccs.Checkpoint.graph_digest;
      Alcotest.(check string) "plan name" "p" back.Ccs.Checkpoint.plan_name;
      Alcotest.(check int) "epoch" 3 back.Ccs.Checkpoint.epoch;
      Alcotest.(check bool) "machine state equal" true
        (ckpt.Ccs.Checkpoint.machine = back.Ccs.Checkpoint.machine);
      Alcotest.(check bool) "cache state equal" true
        (ckpt.Ccs.Checkpoint.caches = back.Ccs.Checkpoint.caches));
  Sys.remove path

(* The tentpole invariant, in its single-machine form: run to T1, save,
   run on to T2; separately restore a fresh machine from the file and run
   it to T2.  Both machines must agree on every observable. *)
let test_restore_continues_bit_identically () =
  let g, plan = setup () in
  let c1 = Ccs.Counters.create ~entities:(G.num_nodes g + G.num_edges g) in
  let m1 = machine_for ~counters:c1 g plan in
  plan.Ccs.Plan.drive m1 ~target_outputs:25;
  let path = temp_path () in
  Ccs.Checkpoint.save ~path (Ccs.Checkpoint.capture ~plan_name:"p" ~epoch:1 m1);
  plan.Ccs.Plan.drive m1 ~target_outputs:80;
  let c2 = Ccs.Counters.create ~entities:(G.num_nodes g + G.num_edges g) in
  let m2 = machine_for ~counters:c2 g plan in
  (match Ccs.Checkpoint.load_into ~path m2 with
  | Error e -> Alcotest.fail ("restore failed: " ^ E.to_string e)
  | Ok ckpt -> Alcotest.(check int) "epoch" 1 ckpt.Ccs.Checkpoint.epoch);
  plan.Ccs.Plan.drive m2 ~target_outputs:80;
  Alcotest.(check int) "misses" (Ccs.Machine.misses m1) (Ccs.Machine.misses m2);
  Alcotest.(check int) "accesses"
    (Ccs.Cache.accesses (Ccs.Machine.cache m1))
    (Ccs.Cache.accesses (Ccs.Machine.cache m2));
  Alcotest.(check int) "outputs" (Ccs.Machine.sink_outputs m1)
    (Ccs.Machine.sink_outputs m2);
  Alcotest.(check int) "inputs" (Ccs.Machine.source_inputs m1)
    (Ccs.Machine.source_inputs m2);
  Alcotest.(check bool) "per-entity attribution identical" true
    (Ccs.Counters.dump c1 = Ccs.Counters.dump c2);
  Sys.remove path

let save_ckpt_file () =
  let g, plan = setup () in
  let m = machine_for g plan in
  plan.Ccs.Plan.drive m ~target_outputs:10;
  let path = temp_path () in
  Ccs.Checkpoint.save ~path (Ccs.Checkpoint.capture ~plan_name:"p" ~epoch:1 m);
  path

let expect_code expected = function
  | Ok _ -> Alcotest.fail ("damaged checkpoint accepted (want " ^ expected ^ ")")
  | Error e -> Alcotest.(check string) "error code" expected (E.code e)

let with_bytes path f =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string s in
  f b;
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_corrupt_bit_flip () =
  let path = save_ckpt_file () in
  (* Flip one payload byte: the checksum must catch it. *)
  with_bytes path (fun b ->
      let i = Bytes.length b - 3 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40)));
  expect_code "checkpoint-corrupt" (Ccs.Checkpoint.load ~path ());
  Sys.remove path

let test_truncated_file () =
  let path = save_ckpt_file () in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub s 0 (String.length s / 2));
  close_out oc;
  expect_code "checkpoint-corrupt" (Ccs.Checkpoint.load ~path ());
  Sys.remove path

let test_bad_magic () =
  let path = save_ckpt_file () in
  with_bytes path (fun b -> Bytes.blit_string "NOTCKPT!" 0 b 0 8);
  expect_code "checkpoint-corrupt" (Ccs.Checkpoint.load ~path ());
  Sys.remove path

let test_version_skew () =
  (* A well-formed frame with a future version must be refused with the
     versions named, not parsed on hope. *)
  let path = temp_path () in
  Ccs.Binio.write_file ~path ~magic:Ccs.Checkpoint.magic ~version:99 "payload";
  (match Ccs.Checkpoint.load ~path () with
  | Error (E.Checkpoint_version { found; expected; _ }) ->
      Alcotest.(check int) "found" 99 found;
      Alcotest.(check int) "expected" Ccs.Checkpoint.version expected
  | r -> expect_code "checkpoint-version" r);
  Sys.remove path

let test_graph_mismatch () =
  let path = save_ckpt_file () in
  let g2 = Ccs.Generators.uniform_pipeline ~n:4 ~state:16 () in
  let cfg = Ccs.Config.make ~cache_words:256 ~block_words:16 () in
  let choice = Ccs.Auto.plan ~dynamic:false g2 cfg in
  let m2 = machine_for g2 choice.Ccs.Auto.plan in
  (match Ccs.Checkpoint.load_into ~path m2 with
  | Error (E.Checkpoint_mismatch { field; _ }) ->
      Alcotest.(check string) "field" "graph" field
  | r -> expect_code "checkpoint-mismatch" (Result.map ignore r));
  Sys.remove path

let test_cache_config_mismatch () =
  let path = save_ckpt_file () in
  let g, plan = setup () in
  let other = Ccs.Cache.config ~size_words:512 ~block_words:16 () in
  let m2 =
    Ccs.Machine.create ~graph:g ~cache:other
      ~capacities:plan.Ccs.Plan.capacities ()
  in
  (match Ccs.Checkpoint.load_into ~path m2 with
  | Error (E.Checkpoint_mismatch { field; _ }) ->
      Alcotest.(check string) "field" "cache" field
  | r -> expect_code "checkpoint-mismatch" (Result.map ignore r));
  Sys.remove path

let test_missing_file_io_error () =
  expect_code "io" (Ccs.Checkpoint.load ~path:"/nonexistent/nope.ccsckpt" ())

let () =
  Alcotest.run "checkpoint"
    [
      ( "persistence",
        [
          Alcotest.test_case "machine persist roundtrip" `Quick
            test_machine_persist_roundtrip;
          Alcotest.test_case "machine restore shape mismatch" `Quick
            test_machine_restore_shape_mismatch;
          Alcotest.test_case "checkpoint roundtrip fields" `Quick
            test_checkpoint_roundtrip_fields;
          Alcotest.test_case "restore continues bit-identically" `Quick
            test_restore_continues_bit_identically;
        ] );
      ( "damage",
        [
          Alcotest.test_case "corrupt bit flip" `Quick test_corrupt_bit_flip;
          Alcotest.test_case "truncated file" `Quick test_truncated_file;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "version skew" `Quick test_version_skew;
          Alcotest.test_case "graph mismatch" `Quick test_graph_mismatch;
          Alcotest.test_case "cache config mismatch" `Quick
            test_cache_config_mismatch;
          Alcotest.test_case "missing file" `Quick test_missing_file_io_error;
        ] );
    ]
