(* Tests for the application suite: every app must satisfy the library's
   structural requirements and have the topology its description claims. *)

module G = Ccs.Graph
module R = Ccs.Rates
module Q = Ccs.Rational

let q = Alcotest.testable (fun fmt x -> Q.pp fmt x) Q.equal

let test_all_valid () =
  List.iter
    (fun entry ->
      let g = entry.Ccs_apps.Suite.graph () in
      let name = entry.Ccs_apps.Suite.name in
      Alcotest.(check bool) (name ^ " connected") true (G.is_connected g);
      Alcotest.(check bool) (name ^ " rate matched") true
        (Sdf_oracle.is_rate_matched g);
      Alcotest.(check int) (name ^ " one source") 1 (List.length (G.sources g));
      Alcotest.(check int) (name ^ " one sink") 1 (List.length (G.sinks g)))
    Ccs_apps.Suite.all

let test_registry () =
  Alcotest.(check int) "twelve apps" 12 (List.length Ccs_apps.Suite.all);
  Alcotest.(check bool) "find fm-radio" true
    (Ccs_apps.Suite.find "fm-radio" <> None);
  Alcotest.(check bool) "find missing" true (Ccs_apps.Suite.find "nope" = None);
  Alcotest.(check int) "names" 12 (List.length Ccs_apps.Suite.names)

let test_scaled_variants_valid () =
  List.iter
    (fun entry ->
      let g = entry.Ccs_apps.Suite.scaled 4 in
      Alcotest.(check bool)
        (entry.Ccs_apps.Suite.name ^ " scaled rate-matched")
        true (Sdf_oracle.is_rate_matched g);
      Alcotest.(check bool)
        (entry.Ccs_apps.Suite.name ^ " scaled grows state")
        true
        (G.total_state g > G.total_state (entry.Ccs_apps.Suite.graph ())))
    Ccs_apps.Suite.all

let test_ofdm_topology () =
  let g = Ccs_apps.Ofdm.graph ~subcarriers:8 ~fft_stages:3 () in
  let a = R.analyze_exn g in
  (* CP removal consumes symbol + 25% prefix: gain 1/10 for 8 subcarriers. *)
  let cp = G.node_of_name g "cp-remove" in
  Alcotest.check q "cp gain" (Q.make 1 10) (R.gain a cp);
  (* Viterbi halves the rate again. *)
  let vit = G.node_of_name g "viterbi" in
  Alcotest.check q "viterbi gain" (Q.make 1 20) (R.gain a vit);
  Alcotest.check_raises "mismatched stages"
    (Invalid_argument "Ofdm.graph: subcarriers must equal 2^fft_stages")
    (fun () -> ignore (Ccs_apps.Ofdm.graph ~subcarriers:8 ~fft_stages:4 ()))

let test_dct_codec_topology () =
  let g = Ccs_apps.Dct_codec.graph ~block:4 () in
  Alcotest.(check bool) "pipeline" true (G.is_pipeline g);
  let a = R.analyze_exn g in
  (* One block per 16 pixels; the packer's output edge carries 4:1
     compacted traffic (edge gain 1/4 token per input pixel). *)
  let rle = G.node_of_name g "rle-pack" in
  Alcotest.check q "rle gain" (Q.make 1 16) (R.gain a rle);
  let packed_edge = List.hd (G.out_edges g rle) in
  Alcotest.check q "packed edge gain (4:1)" (Q.make 1 4)
    (Sdf_oracle.edge_gain a packed_edge)

let test_fm_radio_topology () =
  let g = Ccs_apps.Fm_radio.graph ~bands:6 ~taps:32 ~decimation:8 () in
  (* source, lpf, demod, split, join, sink plus 6 bands *)
  Alcotest.(check int) "modules" (6 + 6) (G.num_nodes g);
  let a = R.analyze_exn g in
  (* Everything after the decimating LPF runs at 1/8 rate. *)
  let demod = G.node_of_name g "fm-demod" in
  Alcotest.check q "demod gain 1/8" (Q.make 1 8) (R.gain a demod);
  let split = G.node_of_name g "eq-split" in
  Alcotest.(check int) "split fans out" 6 (List.length (G.out_edges g split))

let test_fft_scales () =
  let small = Ccs_apps.Fft.graph ~stages:2 () in
  let big = Ccs_apps.Fft.graph ~stages:5 () in
  Alcotest.(check bool) "more stages, more modules" true
    (G.num_nodes big > 4 * G.num_nodes small);
  Alcotest.(check bool) "homogeneous" true (G.is_homogeneous big)

let test_beamformer_decimation () =
  let g = Ccs_apps.Beamformer.graph ~channels:4 ~beams:2 ~taps:8 () in
  let a = R.analyze_exn g in
  (* Channel FIRs decimate by 2, detectors by 4: the sink runs at 1/8. *)
  let sink = G.sink g in
  Alcotest.check q "sink gain" (Q.make 1 8) (R.gain a sink)

let test_filterbank_bands_balanced () =
  let g = Ccs_apps.Filterbank.graph ~bands:5 ~taps:8 () in
  let a = R.analyze_exn g in
  (* Each band analysis filter decimates by [bands]. *)
  let analysis0 = G.node_of_name g "band0-analysis" in
  Alcotest.check q "band rate" (Q.make 1 5) (R.gain a analysis0)

let test_bitonic_comparator_count () =
  let g = Ccs_apps.Bitonic.graph ~log_lanes:3 () in
  (* 8 lanes: 6 columns of 4 comparators each = 24, plus source/sink. *)
  Alcotest.(check int) "modules" (2 + 24) (G.num_nodes g);
  Alcotest.(check bool) "homogeneous" true (G.is_homogeneous g)

let test_des_is_pipeline () =
  let g = Ccs_apps.Des.graph ~rounds:4 () in
  Alcotest.(check bool) "pipeline" true (G.is_pipeline g);
  (* src, ip, 4*(expand,sbox,perm), fp, sink *)
  Alcotest.(check int) "modules" (4 + (4 * 3)) (G.num_nodes g);
  (* S-boxes dominate the state. *)
  let sbox = G.node_of_name g "r1-sbox" in
  Alcotest.(check int) "sbox state" 512 (G.state g sbox)

let test_vocoder_mixed_rates () =
  let g = Ccs_apps.Vocoder.graph ~channels:4 ~taps:8 () in
  let a = R.analyze_exn g in
  let pitch = G.node_of_name g "pitch-detector" in
  let synth = G.node_of_name g "synthesis" in
  Alcotest.check q "pitch at frame rate" (Q.make 1 4) (R.gain a pitch);
  Alcotest.check q "synthesis at frame rate" (Q.make 1 4) (R.gain a synth)

let test_matmul_coarse_rates () =
  let g = Ccs_apps.Matmul.graph ~n:4 () in
  let a = R.analyze_exn g in
  let gather = G.node_of_name g "block-gather" in
  Alcotest.check q "one block per 16 elements" (Q.make 1 16) (R.gain a gather);
  Alcotest.(check bool) "pipeline" true (G.is_pipeline g)

let test_radar_cfar_rate () =
  let g = Ccs_apps.Radar.graph ~antennas:2 ~taps:8 ~fft_stages:2 () in
  let a = R.analyze_exn g in
  let cfar = G.node_of_name g "cfar-detect" in
  Alcotest.check q "cfar decimates by 8" (Q.make 1 8) (R.gain a cfar)

let test_mp3_granule_rates () =
  let g = Ccs_apps.Mp3.graph ~bands:16 () in
  let a = R.analyze_exn g in
  let huff = G.node_of_name g "huffman-decode" in
  Alcotest.check q "granule rate" (Q.make 1 16) (R.gain a huff);
  (* Each imdct handles one band's sample per granule. *)
  let imdct = G.node_of_name g "imdct-3" in
  Alcotest.check q "imdct rate" (Q.make 1 16) (R.gain a imdct)

let test_state_scaling_knobs () =
  let small = Ccs_apps.Des.graph ~rounds:4 ~sbox_words:64 () in
  let big = Ccs_apps.Des.graph ~rounds:4 ~sbox_words:1024 () in
  Alcotest.(check bool) "sbox knob scales state" true
    (G.total_state big > 4 * G.total_state small)

let () =
  Alcotest.run "apps"
    [
      ( "unit",
        [
          Alcotest.test_case "all valid" `Quick test_all_valid;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "scaled variants" `Quick test_scaled_variants_valid;
          Alcotest.test_case "ofdm topology" `Quick test_ofdm_topology;
          Alcotest.test_case "dct-codec topology" `Quick test_dct_codec_topology;
          Alcotest.test_case "fm-radio topology" `Quick test_fm_radio_topology;
          Alcotest.test_case "fft scales" `Quick test_fft_scales;
          Alcotest.test_case "beamformer decimation" `Quick
            test_beamformer_decimation;
          Alcotest.test_case "filterbank balanced" `Quick
            test_filterbank_bands_balanced;
          Alcotest.test_case "bitonic comparators" `Quick
            test_bitonic_comparator_count;
          Alcotest.test_case "des pipeline" `Quick test_des_is_pipeline;
          Alcotest.test_case "vocoder rates" `Quick test_vocoder_mixed_rates;
          Alcotest.test_case "matmul rates" `Quick test_matmul_coarse_rates;
          Alcotest.test_case "radar cfar" `Quick test_radar_cfar_rate;
          Alcotest.test_case "mp3 granules" `Quick test_mp3_granule_rates;
          Alcotest.test_case "state knobs" `Quick test_state_scaling_knobs;
        ] );
    ]
