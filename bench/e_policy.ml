(* Cache-model experiments: E13 (replacement-policy sensitivity — the
   paper's results are stated for an ideal cache; how much do realistic
   policies change the picture?) and E14 (LRU vs Belady's OPT on recorded
   traces — the justification for substituting LRU for the ideal cache). *)

module G = Ccs.Graph
module R = Ccs.Rates
open Util

(* E13: rerun the partitioned schedule under fully-associative LRU,
   8-way/2-way set-associative, and direct-mapped caches of the same size.
   Expected: the partitioned schedule is robust under associativity
   (working sets are compact and streaming), with direct-mapped showing
   some conflict noise; the *ranking* versus naive never changes. *)
let e13 () =
  section "E13-policy" "replacement-policy sensitivity";
  let g = Ccs.Generators.uniform_pipeline ~n:32 ~state:64 () in
  let a = R.analyze_exn g in
  let m = 512 and b = 16 in
  let spec = fitting_partition ~b g ~m in
  let policies =
    [
      ("lru", Ccs.Cache.Lru);
      ("8-way", Ccs.Cache.Set_associative 8);
      ("2-way", Ccs.Cache.Set_associative 2);
      ("direct", Ccs.Cache.Direct_mapped);
    ]
  in
  let rows =
    List.map
      (fun (name, policy) ->
        let cache =
          Ccs.Cache.config ~policy ~size_words:m ~block_words:b ()
        in
        let part =
          run_mpi g cache (Ccs.Partitioned.batch g a spec ~t:m) 4096
        in
        let naive = run_mpi g cache (Ccs.Baseline.round_robin g a) 4096 in
        [ name; f part; f naive; f (ratio naive part) ])
      policies
  in
  Ccs.Table.print ~header:[ "policy"; "partitioned"; "naive"; "naive/part" ] ~rows;
  note
    "expect: partitioned unchanged down to 8-way; low associativity adds \
     conflict misses (state and stream blocks collide) yet the ranking \
     against naive never flips"

(* E14: record the partitioned schedule's block trace and replay it under
   Belady's clairvoyant OPT at the same capacity.  Expected: LRU within a
   small factor of OPT on these traces (they are mostly streaming +
   looping), validating the LRU-for-ideal substitution the reproduction
   makes. *)
let e14 () =
  section "E14-lru-vs-opt" "LRU against clairvoyant OPT on recorded traces";
  let b = 16 in
  let rows =
    List.map
      (fun (name, g, m) ->
        let a = R.analyze_exn g in
        let spec = fitting_partition ~b g ~m in
        let t = R.granularity g a ~at_least:m in
        let plan = Ccs.Partitioned.batch g a spec ~t in
        let _, machine =
          ok_exn
            (Ccs.Runner.run ~record_trace:true ~graph:g
               ~cache:(Ccs.Cache.config ~size_words:m ~block_words:b ())
               ~plan ~outputs:1000 ())
        in
        let lru = Ccs.Machine.misses machine in
        let blocks =
          Ccs.Cache.Opt.block_trace ~block_words:b (Ccs.Machine.trace machine)
        in
        let opt = Ccs.Cache.Opt.misses ~block_capacity:(m / b) blocks in
        if Json.enabled () then
          Json.point
            [
              ("kind", Json.String "opt_vs_lru");
              ("workload", Json.String name);
              ("m", Json.Int m);
              ("b", Json.Int b);
              ("accesses", Json.Int (Array.length blocks));
              ("opt_misses", Json.Int opt);
              ("lru_misses", Json.Int lru);
            ];
        [
          name;
          string_of_int (Array.length blocks);
          string_of_int opt;
          string_of_int lru;
          f (ratio (float_of_int lru) (float_of_int opt));
        ])
      [
        ("pipeline 16x64w", Ccs.Generators.uniform_pipeline ~n:16 ~state:64 (), 256);
        ("split-join 4x4", Ccs.Generators.split_join ~branches:4 ~depth:4 ~state:48 (), 256);
        ("des", Ccs_apps.Des.graph (), 2048);
        ("vocoder", Ccs_apps.Vocoder.graph (), 2048);
      ]
  in
  Ccs.Table.print
    ~header:[ "workload"; "accesses"; "OPT misses"; "LRU misses"; "LRU/OPT" ]
    ~rows;
  note "expect: LRU/OPT a small constant (<= 2, usually ~1) on these traces"

let all () =
  e13 ();
  e14 ()
