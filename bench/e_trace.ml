(* E18: the mechanism, exposed — reuse-distance profiles of the partitioned
   versus naive schedules.  An LRU cache of C blocks hits exactly the
   accesses with reuse distance < C, so these histograms ARE the miss
   curves for all cache sizes at once: partitioning moves access mass from
   footprint-scale distances down below M/B. *)

module G = Ccs.Graph
module R = Ccs.Rates
module T = Ccs.Trace_analysis
open Util

let capture g plan ~m ~b =
  let _, machine =
    ok_exn
      (Ccs.Runner.run ~record_trace:true ~graph:g
         ~cache:(Ccs.Cache.config ~size_words:m ~block_words:b ())
         ~plan ~outputs:2000 ())
  in
  Ccs.Cache.Opt.block_trace ~block_words:b (Ccs.Machine.trace machine)

let e18 () =
  section "E18-reuse-profile" "reuse-distance mass: partitioned vs naive";
  let g = Ccs.Generators.uniform_pipeline ~n:16 ~state:64 () in
  let a = R.analyze_exn g in
  let m = 256 and b = 16 in
  let spec = fitting_partition ~b g ~m in
  let part_trace = capture g (Ccs.Partitioned.batch g a spec ~t:m) ~m ~b in
  let naive_trace = capture g (Ccs.Baseline.round_robin g a) ~m ~b in
  let part_d = T.reuse_distances part_trace in
  let naive_d = T.reuse_distances naive_trace in
  note "cache capacity M/B = %d blocks; graph footprint = %d blocks" (m / b)
    ((G.total_state g / b) + 8);
  let buckets = [| 4; 16; 64; 256; 1024 |] in
  let ph = T.histogram ~buckets part_d and nh = T.histogram ~buckets naive_d in
  let rows =
    List.map2
      (fun (label, pc) (_, nc) ->
        [
          label;
          f (100. *. float_of_int pc /. float_of_int (Array.length part_d));
          f (100. *. float_of_int nc /. float_of_int (Array.length naive_d));
        ])
      ph nh
  in
  Ccs.Table.print
    ~header:[ "reuse distance"; "partitioned %"; "naive %" ]
    ~rows;
  (* Miss curves from the same distances. *)
  let caps = [ 4; 8; 16; 32; 64; 128 ] in
  let pc = T.miss_curve ~distances:part_d ~capacities:caps in
  let nc = T.miss_curve ~distances:naive_d ~capacities:caps in
  let curve_rows =
    List.map2
      (fun (c, pm) (_, nm) ->
        if Json.enabled () then
          Json.point
            [
              ("kind", Json.String "miss_curve");
              ("graph", Json.String (G.name g));
              ("capacity_blocks", Json.Int c);
              ("b", Json.Int b);
              ( "partitioned_miss_rate",
                Json.Float
                  (float_of_int pm /. float_of_int (Array.length part_d)) );
              ( "naive_miss_rate",
                Json.Float
                  (float_of_int nm /. float_of_int (Array.length naive_d)) );
            ];
        [
          Printf.sprintf "%d blocks (%dw)" c (c * b);
          f (float_of_int pm /. float_of_int (Array.length part_d));
          f (float_of_int nm /. float_of_int (Array.length naive_d));
        ])
      pc nc
  in
  Ccs.Table.print
    ~header:[ "LRU capacity"; "partitioned miss rate"; "naive miss rate" ]
    ~rows:curve_rows;
  (* Working sets. *)
  let ws_rows =
    let pws = T.working_set_curve ~trace:part_trace ~windows:[ 100; 1000; 10000 ] in
    let nws = T.working_set_curve ~trace:naive_trace ~windows:[ 100; 1000; 10000 ] in
    List.map2
      (fun (w, p) (_, n) -> [ string_of_int w; f p; f n ])
      pws nws
  in
  Ccs.Table.print
    ~header:[ "window (accesses)"; "partitioned WS (blocks)"; "naive WS" ]
    ~rows:ws_rows;
  note
    "expect: partitioned mass below M/B and a miss-rate knee at the \
     component size; naive mass at footprint scale with a flat high curve"
