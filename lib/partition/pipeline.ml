module Graph = Ccs_sdf.Graph
module Rates = Ccs_sdf.Rates
module Q = Ccs_sdf.Rational

let chain_order g =
  if not (Graph.is_pipeline g) then
    invalid_arg "Pipeline: graph is not a pipeline";
  Graph.topological_order g

(* The unique edge out of [chain.(i)] (towards [chain.(i+1)]). *)
let edge_after g chain i =
  match Graph.out_edges g chain.(i) with
  | [ e ] -> e
  | _ -> invalid_arg "Pipeline: broken chain"

let gain_minimizing_edge g analysis chain ~lo ~hi =
  if lo >= hi then
    invalid_arg "Pipeline.gain_minimizing_edge: segment has no internal edge";
  let best = ref (edge_after g chain lo) in
  for i = lo + 1 to hi - 1 do
    let e = edge_after g chain i in
    if Q.compare (Rates.edge_gain analysis e) (Rates.edge_gain analysis !best)
       < 0
    then best := e
  done;
  !best

let bandwidth_of_cuts _g analysis cuts =
  List.fold_left
    (fun acc e -> Q.add acc (Rates.edge_gain analysis e))
    Q.zero cuts

(* Partition a chain given the set of cut edges: component id increments
   after each cut.  Cut positions are found through a node -> chain-position
   index, so the cost is O(n + cuts) rather than a full chain rescan per
   cut edge (which made 10k-stage segmentations quadratic). *)
let of_cuts g chain cuts =
  let pos = Array.make (Graph.num_nodes g) (-1) in
  Array.iteri (fun i v -> pos.(v) <- i) chain;
  let cut_after = Array.make (Array.length chain) false in
  List.iter (fun e -> cut_after.(pos.(Graph.src g e)) <- true) cuts;
  let a = Array.make (Graph.num_nodes g) 0 in
  let comp = ref 0 in
  Array.iteri
    (fun i v ->
      a.(v) <- !comp;
      if cut_after.(i) then incr comp)
    chain;
  Spec.of_assignment g a

let greedy g analysis ~m =
  let chain = chain_order g in
  let n = Array.length chain in
  Array.iter
    (fun v ->
      if Graph.state g v > m then
        invalid_arg
          (Printf.sprintf "Pipeline.greedy: module %s has state %d > m=%d"
             (Graph.node_name g v) (Graph.state g v) m))
    chain;
  (* Build segments W_i: accumulate until total state exceeds 2m; if less
     than 2m state remains afterwards, fold the remainder into the current
     segment (Theorem 5's construction). *)
  let suffix_state = Array.make (n + 1) 0 in
  for i = n - 1 downto 0 do
    suffix_state.(i) <- suffix_state.(i + 1) + Graph.state g chain.(i)
  done;
  let cuts = ref [] in
  let seg_lo = ref 0 in
  let seg_state = ref 0 in
  let i = ref 0 in
  while !i < n do
    seg_state := !seg_state + Graph.state g chain.(!i);
    if !seg_state > 2 * m then begin
      if suffix_state.(!i + 1) >= 2 * m then begin
        (* Segment W = chain[seg_lo .. i] is complete; cut at its
           gain-minimizing edge. *)
        let e = gain_minimizing_edge g analysis chain ~lo:!seg_lo ~hi:!i in
        cuts := e :: !cuts;
        seg_lo := !i + 1;
        seg_state := 0
      end
      else begin
        (* Fewer than 2m remain: absorb the rest into this segment. *)
        if suffix_state.(!i + 1) > 0 then begin
          seg_state := !seg_state + suffix_state.(!i + 1);
          i := n - 1
        end;
        let e = gain_minimizing_edge g analysis chain ~lo:!seg_lo ~hi:(n - 1) in
        cuts := e :: !cuts;
        seg_lo := n;
        seg_state := 0;
        i := n (* done *)
      end
    end;
    incr i
  done;
  of_cuts g chain !cuts

let optimal_dp g analysis ~bound =
  let chain = chain_order g in
  let n = Array.length chain in
  Array.iter
    (fun v ->
      if Graph.state g v > bound then
        invalid_arg
          (Printf.sprintf
             "Pipeline.optimal_dp: module %s has state %d > bound=%d"
             (Graph.node_name g v) (Graph.state g v) bound))
    chain;
  (* dp.(i) = minimum total cut weight for partitioning chain[0..i-1] into
     segments of state <= bound, max_int if there is none; cutting before
     position j (j > 0) costs the period weight [repetition (src e) *
     push e] of the edge e = chain[j-1] -> chain[j], a fixed positive
     multiple of its gain, so integer sums order segmentations exactly as
     their rational bandwidths do. *)
  let rep = analysis.Rates.repetition in
  let state = Array.map (Graph.state g) chain in
  let cut =
    Array.init n (fun j ->
        if j = 0 then 0
        else
          let e = edge_after g chain (j - 1) in
          rep.(Graph.src g e) * Graph.push g e)
  in
  let dp = Array.make (n + 1) max_int in
  let choice = Array.make (n + 1) (-1) in
  dp.(0) <- 0;
  for i = 1 to n do
    (* Last segment is chain[j .. i-1]; iterate j from i-1 down while the
       segment still fits.  The strict [<] keeps the latest-starting
       segment among equal costs. *)
    let seg_state = ref 0 in
    let j = ref (i - 1) in
    while !j >= 0 && !seg_state + state.(!j) <= bound do
      seg_state := !seg_state + state.(!j);
      if dp.(!j) < max_int then begin
        let c = dp.(!j) + cut.(!j) in
        if c < dp.(i) then begin
          dp.(i) <- c;
          choice.(i) <- !j
        end
      end;
      decr j
    done
  done;
  if dp.(n) = max_int then
    invalid_arg "Pipeline.optimal_dp: no feasible segmentation";
  (* Reconstruct cuts. *)
  let cuts = ref [] in
  let pos = ref n in
  while !pos > 0 do
    let j = choice.(!pos) in
    if j > 0 then cuts := edge_after g chain (j - 1) :: !cuts;
    pos := j
  done;
  of_cuts g chain !cuts
