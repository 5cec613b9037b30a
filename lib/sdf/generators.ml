module B = Graph.Builder
module Q = Rational

let pipeline ?(name = "pipeline") ~n ~state ~rates () =
  if n < 1 then invalid_arg "Generators.pipeline: n must be >= 1";
  let b = B.create ~name () in
  let ids =
    Array.init n (fun i ->
        B.add_module b ~state:(state i) (Printf.sprintf "m%d" i))
  in
  for i = 0 to n - 2 do
    let push, pop = rates i in
    ignore (B.add_channel b ~src:ids.(i) ~dst:ids.(i + 1) ~push ~pop ())
  done;
  B.build b

let uniform_pipeline ?(name = "uniform-pipeline") ~n ~state () =
  pipeline ~name ~n ~state:(fun _ -> state) ~rates:(fun _ -> (1, 1)) ()

let random_pipeline ?(name = "random-pipeline") ~seed ~n ~max_state ~max_rate
    () =
  let rng = Random.State.make [| seed |] in
  let rand k = 1 + Random.State.int rng k in
  pipeline ~name ~n
    ~state:(fun _ -> rand max_state)
    ~rates:(fun _ -> (rand max_rate, rand max_rate))
    ()

let layered ?(name = "layered") ~seed ~layers ~width ~state ~edge_prob () =
  if layers < 1 || width < 1 then
    invalid_arg "Generators.layered: layers and width must be >= 1";
  let rng = Random.State.make [| seed |] in
  let b = B.create ~name () in
  let source = B.add_module b ~state:1 "source" in
  let counter = ref 0 in
  let grid =
    Array.init layers (fun l ->
        Array.init width (fun w ->
            let k = !counter in
            incr counter;
            B.add_module b ~state:(state k) (Printf.sprintf "n%d_%d" l w)))
  in
  let sink = B.add_module b ~state:1 "sink" in
  let unit_edge src dst = ignore (B.add_channel b ~src ~dst ~push:1 ~pop:1 ()) in
  Array.iter (fun v -> unit_edge source v) grid.(0);
  for l = 0 to layers - 2 do
    let has_succ = Array.make width false in
    let has_pred = Array.make width false in
    for i = 0 to width - 1 do
      for j = 0 to width - 1 do
        if Random.State.float rng 1.0 < edge_prob then begin
          unit_edge grid.(l).(i) grid.(l + 1).(j);
          has_succ.(i) <- true;
          has_pred.(j) <- true
        end
      done
    done;
    (* Enforce connectivity: every node keeps the stream flowing. *)
    for i = 0 to width - 1 do
      if not has_succ.(i) then begin
        let j = Random.State.int rng width in
        unit_edge grid.(l).(i) grid.(l + 1).(j);
        has_pred.(j) <- true
      end
    done;
    for j = 0 to width - 1 do
      if not has_pred.(j) then
        unit_edge grid.(l).(Random.State.int rng width) grid.(l + 1).(j)
    done
  done;
  Array.iter (fun v -> unit_edge v sink) grid.(layers - 1);
  B.build b

let split_join ?(name = "split-join") ~branches ~depth ~state () =
  if branches < 1 || depth < 1 then
    invalid_arg "Generators.split_join: branches and depth must be >= 1";
  let b = B.create ~name () in
  let source = B.add_module b ~state:1 "source" in
  let split = B.add_module b ~state "split" in
  let unit_edge src dst = ignore (B.add_channel b ~src ~dst ~push:1 ~pop:1 ()) in
  unit_edge source split;
  let tails =
    List.init branches (fun br ->
        let rec chain prev d =
          if d = 0 then prev
          else begin
            let v =
              B.add_module b ~state (Printf.sprintf "b%d_%d" br (depth - d))
            in
            unit_edge prev v;
            chain v (d - 1)
          end
        in
        chain split depth)
  in
  let join = B.add_module b ~state "join" in
  List.iter (fun v -> unit_edge v join) tails;
  let sink = B.add_module b ~state:1 "sink" in
  unit_edge join sink;
  B.build b

let butterfly ?(name = "butterfly") ~stages ~state () =
  if stages < 1 then invalid_arg "Generators.butterfly: stages must be >= 1";
  let lanes = 1 lsl stages in
  let b = B.create ~name () in
  let source = B.add_module b ~state:1 "source" in
  let unit_edge src dst = ignore (B.add_channel b ~src ~dst ~push:1 ~pop:1 ()) in
  let stage_nodes st =
    Array.init lanes (fun l ->
        B.add_module b ~state (Printf.sprintf "s%d_%d" st l))
  in
  let first = stage_nodes 0 in
  Array.iter (fun v -> unit_edge source v) first;
  let last =
    let rec go prev st =
      if st > stages then prev
      else begin
        let cur = stage_nodes st in
        let stride = 1 lsl (st - 1) in
        for l = 0 to lanes - 1 do
          unit_edge prev.(l) cur.(l);
          unit_edge prev.(l) cur.(l lxor stride)
        done;
        go cur (st + 1)
      end
    in
    go first 1
  in
  let sink = B.add_module b ~state:1 "sink" in
  Array.iter (fun v -> unit_edge v sink) last;
  B.build b

let binary_tree ?(name = "binary-tree") ~depth ~state ~reduce () =
  if depth < 1 then invalid_arg "Generators.binary_tree: depth must be >= 1";
  let b = B.create ~name () in
  let unit_edge src dst = ignore (B.add_channel b ~src ~dst ~push:1 ~pop:1 ()) in
  let source = B.add_module b ~state:1 "source" in
  if reduce then begin
    (* Leaves fed by the source; internal nodes join pairs; root to sink. *)
    let rec level d =
      let count = 1 lsl d in
      let nodes =
        Array.init count (fun i ->
            B.add_module b ~state (Printf.sprintf "r%d_%d" d i))
      in
      if d = depth - 1 then Array.iter (fun v -> unit_edge source v) nodes
      else begin
        let children = level (d + 1) in
        Array.iteri
          (fun i v ->
            unit_edge children.(2 * i) v;
            unit_edge children.((2 * i) + 1) v)
          nodes
      end;
      nodes
    in
    let root = level 0 in
    let sink = B.add_module b ~state:1 "sink" in
    unit_edge root.(0) sink;
    B.build b
  end
  else begin
    (* Source to root; internal nodes fan out; leaves gathered by sink. *)
    let rec level d parents =
      if d >= depth then parents
      else begin
        let nodes =
          Array.init
            (1 lsl d)
            (fun i -> B.add_module b ~state (Printf.sprintf "e%d_%d" d i))
        in
        (match parents with
        | [| p |] when d = 0 -> unit_edge p nodes.(0)
        | _ ->
            Array.iteri
              (fun i v -> unit_edge parents.(i / 2) v)
              nodes);
        level (d + 1) nodes
      end
    in
    let leaves = level 0 [| source |] in
    let sink = B.add_module b ~state:1 "sink" in
    Array.iter (fun v -> unit_edge v sink) leaves;
    B.build b
  end

(* Gains drawn from a small set keep every edge's reduced rate fraction
   small, which keeps repetition vectors (and hence test periods) small. *)
let gain_choices =
  [| Q.one; Q.of_int 2; Q.make 1 2; Q.of_int 3; Q.make 1 3; Q.make 2 3;
     Q.make 3 2 |]

let random_sdf_dag ?(name = "random-sdf") ~seed ~n ~max_state ~max_rate
    ~extra_edges () =
  if n < 2 then invalid_arg "Generators.random_sdf_dag: n must be >= 2";
  let rng = Random.State.make [| seed |] in
  let rand k = 1 + Random.State.int rng k in
  let b = B.create ~name () in
  let gains = Array.make n Q.one in
  for i = 1 to n - 1 do
    gains.(i) <-
      (if i = n - 1 then Q.one
       else gain_choices.(Random.State.int rng (Array.length gain_choices)))
  done;
  let ids =
    Array.init n (fun i ->
        let nm =
          if i = 0 then "source"
          else if i = n - 1 then "sink"
          else Printf.sprintf "m%d" i
        in
        B.add_module b ~state:(rand max_state) nm)
  in
  let add_edge u v =
    let r = Q.div gains.(v) gains.(u) in
    let scale = 1 + Random.State.int rng (Stdlib.max 1 (max_rate / 2)) in
    ignore
      (B.add_channel b ~src:ids.(u) ~dst:ids.(v) ~push:(Q.num r * scale)
         ~pop:(Q.den r * scale) ())
  in
  for i = 1 to n - 1 do
    add_edge (i - 1) i
  done;
  let attempts = ref 0 in
  let added = ref 0 in
  while !added < extra_edges && !attempts < extra_edges * 10 do
    incr attempts;
    let u = Random.State.int rng (n - 2) in
    let v = u + 2 + Random.State.int rng (Stdlib.max 1 (n - u - 2)) in
    if v < n then begin
      let r = Q.div gains.(v) gains.(u) in
      if Q.num r <= max_rate && Q.den r <= max_rate then begin
        add_edge u v;
        incr added
      end
    end
  done;
  B.build b

let up_down_sampler ?(name = "up-down") ~stages ~factor ~state () =
  if stages < 1 || factor < 1 then
    invalid_arg "Generators.up_down_sampler: stages and factor must be >= 1";
  (* Chain: src, (up, down) * stages, sink.  The upsampler at index 2s-1
     produces [factor] tokens per firing and the downsampler at index 2s
     consumes all [factor] of them per firing, so every module keeps unit
     gain while [factor] tokens are in flight between each pair. *)
  let n = 2 + (2 * stages) in
  pipeline ~name ~n
    ~state:(fun _ -> state)
    ~rates:(fun i -> if i mod 2 = 1 then (factor, factor) else (1, 1))
    ()
