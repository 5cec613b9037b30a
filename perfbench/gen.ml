(* Random input graphs for the plan-scale workload, drawn from a given
   random state.  The draw decides edges and the order of state sizes;
   node counts, edge counts, the multiset of state sizes and the rate
   profile are fixed by the arguments. *)

module B = Ccs.Graph.Builder

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [n] state sizes in [8, 96], a fixed multiset in seeded order. *)
let states rng n =
  let a = Array.init n (fun k -> 8 + (k * 37 mod 89)) in
  shuffle rng a;
  a

let unit_edge b src dst = ignore (B.add_channel b ~src ~dst ~push:1 ~pop:1 ())

(* [layers] x [width] grid between a source and a sink.  Between two
   layers a random perfect matching gives every node a successor and a
   predecessor, and each lower node then takes [fan - 1] more distinct
   predecessors, so every seed has exactly [width * fan] edges per gap. *)
let layered rng ~name ~layers ~width ~fan =
  let b = B.create ~name () in
  let st = states rng (layers * width) in
  let source = B.add_module b ~state:1 "source" in
  let grid =
    Array.init layers (fun l ->
        Array.init width (fun w ->
            B.add_module b ~state:st.((l * width) + w)
              (Printf.sprintf "n%d_%d" l w)))
  in
  let sink = B.add_module b ~state:1 "sink" in
  Array.iter (unit_edge b source) grid.(0);
  Array.iter (fun v -> unit_edge b v sink) grid.(layers - 1);
  for l = 0 to layers - 2 do
    let perm = Array.init width Fun.id in
    shuffle rng perm;
    for j = 0 to width - 1 do
      let preds = Array.make width false in
      preds.(perm.(j)) <- true;
      let need = ref (min width fan - 1) in
      while !need > 0 do
        let i = Random.State.int rng width in
        if not preds.(i) then begin
          preds.(i) <- true;
          decr need
        end
      done;
      Array.iteri (fun i p -> if p then unit_edge b grid.(l).(i) grid.(l + 1).(j)) preds
    done
  done;
  B.build b

(* [n] modules in index order, each fed by [fan] distinct earlier modules
   at most [window] positions back (the source feeds the first ones);
   modules no later module reads drain into the sink. *)
let random_dag rng ~name ~n ~fan ~window =
  let b = B.create ~name () in
  let st = states rng n in
  let source = B.add_module b ~state:1 "source" in
  let v = Array.init n (fun i -> B.add_module b ~state:st.(i) (Printf.sprintf "m%d" i)) in
  let sink = B.add_module b ~state:1 "sink" in
  let has_succ = Array.make n false in
  for i = 0 to n - 1 do
    let lo = max 0 (i - window) in
    let avail = i - lo in
    if avail = 0 then unit_edge b source v.(i)
    else begin
      let cand = Array.init avail (fun k -> lo + k) in
      shuffle rng cand;
      for k = 0 to min fan avail - 1 do
        unit_edge b v.(cand.(k)) v.(i);
        has_succ.(cand.(k)) <- true
      done
    end
  done;
  Array.iteri (fun i s -> if not s then unit_edge b v.(i) sink) has_succ;
  B.build b

(* A chain of [n] modules with unit rates and seeded states. *)
let uniform_chain rng ~name ~n =
  let st = states rng n in
  Ccs.Generators.pipeline ~name ~n ~state:(fun i -> st.(i)) ~rates:(fun _ -> (1, 1)) ()

(* A chain whose first [depth] channels downsample by 2 and 3 in turn and
   whose last [depth] upsample back, so the source fires 6^(depth/2)
   times per period and minimum-buffer sizing walks that whole period. *)
let multirate_chain rng ~name ~n ~depth =
  let st = states rng n in
  let factor k = if k mod 2 = 0 then 2 else 3 in
  let rates i =
    if i < depth then (1, factor i)
    else if i >= n - 1 - depth then (factor (n - 2 - i), 1)
    else (1, 1)
  in
  Ccs.Generators.pipeline ~name ~n ~state:(fun i -> st.(i)) ~rates ()
