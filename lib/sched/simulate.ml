module Graph = Ccs_sdf.Graph
module Error = Ccs_sdf.Error

(* Certification from per-subtree channel summaries; no firing is
   enumerated.  A subtree is summarised, once, by its effect on each
   channel it touches, counted from the tokens the channel holds when the
   subtree starts:

   - [d]: the net change;
   - [lo]: the lowest count right after one of its pops ([no_pop] when it
     never pops the channel);
   - [hi]: the highest count right after one of its pushes ([no_push] when
     it never pushes the channel).

   Entered with [t] tokens on a channel of capacity [cap], the subtree
   keeps that channel legal exactly when [t + lo >= 0] and
   [t + hi <= cap]: underflow is checked after pops and overflow after
   pushes, as a firing-by-firing walk checks them.  [Seq] composes its
   children left to right; [Repeat (k, body)] changes a channel by [k·d]
   and reaches its lowest and highest counts in iteration 0 or [k-1].

   A legal walk keeps every count within [0, max_int], so a legal
   subtree's [d], [lo] and [hi] lie in [-max_int, max_int].  A value
   outside that range proves the subtree illegal from any start: summing
   raises [Out_of_range], and the descent below finds the witness. *)

let no_pop = max_int
let no_push = min_int

exception Out_of_range

(* Sum of two values in [-max_int, max_int], or [Out_of_range]. *)
let add a b =
  let s = a + b in
  if (a >= 0 && b >= 0 && s < 0) || (a < 0 && b < 0 && s >= 0) || s = min_int
  then raise_notrace Out_of_range
  else s

(* [k·d] for [k >= 0] and [d] in [-max_int, max_int], or [Out_of_range]. *)
let mul k d =
  if k <> 0 && abs d > max_int / k then raise_notrace Out_of_range else k * d

type summary = {
  edges : int array;  (** The channels touched, each once. *)
  d : int array;
  lo : int array;
  hi : int array;
}

let empty = { edges = [||]; d = [||]; lo = [||]; hi = [||] }

type ctx = {
  g : Graph.t;
  cap : int array;
  leaf : summary array;
      (** One firing of each module: its inputs in {!Graph.in_edges}
          order, then its outputs in {!Graph.out_edges} order. *)
  (* Working arrays for composing a [Seq], indexed by channel. *)
  mark : int array;
  mutable stamp : int;
  order : int array;
  sd : int array;
  slo : int array;
  shi : int array;
}

let context g ~capacities =
  let m = Graph.num_edges g in
  let leaf v =
    (* Graphs have no self-loops, so a firing pops and pushes distinct
       channels. *)
    let ins = Array.of_list (Graph.in_edges g v)
    and outs = Array.of_list (Graph.out_edges g v) in
    let popped = Array.map (fun e -> -Graph.pop g e) ins
    and pushed = Array.map (Graph.push g) outs in
    {
      edges = Array.append ins outs;
      d = Array.append popped pushed;
      lo = Array.append popped (Array.make (Array.length outs) no_pop);
      hi = Array.append (Array.make (Array.length ins) no_push) pushed;
    }
  in
  {
    g;
    cap = capacities;
    leaf = Array.init (Graph.num_nodes g) leaf;
    mark = Array.make m 0;
    stamp = 0;
    order = Array.make m 0;
    sd = Array.make m 0;
    slo = Array.make m 0;
    shi = Array.make m 0;
  }

let seq c parts =
  match parts with
  | [] -> empty
  | [ s ] -> s
  | _ ->
      c.stamp <- c.stamp + 1;
      let n = ref 0 in
      List.iter
        (fun s ->
          Array.iteri
            (fun j e ->
              if c.mark.(e) <> c.stamp then begin
                c.mark.(e) <- c.stamp;
                c.order.(!n) <- e;
                incr n;
                c.sd.(e) <- s.d.(j);
                c.slo.(e) <- s.lo.(j);
                c.shi.(e) <- s.hi.(j)
              end
              else begin
                let before = c.sd.(e) in
                (if s.lo.(j) <> no_pop then
                   let x = add before s.lo.(j) in
                   if x < c.slo.(e) then c.slo.(e) <- x);
                (if s.hi.(j) <> no_push then
                   let x = add before s.hi.(j) in
                   if x > c.shi.(e) then c.shi.(e) <- x);
                c.sd.(e) <- add before s.d.(j)
              end)
            s.edges)
        parts;
      let edges = Array.sub c.order 0 !n in
      {
        edges;
        d = Array.map (fun e -> c.sd.(e)) edges;
        lo = Array.map (fun e -> c.slo.(e)) edges;
        hi = Array.map (fun e -> c.shi.(e)) edges;
      }

let repeat k s =
  {
    edges = s.edges;
    d = Array.map (mul k) s.d;
    lo =
      Array.mapi
        (fun j lo ->
          if lo = no_pop then lo else add lo (mul (k - 1) (min 0 s.d.(j))))
        s.lo;
    hi =
      Array.mapi
        (fun j hi ->
          if hi = no_push then hi else add hi (mul (k - 1) (max 0 s.d.(j))))
        s.hi;
  }

let rec summary c = function
  | Schedule.Fire v -> c.leaf.(v)
  | Seq l -> seq c (List.map (summary c) l)
  | Repeat (0, _) -> empty
  | Repeat (1, body) -> summary c body
  | Repeat (k, body) -> repeat k (summary c body)

(* Whether [t] tokens plus [hi] exceed [cap], without overflowing: [t] is
   a count in [0, max_int] and [hi] a pushed prefix in range. *)
let exceeds t hi cap = (hi > 0 && t > max_int - hi) || t + hi > cap

(* The bound that the subtree summarised by [s], entered with the counts
   [tok], breaks on its [j]-th channel, if any. *)
let broken c tok s j =
  let e = s.edges.(j) in
  if s.lo.(j) < -tok.(e) then Some `Underflow
  else if s.hi.(j) <> no_push && exceeds tok.(e) s.hi.(j) c.cap.(e) then
    Some `Overflow
  else None

let breaks c tok s =
  let rec from j =
    j < Array.length s.edges && (broken c tok s j <> None || from (j + 1))
  in
  from 0

(* The first iteration of [Repeat (k, body)] that breaks a bound, [body]
   summarised by [s] and entered with the counts [tok]: iteration [i]
   starts from [tok + i·d], so past iteration 0 a channel can only run
   out ([d < 0], which implies [lo <= d]) or fill up ([d > 0], which
   implies [hi >= d]), and the iteration where it does follows by
   division.  [k] when none does. *)
let first_bad_iteration c tok s ~k =
  let first = ref k in
  Array.iteri
    (fun j e ->
      let t = tok.(e) and d = s.d.(j) in
      if broken c tok s j <> None then first := 0
      else if d < 0 then first := min !first (((t + s.lo.(j)) / -d) + 1)
      else if d > 0 then
        first := min !first (((c.cap.(e) - (t + s.hi.(j))) / d) + 1))
    s.edges;
  !first

let advance tok s ~times =
  Array.iteri (fun j e -> tok.(e) <- tok.(e) + (times * s.d.(j))) s.edges

(* Saturating, as {!Schedule.length} is. *)
let skip offset n = if offset > max_int - n then max_int else offset + n

(* The witness of [sched], which breaks a bound when entered with the
   counts [tok] after [offset] firings: descend only into the first child
   or iteration that breaks one, and report that firing's first
   underflowing input, else its first overflowing output, in edge order.
   [offset] adds up the skipped subtrees' {!Schedule.length}. *)
let rec descend c tok ~offset sched =
  match sched with
  | Schedule.Fire v ->
      (* Inputs come first in a leaf, and only they can underflow. *)
      let s = c.leaf.(v) in
      let rec first j =
        match broken c tok s j with
        | Some kind -> (j, kind)
        | None -> first (j + 1)
      in
      let j, kind = first 0 in
      Error.Schedule_illegal
        {
          node = Graph.node_name c.g v;
          edge = Graph.edge_name c.g s.edges.(j);
          at_firing = offset;
          kind;
        }
  | Seq l ->
      let rec first ~offset = function
        | [] -> assert false
        | child :: rest -> (
            match summary c child with
            | exception Out_of_range -> descend c tok ~offset child
            | s when breaks c tok s -> descend c tok ~offset child
            | s ->
                advance tok s ~times:1;
                first ~offset:(skip offset (Schedule.length child)) rest)
      in
      first ~offset l
  | Repeat (k, body) -> (
      match summary c body with
      | exception Out_of_range -> descend c tok ~offset body
      | s ->
          let i = first_bad_iteration c tok s ~k in
          assert (i < k);
          advance tok s ~times:i;
          let skipped = Schedule.length (Repeat (i, body)) in
          descend c tok ~offset:(skip offset skipped) body)

(* The period's summary when it keeps every channel within [capacities]
   from the delays, its witness otherwise. *)
let certify g ~capacities sched =
  let c = context g ~capacities in
  let tok = Array.init (Graph.num_edges g) (Graph.delay g) in
  match summary c sched with
  | s when not (breaks c tok s) -> Ok s
  | _ | (exception Out_of_range) -> Error (descend c tok ~offset:0 sched)

let peaks g sched =
  let unbounded = Array.make (Graph.num_edges g) max_int in
  match certify g ~capacities:unbounded sched with
  | Error err -> Error.fail err
  | Ok s ->
      let peak = Array.init (Graph.num_edges g) (Graph.delay g) in
      Array.iteri
        (fun j e ->
          if s.hi.(j) <> no_push then
            peak.(e) <- max peak.(e) (peak.(e) + s.hi.(j)))
        s.edges;
      peak

let validate g ~capacities sched =
  Result.map ignore (certify g ~capacities sched)
