module Schedule = Ccs_sched.Schedule
module Intvec = Ccs_exec.Intvec
module A = Bigarray.Array1

type data = (float, Bigarray.float64_elt, Bigarray.c_layout) A.t

type t = {
  lowering : Lowering.t;
  data : data;
  head : int array;  (* Per edge, normalized to [0, cap). *)
  count : int array;  (* Per edge, tokens buffered. *)
  aux : float array;  (* Per node: spill cell for zero-state modules. *)
  outputs : int ref;
  period_fn : unit -> unit;
  recorder : Intvec.t option;
}

(* Ring indices stay in [0, 2*cap), so one conditional subtract replaces
   [mod] on the hot path. *)
let[@inline] wrap cap i = if i >= cap then i - cap else i

(* Trace recording mirrors Machine.touch_span/touch_ring exactly: one
   entry per block of each contiguous span, state first, then input rings
   at the read cursor, then output rings at the write cursor. *)
let record_span r ~b addr len =
  if len > 0 then
    for blk = addr / b to (addr + len - 1) / b do
      Intvec.push r (blk * b)
    done

let record_ring r ~b ~base ~cap pos k =
  if k > 0 then begin
    let start = pos mod cap in
    if start + k <= cap then record_span r ~b (base + start) k
    else begin
      record_span r ~b (base + start) (cap - start);
      record_span r ~b base (k - (cap - start))
    end
  end

let record_fire r ~b ~head ~count (spec : Lowering.node_spec) =
  record_span r ~b spec.Lowering.state_base spec.Lowering.state_words;
  Array.iter
    (fun (io : Lowering.io) ->
      record_ring r ~b ~base:io.Lowering.base ~cap:io.Lowering.cap
        head.(io.Lowering.edge) io.Lowering.rate)
    spec.Lowering.ins;
  Array.iter
    (fun (io : Lowering.io) ->
      record_ring r ~b ~base:io.Lowering.base ~cap:io.Lowering.cap
        (head.(io.Lowering.edge) + count.(io.Lowering.edge))
        io.Lowering.rate)
    spec.Lowering.outs

(* Specialize one module's fire body: every base/cap/rate is a captured
   constant, buffers are addressed into the shared flat array, and the
   float operations replay the codegen-semantics kernels op-for-op so
   results are bit-identical to the interpreted engine. *)
let compile_node ~(data : data) ~head ~count ~aux ~outputs
    (spec : Lowering.node_spec) =
  let ins = spec.Lowering.ins and outs = spec.Lowering.outs in
  let n_ins = Array.length ins and n_outs = Array.length outs in
  let in_edge = Array.map (fun io -> io.Lowering.edge) ins in
  let in_base = Array.map (fun io -> io.Lowering.base) ins in
  let in_cap = Array.map (fun io -> io.Lowering.cap) ins in
  let in_rate = Array.map (fun io -> io.Lowering.rate) ins in
  let out_edge = Array.map (fun io -> io.Lowering.edge) outs in
  let out_base = Array.map (fun io -> io.Lowering.base) outs in
  let out_cap = Array.map (fun io -> io.Lowering.cap) outs in
  let out_rate = Array.map (fun io -> io.Lowering.rate) outs in
  let v = spec.Lowering.node in
  (* The module's accumulator always lives in [aux] — its simulated state
     words are charged to the cache (the trace records the span) but never
     carry the value, so the hot path avoids a load/store pair through the
     big array per firing. *)
  let advance_ins () =
    for i = 0 to n_ins - 1 do
      let e = Array.unsafe_get in_edge i in
      let cap = Array.unsafe_get in_cap i in
      let rate = Array.unsafe_get in_rate i in
      Array.unsafe_set head e (wrap cap (Array.unsafe_get head e + rate));
      Array.unsafe_set count e (Array.unsafe_get count e - rate)
    done
  in
  (* Inner loops run over at most two contiguous runs of the ring (the
     wrap split [touch_ring] uses) so the per-token path is a bare
     load/store with an induction variable — no wrap branch. *)
  let body =
    match spec.Lowering.kind with
    | Lowering.Counter ->
        fun () ->
          let c = ref (Array.unsafe_get aux v) in
          for i = 0 to n_outs - 1 do
            let e = Array.unsafe_get out_edge i in
            let base = Array.unsafe_get out_base i in
            let cap = Array.unsafe_get out_cap i in
            let rate = Array.unsafe_get out_rate i in
            let start =
              wrap cap (Array.unsafe_get head e + Array.unsafe_get count e)
            in
            let r1 = if start + rate <= cap then rate else cap - start in
            for k = base + start to base + start + r1 - 1 do
              A.unsafe_set data k !c;
              c := !c +. 1.
            done;
            for k = base to base + rate - r1 - 1 do
              A.unsafe_set data k !c;
              c := !c +. 1.
            done;
            Array.unsafe_set count e (Array.unsafe_get count e + rate)
          done;
          Array.unsafe_set aux v !c
    | Lowering.Checksum ->
        fun () ->
          let acc = ref (Array.unsafe_get aux v) in
          for i = 0 to n_ins - 1 do
            let e = Array.unsafe_get in_edge i in
            let base = Array.unsafe_get in_base i in
            let cap = Array.unsafe_get in_cap i in
            let rate = Array.unsafe_get in_rate i in
            let h = Array.unsafe_get head e in
            let r1 = if h + rate <= cap then rate else cap - h in
            for k = base + h to base + h + r1 - 1 do
              acc := !acc +. A.unsafe_get data k
            done;
            for k = base to base + rate - r1 - 1 do
              acc := !acc +. A.unsafe_get data k
            done;
            Array.unsafe_set head e (wrap cap (h + rate));
            Array.unsafe_set count e (Array.unsafe_get count e - rate)
          done;
          Array.unsafe_set aux v !acc
    | Lowering.Fill ->
        fun () ->
          for i = 0 to n_outs - 1 do
            let e = Array.unsafe_get out_edge i in
            let base = Array.unsafe_get out_base i in
            let cap = Array.unsafe_get out_cap i in
            let rate = Array.unsafe_get out_rate i in
            let start =
              wrap cap (Array.unsafe_get head e + Array.unsafe_get count e)
            in
            let r1 = if start + rate <= cap then rate else cap - start in
            for k = base + start to base + start + r1 - 1 do
              A.unsafe_set data k 0.25
            done;
            for k = base to base + rate - r1 - 1 do
              A.unsafe_set data k 0.25
            done;
            Array.unsafe_set count e (Array.unsafe_get count e + rate)
          done;
          advance_ins ()
    | Lowering.Mix { widx; woff = _ } ->
        let n = Array.length widx in
        (* Window slots from the same input share a head cursor; fill the
           window segment-by-segment with the cursor hoisted. *)
        let w = Array.make n 0. in
        fun () ->
          let j0 = ref 0 in
          for i = 0 to n_ins - 1 do
            let base = Array.unsafe_get in_base i in
            let cap = Array.unsafe_get in_cap i in
            let rate = Array.unsafe_get in_rate i in
            let h = Array.unsafe_get head (Array.unsafe_get in_edge i) in
            let j = !j0 - base - h in
            let r1 = if h + rate <= cap then rate else cap - h in
            for k = base + h to base + h + r1 - 1 do
              Array.unsafe_set w (j + k) (A.unsafe_get data k)
            done;
            let j = !j0 + r1 - base in
            for k = base to base + rate - r1 - 1 do
              Array.unsafe_set w (j + k) (A.unsafe_get data k)
            done;
            j0 := !j0 + rate
          done;
          for i = 0 to n_outs - 1 do
            let e = Array.unsafe_get out_edge i in
            let base = Array.unsafe_get out_base i in
            let cap = Array.unsafe_get out_cap i in
            let rate = Array.unsafe_get out_rate i in
            let start =
              wrap cap (Array.unsafe_get head e + Array.unsafe_get count e)
            in
            let r1 = if start + rate <= cap then rate else cap - start in
            let j = ref 0 in
            for k = base + start to base + start + r1 - 1 do
              A.unsafe_set data k ((0.5 *. Array.unsafe_get w !j) +. 0.25);
              incr j;
              if !j = n then j := 0
            done;
            for k = base to base + rate - r1 - 1 do
              A.unsafe_set data k ((0.5 *. Array.unsafe_get w !j) +. 0.25);
              incr j;
              if !j = n then j := 0
            done;
            Array.unsafe_set count e (Array.unsafe_get count e + rate)
          done;
          advance_ins ()
  in
  if spec.Lowering.is_sink then (
    fun () ->
      body ();
      incr outputs)
  else body

let rec compile_sched (fires : (unit -> unit) array) = function
  | Schedule.Fire v -> fires.(v)
  | Schedule.Seq l ->
      let arr = Array.of_list (List.map (compile_sched fires) l) in
      fun () -> Array.iter (fun f -> f ()) arr
  | Schedule.Repeat (k, body) ->
      let f = compile_sched fires body in
      fun () ->
        for _ = 1 to k do
          f ()
        done

let create ?(record_trace = false) (lowering : Lowering.t) =
  let g = lowering.Lowering.graph in
  let num_nodes = Ccs_sdf.Graph.num_nodes g in
  let num_edges = Ccs_sdf.Graph.num_edges g in
  let data = A.create Bigarray.float64 Bigarray.c_layout
      (max 1 lowering.Lowering.total_words) in
  A.fill data 0.;
  let head = Array.make num_edges 0 in
  let count = Array.make num_edges 0 in
  List.iter
    (fun e -> count.(e) <- Ccs_sdf.Graph.delay g e)
    (Ccs_sdf.Graph.edges g);
  let aux = Array.make num_nodes 0. in
  let outputs = ref 0 in
  let recorder = if record_trace then Some (Intvec.create ()) else None in
  let b = lowering.Lowering.block_words in
  let fires =
    Array.map
      (fun spec ->
        let body = compile_node ~data ~head ~count ~aux ~outputs spec in
        match recorder with
        | None -> body
        | Some r ->
            fun () ->
              record_fire r ~b ~head ~count spec;
              body ())
      lowering.Lowering.nodes
  in
  let period_fn = compile_sched fires lowering.Lowering.period in
  { lowering; data; head; count; aux; outputs; period_fn; recorder }

let run_periods t n =
  for _ = 1 to n do
    t.period_fn ()
  done

let run t ~target_outputs =
  if target_outputs > !(t.outputs) && t.lowering.Lowering.period_outputs = 0
  then
    invalid_arg
      (Printf.sprintf "Compiled.run: plan %s's period fires no sink"
         t.lowering.Lowering.plan_name);
  while !(t.outputs) < target_outputs do
    t.period_fn ()
  done

let outputs t = !(t.outputs)

let cell t v = t.aux.(v)

let sink_checksums t = Array.map (cell t) t.lowering.Lowering.sinks
let checksum t = Array.fold_left ( +. ) 0. (sink_checksums t)

let trace t =
  match t.recorder with
  | Some r -> Intvec.to_array r
  | None -> invalid_arg "Compiled.trace: built without record_trace"

