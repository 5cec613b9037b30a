module Graph = Ccs_sdf.Graph
module Error = Ccs_sdf.Error
module Plan = Ccs_sched.Plan
module Schedule = Ccs_sched.Schedule
module Machine = Ccs_exec.Machine
module Layout = Ccs_cache.Layout

type io = {
  edge : Graph.edge;
  base : int;
  cap : int;
  rate : int;
  delay : int;
}

type kind =
  | Counter
  | Checksum
  | Mix of { widx : int array; woff : int array }
  | Fill

type node_spec = {
  node : Graph.node;
  name : string;
  kind : kind;
  state_base : int;
  state_words : int;
  ins : io array;
  outs : io array;
  is_sink : bool;
}

type t = {
  graph : Graph.t;
  plan_name : string;
  period : Schedule.t;
  period_outputs : int;
  block_words : int;
  nodes : node_spec array;
  total_words : int;
  sinks : Graph.node array;
}

let lower g ~plan ~cache =
  (* Zero-capacity channels used to be silently clamped to 1-slot rings
     whose pushes overwrite; reject them structurally instead.  (They also
     fail [Plan.validate]'s rate floor, but the clamp hid that from the
     emitter's callers.) *)
  let findings =
    Plan.zero_capacities g ~plan:plan.Plan.name plan.Plan.capacities
    @
    match Plan.validate g plan with
    | Ok () -> []
    | Error es -> List.filter (fun e -> Error.severity e = `Error) es
  in
  match plan.Plan.period with
  | None ->
      Error
        (Error.Plan_invalid
           {
             plan = plan.Plan.name;
             reason = "dynamic plan has no static period to compile";
           }
        :: findings)
  | Some _ when findings <> [] -> Error findings
  | Some period ->
      let period = Schedule.compress period in
      let layout = Plan.layout g ~cache plan in
      let io_of e rate =
        let r = layout.Machine.l_buffers.(e) in
        {
          edge = e;
          base = r.Layout.base;
          cap = r.Layout.length;
          rate;
          delay = Graph.delay g e;
        }
      in
      let sinks = Array.of_list (Graph.sinks g) in
      let is_sink = Array.make (Graph.num_nodes g) false in
      Array.iter (fun v -> is_sink.(v) <- true) sinks;
      let nodes =
        Array.init (Graph.num_nodes g) (fun v ->
            let ins =
              Array.of_list
                (List.map (fun e -> io_of e (Graph.pop g e)) (Graph.in_edges g v))
            in
            let outs =
              Array.of_list
                (List.map
                   (fun e -> io_of e (Graph.push g e))
                   (Graph.out_edges g v))
            in
            let kind =
              if Array.length ins = 0 then Counter
              else if Array.length outs = 0 then Checksum
              else begin
                (* The concatenated pop window, slot by slot: inputs in
                   [in_edges] order, oldest token first within each. *)
                let n = Array.fold_left (fun a i -> a + i.rate) 0 ins in
                if n = 0 then Fill
                else begin
                  let widx = Array.make n 0 and woff = Array.make n 0 in
                  let j = ref 0 in
                  Array.iteri
                    (fun i io ->
                      for o = 0 to io.rate - 1 do
                        widx.(!j) <- i;
                        woff.(!j) <- o;
                        incr j
                      done)
                    ins;
                  Mix { widx; woff }
                end
              end
            in
            let st = layout.Machine.l_states.(v) in
            {
              node = v;
              name = Graph.node_name g v;
              kind;
              state_base = st.Layout.base;
              state_words = st.Layout.length;
              ins;
              outs;
              is_sink = is_sink.(v);
            })
      in
      let counts = Schedule.fire_counts ~num_nodes:(Graph.num_nodes g) period in
      let period_outputs =
        Array.fold_left (fun a v -> a + counts.(v)) 0 sinks
      in
      Ok
        {
          graph = g;
          plan_name = plan.Plan.name;
          period;
          period_outputs;
          block_words = cache.Ccs_cache.Cache.block_words;
          nodes;
          total_words = layout.Machine.l_total_words;
          sinks;
        }

let exn g ~plan ~cache =
  match lower g ~plan ~cache with
  | Ok t -> t
  | Error (e :: _) -> Error.fail e
  | Error [] -> assert false
