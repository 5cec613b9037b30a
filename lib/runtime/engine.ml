module Graph = Ccs_sdf.Graph
module E = Ccs_sdf.Error
module Machine = Ccs_exec.Machine

(* Token [i] of channel [e] (delay tokens first) lives in [rings.(e)] at
   slot [i mod capacity]; the machine's cursors say which tokens are
   buffered, so the rings are the only channel data. *)
type t = {
  program : Program.t;
  machine : Machine.t;
  states : float array array;
  rings : float array array;
  in_edges : int array array;
  out_edges : int array array;
  inputs : float array array array;
  outputs : float array array array;
  capacities : int array;
}

let non_finite name x =
  E.fail
    (E.Fault
       {
         node = name;
         fault = E.Nan_output;
         detail = Printf.sprintf "kernel produced a non-finite token (%h)" x;
       })

(* The fire hook: runs after [Machine.fire] has moved the cursors, so the
   [pop] tokens just consumed end at [consumed], and the [push] slots just
   claimed end at [delay + produced]. *)
let move_data t v =
  let m = t.machine in
  let ins = t.in_edges.(v) and inputs = t.inputs.(v) in
  for i = 0 to Array.length ins - 1 do
    let e = ins.(i) in
    let ring = t.rings.(e) and buf = inputs.(i) in
    let cap = Array.length ring and pop = Array.length buf in
    let base = Machine.consumed m e - pop in
    for j = 0 to pop - 1 do
      buf.(j) <- ring.((base + j) mod cap)
    done
  done;
  let outputs = t.outputs.(v) in
  for i = 0 to Array.length outputs - 1 do
    Array.fill outputs.(i) 0 (Array.length outputs.(i)) 0.
  done;
  let g = Program.graph t.program in
  (try
     (Program.kernel t.program v).Kernel.fire ~state:t.states.(v) ~inputs
       ~outputs
   with
  | Ccs_exec.Fault.Injected { fault; _ } ->
      E.fail
        (E.Fault
           { node = Graph.node_name g v; fault; detail = "injected fault" })
  | E.Error _ as exn -> raise exn
  | exn ->
      E.fail
        (E.Fault
           {
             node = Graph.node_name g v;
             fault = E.Kernel_exception;
             detail = Printexc.to_string exn;
           }));
  let outs = t.out_edges.(v) in
  for i = 0 to Array.length outs - 1 do
    let e = outs.(i) in
    let ring = t.rings.(e) and buf = outputs.(i) in
    let cap = Array.length ring and push = Array.length buf in
    let base = Graph.delay g e + Machine.produced m e - push in
    for j = 0 to push - 1 do
      let x = buf.(j) in
      if not (Float.is_finite x) then non_finite (Graph.node_name g v) x;
      ring.((base + j) mod cap) <- x
    done
  done

(* Materialise every kernel's initial state, reporting arity mismatches as
   structured [Bad_state_arity] faults. *)
let init_states program =
  let g = Program.graph program in
  Array.init (Graph.num_nodes g) (fun v ->
      let st = (Program.kernel program v).Kernel.init () in
      if Array.length st <> Graph.state g v then
        E.fail
          (E.Fault
             {
               node = Graph.node_name g v;
               fault = E.Bad_state_arity;
               detail =
                 Printf.sprintf "kernel init returned %d words, expected %d"
                   (Array.length st) (Graph.state g v);
             });
      st)

let create ?metrics ~program ~cache ~capacities () =
  E.protect (fun () ->
      let g = Program.graph program in
      let machine = Machine.create ?metrics ~graph:g ~cache ~capacities () in
      let n = Graph.num_nodes g and m = Graph.num_edges g in
      let edges f = Array.init n (fun v -> Array.of_list (f g v)) in
      let in_edges = edges Graph.in_edges in
      let out_edges = edges Graph.out_edges in
      let scratch rate =
        Array.map (Array.map (fun e -> Array.make (rate g e) 0.))
      in
      let t =
        {
          program;
          machine;
          states = init_states program;
          rings = Array.init m (fun e -> Array.make capacities.(e) 0.);
          in_edges;
          out_edges;
          inputs = scratch Graph.pop in_edges;
          outputs = scratch Graph.push out_edges;
          capacities = Array.copy capacities;
        }
      in
      Machine.set_fire_hook machine (Some (move_data t));
      t)

let machine t = t.machine

let run_plan ?budget t plan ~outputs =
  if plan.Ccs_sched.Plan.capacities <> t.capacities then
    Error
      (E.Plan_invalid
         {
           plan = plan.Ccs_sched.Plan.name;
           reason = "plan capacities differ from the engine's";
         })
  else
    Result.map
      (fun () ->
        Machine.sync_metrics t.machine;
        Ccs_sched.Runner.result_of ~plan t.machine)
      (Ccs_sched.Runner.drive ?budget t.machine ~plan ~outputs)

let of_plan ~program ~cache ~plan () =
  let capacities = plan.Ccs_sched.Plan.capacities in
  match create ~program ~cache ~capacities () with
  | Ok t -> t
  | Error e -> invalid_arg ("Engine.of_plan: " ^ E.to_string e)

let state t v = t.states.(v)
