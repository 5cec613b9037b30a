module Graph = Ccs_sdf.Graph
module E = Ccs_sdf.Error
module Machine = Ccs_exec.Machine

type t = {
  program : Program.t;
  machine : Machine.t;
  states : float array array;
  queues : float Queue.t array;
  capacities : int array;
  validate : bool;
}

let move_data t v =
  let g = Program.graph t.program in
  let name = Graph.node_name g v in
  let kernel = Program.kernel t.program v in
  let inputs =
    Graph.in_edges g v
    |> List.map (fun e ->
           let k = Graph.pop g e in
           Array.init k (fun _ -> Queue.pop t.queues.(e)))
    |> Array.of_list
  in
  let out_edges = Graph.out_edges g v in
  let outputs =
    out_edges |> List.map (fun e -> Array.make (Graph.push g e) 0.)
    |> Array.of_list
  in
  (try kernel.Kernel.fire ~state:t.states.(v) ~inputs ~outputs with
  | Ccs_exec.Fault.Injected { fault; _ } ->
      E.fail (E.Fault { node = name; fault; detail = "injected fault" })
  | E.Error _ as exn -> raise exn
  | exn ->
      E.fail
        (E.Fault
           {
             node = name;
             fault = E.Kernel_exception;
             detail = Printexc.to_string exn;
           }));
  if t.validate then
    Array.iter
      (fun out ->
        Array.iter
          (fun x ->
            if not (Float.is_finite x) then
              E.fail
                (E.Fault
                   {
                     node = name;
                     fault = E.Nan_output;
                     detail =
                       Printf.sprintf "kernel produced a non-finite token (%h)"
                         x;
                   }))
          out)
      outputs;
  List.iteri
    (fun i e -> Array.iter (fun x -> Queue.push x t.queues.(e)) outputs.(i))
    out_edges

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

let create ?(record_trace = false) ?(validate = true) ?counters ?tracer
    ?metrics ~program ~cache ~capacities () =
  E.protect (fun () ->
      let g = Program.graph program in
      let machine =
        Machine.create ~record_trace ?counters ?tracer ?metrics ~graph:g ~cache
          ~capacities ()
      in
      let t =
        {
          program;
          machine;
          states = init_states program;
          queues =
            Array.init (Graph.num_edges g) (fun e ->
                let q = Queue.create () in
                for _ = 1 to Graph.delay g e do
                  Queue.push 0. q
                done;
                q);
          capacities = Array.copy capacities;
          validate;
        }
      in
      Machine.set_fire_hook machine (Some (move_data t));
      t)

let machine t = t.machine
let fire t v = Machine.fire t.machine v

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

let of_plan ?record_trace ?(validate = false) ?counters ?tracer ?metrics
    ~program ~cache ~plan () =
  match
    create ?record_trace ~validate ?counters ?tracer ?metrics ~program ~cache
      ~capacities:plan.Ccs_sched.Plan.capacities ()
  with
  | Ok t -> t
  | Error e -> invalid_arg ("Engine.of_plan: " ^ E.to_string e)

let state t v = t.states.(v)
