type driver = Ccs_exec.Machine.t -> target_outputs:int -> unit

type t = {
  name : string;
  capacities : int array;
  period : Schedule.t option;
  drive : driver;
}

let of_period ~name ~capacities period =
  let drive machine ~target_outputs =
    let rec go () =
      if Ccs_exec.Machine.sink_outputs machine < target_outputs then begin
        Schedule.run machine period;
        go ()
      end
    in
    (* Guard against periods that never fire the sink. *)
    let before = Ccs_exec.Machine.sink_outputs machine in
    if target_outputs > before then begin
      Schedule.run machine period;
      if Ccs_exec.Machine.sink_outputs machine = before then
        invalid_arg
          (Printf.sprintf "Plan %s: period does not fire the sink" name);
      go ()
    end
  in
  { name; capacities; period = Some period; drive }

let dynamic ~name ~capacities drive = { name; capacities; period = None; drive }

let buffer_words t = Array.fold_left ( + ) 0 t.capacities

(* Plan identity for post-mortems: a short digest over everything that
   determines the plan's behavior except the driver closure — name,
   capacity vector, and (for static plans) the period's firing sequence.
   Two adaptations of the same scheduler at different cache sizes thus get
   distinct ids, while re-building the identical plan reproduces the id. *)
let id t =
  let buf = Buffer.create 128 in
  Buffer.add_string buf t.name;
  Buffer.add_char buf '|';
  Array.iter
    (fun c ->
      Buffer.add_string buf (string_of_int c);
      Buffer.add_char buf ',')
    t.capacities;
  (match t.period with
  | None -> Buffer.add_string buf "|dynamic"
  | Some p ->
      Buffer.add_char buf '|';
      Schedule.iter p ~f:(fun v ->
          Buffer.add_string buf (string_of_int v);
          Buffer.add_char buf ';'));
  let hex = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  Printf.sprintf "%s-%s" t.name (String.sub hex 0 12)

let layout g ~cache t =
  Ccs_exec.Machine.plan_layout ~graph:g ~cache ~capacities:t.capacities ()

let zero_capacities g ~plan capacities =
  if Array.length capacities <> Ccs_sdf.Graph.num_edges g then []
  else
    List.filter_map
      (fun e ->
        if capacities.(e) > 0 then None
        else
          Some
            (Ccs_sdf.Error.Plan_invalid
               {
                 plan;
                 reason =
                   Printf.sprintf
                     "channel %s has capacity %d; buffers need >= 1"
                     (Ccs_sdf.Graph.edge_name g e) capacities.(e);
               }))
      (Ccs_sdf.Graph.edges g)

let validate ?cache ?spec g t =
  let module E = Ccs_sdf.Error in
  let module Graph = Ccs_sdf.Graph in
  let errs = ref [] in
  let add e = errs := e :: !errs in
  let invalid reason = add (E.Plan_invalid { plan = t.name; reason }) in
  (* Capacity preconditions: every channel must admit both one push and one
     pop, or the machine (and any real runtime) wedges on that channel. *)
  let caps_ok = ref true in
  (if Array.length t.capacities <> Graph.num_edges g then begin
     caps_ok := false;
     invalid
       (Printf.sprintf "%d capacities for %d channels"
          (Array.length t.capacities) (Graph.num_edges g))
   end
   else
     List.iter
       (fun e ->
         let required = max (Graph.push g e) (Graph.pop g e) in
         if t.capacities.(e) < required then begin
           caps_ok := false;
           add
             (E.Capacity_below_rate
                {
                  edge = e;
                  src = Graph.node_name g (Graph.src g e);
                  dst = Graph.node_name g (Graph.dst g e);
                  capacity = t.capacities.(e);
                  required;
                })
         end)
       (Graph.edges g));
  let analysis =
    match Ccs_sdf.Rates.analyze_checked g with
    | Ok a -> Some a
    | Error e ->
        add e;
        None
  in
  (* Feasibility: some periodic schedule must exist under these capacities
     (minBuf is the tight per-channel floor; a capacity vector can clear
     every per-channel bound and still be jointly infeasible). *)
  (match analysis with
  | Some a when !caps_ok ->
      if not (Ccs_sdf.Minbuf.feasible g a ~capacities:t.capacities) then
        add
          (E.Capacity_infeasible
             {
               reason =
                 Printf.sprintf
                   "plan %s: latest-first simulation cannot complete a \
                    period within the given capacities"
                   t.name;
             })
  | _ -> ());
  (* Cache fit of the largest component, when the caller says which
     partition and cache the plan was built for. *)
  (match (spec, cache) with
  | Some spec, Some cache ->
      let cache_words = cache.Ccs_cache.Cache.size_words in
      for c = 0 to Ccs_partition.Spec.num_components spec - 1 do
        let state = Ccs_partition.Spec.component_state spec c in
        if state > cache_words then
          add (E.Cache_overflow { component = c; state; cache_words })
      done
  | _ -> ());
  (* Static plans: certify the period itself from its schedule tree
     ({!Simulate.validate}).  Balance comes from the fire counts: when
     every firing is legal, a channel ends the period at [delay +
     counts(src)·push - counts(dst)·pop], so it is restored exactly when
     that change is 0.  Capacities of the wrong length were reported
     above; only the token check, which needs one bound per channel, is
     skipped for them.  A period too long to count has no exact fire
     counts or firing indices, so it gets that one finding. *)
  (match t.period with
  | None -> ()
  | Some period when Schedule.length period = max_int ->
      invalid
        (Printf.sprintf "period has %d (max_int) firings or more" max_int)
  | Some period -> (
      let counts =
        Schedule.fire_counts ~num_nodes:(Graph.num_nodes g) period
      in
      let balanced e =
        counts.(Graph.src g e) * Graph.push g e
        = counts.(Graph.dst g e) * Graph.pop g e
      in
      let walked =
        if Array.length t.capacities = Graph.num_edges g then
          Simulate.validate g ~capacities:t.capacities period
        else Ok ()
      in
      (match walked with
      | Ok () ->
          if not (List.for_all balanced (Graph.edges g)) then
            invalid "period does not restore channel state"
      | Error e -> add e);
      match analysis with
      | None -> ()
      | Some a -> (
          match Graph.sinks g with
          | [ sink ] when counts.(sink) = 0 ->
              invalid "period never fires the sink"
          | _ ->
              let rep = a.Ccs_sdf.Rates.repetition in
              let ratio_num = counts.(0) and ratio_den = rep.(0) in
              let ok = ref (counts.(0) mod rep.(0) = 0) in
              Array.iteri
                (fun v c ->
                  if c * ratio_den <> rep.(v) * ratio_num then ok := false)
                counts;
              if not !ok then
                invalid
                  "firing counts are not a multiple of the repetition vector")));
  match List.rev !errs with [] -> Ok () | errs -> Result.error errs
