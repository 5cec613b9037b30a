(* Plan certification as it was before it walked a period once, kept
   verbatim as the oracle of the differential tests: the replaying
   [Simulate] (a legality walk, then a second walk for periodicity) and
   the period section of [Plan.validate] built on it. *)

module Schedule = Ccs.Schedule

module Simulate = struct
  module Graph = Ccs.Graph

  exception Illegal of {
    node : Graph.node;
    edge : Graph.edge;
    at_firing : int;
  }

  let replay g sched ~on_fire =
    let tokens = Array.init (Graph.num_edges g) (fun e -> Graph.delay g e) in
    let count = ref 0 in
    Schedule.iter sched ~f:(fun v ->
        List.iter
          (fun e ->
            tokens.(e) <- tokens.(e) - Graph.pop g e;
            if tokens.(e) < 0 then
              raise (Illegal { node = v; edge = e; at_firing = !count }))
          (Graph.in_edges g v);
        List.iter
          (fun e -> tokens.(e) <- tokens.(e) + Graph.push g e)
          (Graph.out_edges g v);
        on_fire tokens;
        incr count);
    tokens

  let peaks g sched =
    let peak = Array.init (Graph.num_edges g) (fun e -> Graph.delay g e) in
    let _ =
      replay g sched ~on_fire:(fun tokens ->
          Array.iteri (fun e t -> if t > peak.(e) then peak.(e) <- t) tokens)
    in
    peak

  let final_tokens g sched = replay g sched ~on_fire:(fun _ -> ())

  let is_periodic g sched =
    match final_tokens g sched with
    | final ->
        let ok = ref true in
        Array.iteri (fun e t -> if t <> Graph.delay g e then ok := false) final;
        !ok
    | exception Illegal _ -> false

  let validate g ~capacities sched =
    let module E = Ccs_sdf.Error in
    let tokens = Array.init (Graph.num_edges g) (fun e -> Graph.delay g e) in
    let count = ref 0 in
    let err = ref None in
    let report v e kind =
      if !err = None then
        err :=
          Some
            (E.Schedule_illegal
               {
                 node = Graph.node_name g v;
                 edge = Graph.edge_name g e;
                 at_firing = !count;
                 kind;
               })
    in
    Schedule.iter sched ~f:(fun v ->
        if !err = None then begin
          List.iter
            (fun e ->
              tokens.(e) <- tokens.(e) - Graph.pop g e;
              if tokens.(e) < 0 then report v e `Underflow)
            (Graph.in_edges g v);
          List.iter
            (fun e ->
              tokens.(e) <- tokens.(e) + Graph.push g e;
              if tokens.(e) > capacities.(e) then report v e `Overflow)
            (Graph.out_edges g v);
          incr count
        end);
    match !err with Some e -> Result.error e | None -> Ok ()

  let legal g ~capacities sched =
    match
      let _ =
        replay g sched ~on_fire:(fun tokens ->
            Array.iteri
              (fun e t -> if t > capacities.(e) then raise Exit)
              tokens)
      in
      ()
    with
    | () -> true
    | exception Exit -> false
    | exception Illegal _ -> false
end

module Plan = struct
  (* Findings before the period section do not depend on the period, so
     the current [Plan.validate] of the same plan without its period
     supplies them; the period section below is the old one, verbatim. *)
  let validate ?cache ?spec g (t : Ccs.Plan.t) =
    let module E = Ccs_sdf.Error in
    let module Graph = Ccs_sdf.Graph in
    let errs =
      ref
        (match Ccs.Plan.validate ?cache ?spec g { t with period = None } with
        | Ok () -> []
        | Error es -> List.rev es)
    in
    let add e = errs := e :: !errs in
    let invalid reason = add (E.Plan_invalid { plan = t.name; reason }) in
    let analysis = Result.to_option (Ccs_sdf.Rates.analyze_checked g) in
    (* Static plans: certify the period itself. *)
    (match t.period with
    | None -> ()
    | Some period -> (
        (match Simulate.validate g ~capacities:t.capacities period with
        | Ok () ->
            if not (Simulate.is_periodic g period) then
              invalid "period does not restore channel state"
        | Error e -> add e);
        match analysis with
        | None -> ()
        | Some a -> (
            let counts =
              Schedule.fire_counts ~num_nodes:(Graph.num_nodes g) period
            in
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
end
