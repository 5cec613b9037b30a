module Graph = Ccs_sdf.Graph
module E = Ccs_sdf.Error

type site = { node : Graph.node; fault : E.fault_class; at_fire : int }
type t = { graph : Graph.t; sites : site list }

exception Injected of { node : Graph.node; fault : E.fault_class }

let all_classes = [ E.Nan_output; E.Bad_state_arity; E.Kernel_exception ]

(* Deterministic xorshift64*: fault schedules must replay identically for a
   given seed, independent of any global Random state. *)
let rng seed =
  let state = ref (Int64.of_int (if seed = 0 then 0x9e3779b9 else seed)) in
  fun bound ->
    let x = !state in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    state := x;
    Int64.to_int (Int64.rem (Int64.logand x Int64.max_int) (Int64.of_int bound))

let plan ?(classes = all_classes) ?(horizon = 64) ~seed ~count graph =
  if classes = [] then invalid_arg "Fault.plan: empty class list";
  if horizon <= 0 then invalid_arg "Fault.plan: horizon must be positive";
  if count < 0 then invalid_arg "Fault.plan: count must be >= 0";
  let n = Graph.num_nodes graph in
  (* An empty graph has no module to fault — and would divide by zero in
     the RNG's modulus below.  Same structured error the validators use. *)
  if n = 0 && count > 0 then E.fail E.Empty_graph;
  if count > n * horizon then
    invalid_arg
      (Printf.sprintf
         "Fault.plan: %d sites cannot be distinct over %d modules x %d \
          firings"
         count n horizon);
  let next = rng seed in
  let classes = Array.of_list classes in
  (* Draw sites without (node, at_fire) collisions: a duplicate draw would
     silently shrink the plan below [count], since only the first fault at
     a site can ever trigger. *)
  let seen = Hashtbl.create (2 * count) in
  let rec draw () =
    let node = next n and at_fire = next horizon in
    if Hashtbl.mem seen (node, at_fire) then draw ()
    else begin
      Hashtbl.add seen (node, at_fire) ();
      { node; fault = classes.(next (Array.length classes)); at_fire }
    end
  in
  let sites = List.init count (fun _ -> draw ()) in
  { graph; sites }

let of_sites graph sites = { graph; sites }
let sites t = t.sites

let find t ~node ~fire_index =
  List.find_map
    (fun s ->
      if s.node = node && s.at_fire = fire_index then Some s.fault else None)
    t.sites



let pp fmt t =
  Format.fprintf fmt "@[<v>fault plan (%d sites)" (List.length t.sites);
  List.iter
    (fun s ->
      Format.fprintf fmt "@,  %s on firing %d of %s"
        (E.fault_class_to_string s.fault)
        s.at_fire
        (Graph.node_name t.graph s.node))
    t.sites;
  Format.fprintf fmt "@]"

(* --- chaos environment plans ---------------------------------------------

   Where a fault plan misbehaves *inside* the application (kernels lying or
   raising), an environment plan misbehaves *around* it: the cache shrinks
   under a contending tenant, associativity changes, demand turns bursty,
   the checkpoint directory starts failing writes.  Events are pinned to
   epoch indices — the supervisor's natural reaction points — and the whole
   plan is a pure function of its spec (or seed), so an adapted run replays
   bit-identically. *)

type env_event =
  | Cache_shrink of int
  | Cache_restore
  | Cache_ways of int
  | Burst of { mult : int; len : int }
  | Io_fault of { len : int }
  (* Serve-layer events: the daemon chaos harness misbehaves around the
     scheduling service rather than around one run.  For these, "epoch"
     means the per-worker request index (requests served since the worker
     was spawned), the daemon's natural reaction points. *)
  | Worker_kill
  | Record_truncate

type env_site = { at_epoch : int; event : env_event }
type env = env_site list

type conditions = {
  shrink_divisor : int;
  ways : int option;
  burst_mult : int;
  io_faulty : bool;
}

let nominal = { shrink_divisor = 1; ways = None; burst_mult = 1; io_faulty = false }

let env_of_sites sites =
  List.iter
    (fun s ->
      if s.at_epoch < 0 then
        invalid_arg "Fault.env_of_sites: epoch must be >= 0";
      match s.event with
      | Cache_shrink d when d < 2 ->
          invalid_arg "Fault.env_of_sites: shrink divisor must be >= 2"
      | Cache_ways w when w < 1 ->
          invalid_arg "Fault.env_of_sites: ways must be >= 1"
      | Burst { mult; len } when mult < 2 || len < 1 ->
          invalid_arg "Fault.env_of_sites: burst needs mult >= 2, len >= 1"
      | Io_fault { len } when len < 1 ->
          invalid_arg "Fault.env_of_sites: io fault length must be >= 1"
      | _ -> ())
    sites;
  (* Stable sort: simultaneous events apply in spec order. *)
  List.stable_sort (fun a b -> compare a.at_epoch b.at_epoch) sites

let env_plan ?(horizon = 32) ~seed ~count () =
  if horizon <= 0 then invalid_arg "Fault.env_plan: horizon must be positive";
  if count < 0 then invalid_arg "Fault.env_plan: count must be >= 0";
  let next = rng seed in
  let draw _ =
    let at_epoch = next horizon in
    let event =
      match next 4 with
      | 0 -> Cache_shrink (2 lsl next 3) (* 2, 4, 8 or 16 *)
      | 1 -> Cache_restore
      | 2 -> Burst { mult = 2 + next 3; len = 1 + next 4 }
      | _ -> Io_fault { len = 1 + next 2 }
    in
    { at_epoch; event }
  in
  env_of_sites (List.init count draw)

(* Seeded draw over the serve-layer grammar: worker kills, plan-store
   I/O faults, truncated records — the daemon soak's schedule is a pure
   function of its seed, exactly like the cache-adversity plans above. *)
let serve_plan ?(horizon = 32) ~seed ~count () =
  if horizon <= 0 then invalid_arg "Fault.serve_plan: horizon must be positive";
  if count < 0 then invalid_arg "Fault.serve_plan: count must be >= 0";
  let next = rng (seed lxor 0x5eed) in
  let draw _ =
    let at_epoch = next horizon in
    let event =
      match next 3 with
      | 0 -> Worker_kill
      | 1 -> Io_fault { len = 1 + next 2 }
      | _ -> Record_truncate
    in
    { at_epoch; event }
  in
  env_of_sites (List.init count draw)

(* [conditions_at env epoch] folds every event scheduled at or before
   [epoch], windowed events ([Burst], [Io_fault]) counting only while
   [epoch] lies inside their window.  [Cache_restore] clears both the
   shrink divisor and any associativity override. *)
let conditions_at env epoch =
  List.fold_left
    (fun c s ->
      if s.at_epoch > epoch then c
      else
        match s.event with
        | Cache_shrink d -> { c with shrink_divisor = d }
        | Cache_restore -> { c with shrink_divisor = 1; ways = None }
        | Cache_ways w -> { c with ways = Some w }
        | Burst { mult; len } ->
            if epoch < s.at_epoch + len then { c with burst_mult = mult }
            else c
        | Io_fault { len } ->
            if epoch < s.at_epoch + len then { c with io_faulty = true }
            else c
        (* Serve events are instantaneous, not ambient conditions; the
           daemon consumes them through [events_at]. *)
        | Worker_kill | Record_truncate -> c)
    nominal env

(* The instantaneous events pinned to exactly [epoch], in spec order —
   how the daemon (and the soak driver) consumes serve-layer chaos. *)
let events_at env epoch =
  List.filter_map
    (fun s -> if s.at_epoch = epoch then Some s.event else None)
    env

(* The cache configuration the environment imposes on a base config: the
   capacity divided by the shrink divisor (never below one block) and the
   policy overridden by any associativity event.  Block geometry never
   changes — that is physical, not environmental. *)
let env_cache_config base c =
  let size_words =
    max base.Ccs_cache.Cache.block_words
      (base.Ccs_cache.Cache.size_words / c.shrink_divisor)
  in
  (* Shrink to a whole number of blocks so derived plans see the same
     block count the resized simulator has. *)
  let size_words =
    size_words - (size_words mod base.Ccs_cache.Cache.block_words)
  in
  let policy =
    match c.ways with
    | None -> base.Ccs_cache.Cache.policy
    | Some 1 -> Ccs_cache.Cache.Direct_mapped
    | Some w -> Ccs_cache.Cache.Set_associative w
  in
  { base with Ccs_cache.Cache.size_words; policy }

(* Spec grammar (comma-separated, whitespace-tolerant):
     shrink@E:D     divide cache capacity by D starting at epoch E
     restore@E      restore nominal capacity and associativity at epoch E
     ways@E:N       switch to N-way set-associative at epoch E (1 = direct)
     burst@E:MxL    demand burst: multiplier M for L epochs starting at E
     iofault@E:L    checkpoint-directory I/O faults for L epochs from E
     rand@S:C[:H]   C seeded-random events (seed S) over horizon H (def. 32)

   Serve-layer events (epoch = per-worker request index for the daemon):
     kill@E         worker process dies after serving request E
     truncate@E     the record written/read at request E is truncated
     srand@S:C[:H]  C seeded-random serve events over horizon H (def. 32)

   Each consumer takes only the events it acts on: a run rejects kill,
   truncate and srand, the daemon rejects shrink, restore, ways, burst
   and rand.  iofault means checkpoint writes to a run and plan-store
   writes to the daemon. *)

type consumer = Run | Serve

let consumer_kinds = function
  | Run -> [ "shrink"; "restore"; "ways"; "burst"; "iofault"; "rand" ]
  | Serve -> [ "kill"; "truncate"; "iofault"; "srand" ]

let parse_env consumer spec =
  let fail_atom atom reason =
    E.fail
      (E.Failure_msg
         {
           context = "chaos spec";
           reason = Printf.sprintf "%S: %s" atom reason;
         })
  in
  let int_of atom what s =
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> fail_atom atom (Printf.sprintf "%s is not an integer" what)
  in
  let parse_atom atom =
    match String.index_opt atom '@' with
    | None -> fail_atom atom "expected KIND@EPOCH[:ARGS]"
    | Some i -> (
        let kind = String.trim (String.sub atom 0 i) in
        let rest = String.sub atom (i + 1) (String.length atom - i - 1) in
        let args = String.split_on_char ':' rest in
        let kinds = consumer_kinds consumer in
        let other, name =
          match consumer with Run -> (Serve, "run") | Serve -> (Run, "serve")
        in
        if List.mem kind (consumer_kinds other) && not (List.mem kind kinds)
        then
          fail_atom atom
            (Printf.sprintf "%s accepts only %s" name
               (String.concat ", " kinds));
        match (kind, args) with
        | "shrink", [ e; d ] ->
            let d = int_of atom "divisor" d in
            if d < 2 then fail_atom atom "divisor must be >= 2";
            [ { at_epoch = int_of atom "epoch" e; event = Cache_shrink d } ]
        | "restore", [ e ] ->
            [ { at_epoch = int_of atom "epoch" e; event = Cache_restore } ]
        | "ways", [ e; w ] ->
            let w = int_of atom "ways" w in
            if w < 1 then fail_atom atom "ways must be >= 1";
            [ { at_epoch = int_of atom "epoch" e; event = Cache_ways w } ]
        | "burst", [ e; ml ] -> (
            match String.index_opt ml 'x' with
            | None -> fail_atom atom "expected burst@E:MxL"
            | Some j ->
                let mult = int_of atom "multiplier" (String.sub ml 0 j) in
                let len =
                  int_of atom "length"
                    (String.sub ml (j + 1) (String.length ml - j - 1))
                in
                if mult < 2 then fail_atom atom "multiplier must be >= 2";
                if len < 1 then fail_atom atom "length must be >= 1";
                [
                  {
                    at_epoch = int_of atom "epoch" e;
                    event = Burst { mult; len };
                  };
                ])
        | "iofault", [ e; l ] ->
            let len = int_of atom "length" l in
            if len < 1 then fail_atom atom "length must be >= 1";
            [
              { at_epoch = int_of atom "epoch" e; event = Io_fault { len } };
            ]
        | "kill", [ e ] ->
            [ { at_epoch = int_of atom "epoch" e; event = Worker_kill } ]
        | "truncate", [ e ] ->
            [ { at_epoch = int_of atom "epoch" e; event = Record_truncate } ]
        | "rand", [ s; c ] ->
            env_plan ~seed:(int_of atom "seed" s)
              ~count:(int_of atom "count" c) ()
        | "rand", [ s; c; h ] ->
            env_plan
              ~horizon:(int_of atom "horizon" h)
              ~seed:(int_of atom "seed" s)
              ~count:(int_of atom "count" c) ()
        | "srand", [ s; c ] ->
            serve_plan ~seed:(int_of atom "seed" s)
              ~count:(int_of atom "count" c) ()
        | "srand", [ s; c; h ] ->
            serve_plan
              ~horizon:(int_of atom "horizon" h)
              ~seed:(int_of atom "seed" s)
              ~count:(int_of atom "count" c) ()
        | _, _ -> fail_atom atom "unknown event or wrong argument count")
  in
  let atoms =
    List.filter
      (fun s -> String.trim s <> "")
      (String.split_on_char ',' spec)
  in
  if atoms = [] then
    E.fail (E.Failure_msg { context = "chaos spec"; reason = "empty spec" });
  let sites = List.concat_map (fun a -> parse_atom (String.trim a)) atoms in
  List.iter
    (fun s ->
      if s.at_epoch < 0 then
        E.fail
          (E.Failure_msg
             { context = "chaos spec"; reason = "epoch must be >= 0" }))
    sites;
  env_of_sites sites

let env_event_to_string = function
  | Cache_shrink d -> Printf.sprintf "shrink:%d" d
  | Cache_restore -> "restore"
  | Cache_ways w -> Printf.sprintf "ways:%d" w
  | Burst { mult; len } -> Printf.sprintf "burst:%dx%d" mult len
  | Io_fault { len } -> Printf.sprintf "iofault:%d" len
  | Worker_kill -> "kill"
  | Record_truncate -> "truncate"

let env_to_string env =
  String.concat ","
    (List.map
       (fun s ->
         match s.event with
         | Cache_shrink d -> Printf.sprintf "shrink@%d:%d" s.at_epoch d
         | Cache_restore -> Printf.sprintf "restore@%d" s.at_epoch
         | Cache_ways w -> Printf.sprintf "ways@%d:%d" s.at_epoch w
         | Burst { mult; len } ->
             Printf.sprintf "burst@%d:%dx%d" s.at_epoch mult len
         | Io_fault { len } -> Printf.sprintf "iofault@%d:%d" s.at_epoch len
         | Worker_kill -> Printf.sprintf "kill@%d" s.at_epoch
         | Record_truncate -> Printf.sprintf "truncate@%d" s.at_epoch)
       env)

let pp_env fmt env =
  Format.fprintf fmt "@[<v>environment plan (%d events)" (List.length env);
  List.iter
    (fun s ->
      Format.fprintf fmt "@,  epoch %d: %s" s.at_epoch
        (env_event_to_string s.event))
    env;
  Format.fprintf fmt "@]"
