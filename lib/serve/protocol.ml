module Json = Ccs.Json
module E = Ccs.Error

type plan_request = {
  graph_text : string;
  cache_words : int;
  block_words : int;
  ways : int option;
  capacities : int array option;
  dry_run : bool;
  trace_id : string option;
}

type request = Plan of plan_request | Ping

type artifact = {
  plan_name : string;
  batch : int;
  components : int array;
  capacities : int array;
  period : Ccs.Schedule.t;
  predicted_mpi : float;
  bandwidth_per_input : float;
  buffer_words : int;
}

type dry_run = { outputs : int; checksum : float }

(* --- request parsing ------------------------------------------------------ *)

let invalid fmt = Printf.ksprintf (fun reason -> E.Request_invalid { reason }) fmt

let field name v = Json.member name v

let int_field ?default name v =
  match (field name v, default) with
  | Some j, _ -> (
      match Json.to_int j with
      | Some i -> Ok i
      | None -> Error (invalid "field %S must be an integer" name))
  | None, Some d -> Ok d
  | None, None -> Error (invalid "missing integer field %S" name)

let string_field name v =
  match field name v with
  | Some j -> (
      match Json.to_str j with
      | Some s -> Ok s
      | None -> Error (invalid "field %S must be a string" name))
  | None -> Error (invalid "missing string field %S" name)

let opt_int_field name v =
  match field name v with
  | None | Some Json.Null -> Ok None
  | Some j -> (
      match Json.to_int j with
      | Some i -> Ok (Some i)
      | None -> Error (invalid "field %S must be an integer or null" name))

let opt_string_field name v =
  match field name v with
  | None | Some Json.Null -> Ok None
  | Some j -> (
      match Json.to_str j with
      | Some s -> Ok (Some s)
      | None -> Error (invalid "field %S must be a string or null" name))

let bool_field ~default name v =
  match field name v with
  | None | Some Json.Null -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (invalid "field %S must be a boolean" name)

let capacities_field v =
  match field "capacities" v with
  | None | Some Json.Null -> Ok None
  | Some (Json.List items) -> (
      let ints = List.map Json.to_int items in
      if List.for_all Option.is_some ints then
        Ok (Some (Array.of_list (List.map Option.get ints)))
      else Error (invalid "field \"capacities\" must be a list of integers"))
  | Some _ -> Error (invalid "field \"capacities\" must be a list of integers")

let ( let* ) = Result.bind

let parse_request line =
  match Json.of_string line with
  | Error reason -> Error (invalid "unparseable JSON: %s" reason)
  | Ok (Json.Obj _ as v) -> (
      let* op = string_field "op" v in
      match op with
      | "ping" -> Ok Ping
      | "plan" ->
          let* graph_text = string_field "graph" v in
          let* cache_words = int_field "cache_words" v in
          let* block_words = int_field ~default:16 "block_words" v in
          let* ways = opt_int_field "ways" v in
          let* capacities = capacities_field v in
          let* dry_run = bool_field ~default:false "dry_run" v in
          let* trace_id = opt_string_field "trace_id" v in
          Ok (Plan { graph_text; cache_words; block_words; ways; capacities;
                     dry_run; trace_id })
      | op -> Error (invalid "unknown op %S (expected \"plan\" or \"ping\")" op))
  | Ok _ -> Error (invalid "request must be a JSON object")

(* --- schedule serialization ----------------------------------------------- *)

(* JSON form: a firing is its node id, a sequence is a list, a repeat is
   {"r":count,"b":body} — compact (run-length encoded like the schedule
   tree itself) and unambiguous. *)
let rec schedule_to_json = function
  | Ccs.Schedule.Fire v -> Json.Int v
  | Ccs.Schedule.Seq items -> Json.List (List.map schedule_to_json items)
  | Ccs.Schedule.Repeat (k, body) ->
      Json.Obj [ ("r", Json.Int k); ("b", schedule_to_json body) ]

(* --- responses ------------------------------------------------------------ *)

let int_array_json a = Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))

(* Everything below elapsed_us is a pure function of the artifact, so a
   cache hit answers bit-identically to the plan build that populated it
   — the equivalence the soak test asserts. *)
let artifact_json (a : artifact) =
  Json.Obj
    [
      ("name", Json.String a.plan_name);
      ("batch", Json.Int a.batch);
      ("components", int_array_json a.components);
      ("capacities", int_array_json a.capacities);
      ("buffer_words", Json.Int a.buffer_words);
      ("period", schedule_to_json a.period);
    ]

let predicted_json (a : artifact) =
  Json.Obj
    [
      ("misses_per_input", Json.Float a.predicted_mpi);
      ("bandwidth_per_input", Json.Float a.bandwidth_per_input);
    ]

(* Echoed only when the client supplied one: a request without a
   trace_id gets a byte-identical response whether server tracing is on
   or off (the tracing bit-identity test). *)
let trace_id_json trace_id =
  match trace_id with
  | None -> []
  | Some id -> [ ("trace_id", Json.String id) ]

let plan_response ?trace_id ~cached ~key ~artifact ~dry_run ~elapsed_us () =
  Json.Obj
    ([
       ("ok", Json.Bool true);
       ("cached", Json.Bool cached);
       ("key", Json.String key);
       ("plan", artifact_json artifact);
       ("predicted", predicted_json artifact);
     ]
    @ (match dry_run with
      | None -> []
      | Some d ->
          [
            ( "dry_run",
              Json.Obj
                [
                  ("outputs", Json.Int d.outputs);
                  ("checksum", Json.Float d.checksum);
                ] );
          ])
    @ trace_id_json trace_id
    @ [ ("elapsed_us", Json.Int elapsed_us) ])

let pong = Json.Obj [ ("ok", Json.Bool true); ("pong", Json.Bool true) ]

let error_response ?trace_id err =
  (* Machine-actionable context rides along with the code: an overloaded
     response tells the client when to come back. *)
  let extra =
    match err with
    | E.Overloaded { retry_after_ms; _ } ->
        [ ("retry_after_ms", Json.Int retry_after_ms) ]
    | _ -> []
  in
  Json.Obj
    ([
       ("ok", Json.Bool false);
       ( "error",
         Json.Obj
           ([
              ("code", Json.String (E.code err));
              ("message", Json.String (E.to_string err));
            ]
           @ extra) );
     ]
    @ trace_id_json trace_id)
