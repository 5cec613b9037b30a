(* Regression diff over two bench JSON documents (bench/main.exe --json).

   The harness is deterministic by construction: every field (miss counts,
   attribution, buffer sizes, predicted bounds, equivalence flags) must be
   bit-identical between two runs of the same code, so any changed,
   added or removed field is a finding.  Wall-clock time is not recorded
   by the harness at all; perfbench/ measures it.

   Experiments are paired by id.  Records within an experiment are paired
   by their "id" member when every record on both sides carries a unique
   string id (experiments like E22 whose record set varies with the app
   list), positionally otherwise — the harness emits records in a fixed
   order, so a changed record count or order is itself a regression
   signal. *)

module Json = Ccs_obs.Json

type finding = {
  experiment : string;
  record : int option; (* record index, [None] for experiment-level *)
  field : string;
  old_value : string;
  new_value : string;
  detail : string;
}

type report = {
  findings : finding list;
  experiments_compared : int;
  records_compared : int;
  old_only : string list; (* ids present only in the old document *)
  new_only : string list;
}

let has_failures r = r.findings <> []

let show = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Int i -> string_of_int i
  | Json.Float f -> Json.float_to_string f
  | Json.String s -> s
  | (Json.List _ | Json.Obj _) as v -> Json.to_string v

let compare_field ~experiment ~record ~field old_v new_v acc =
  let finding old_value new_value detail =
    { experiment; record; field; old_value; new_value; detail } :: acc
  in
  match (old_v, new_v) with
  | Some ov, Some nv when ov = nv -> acc
  | Some ov, Some nv -> finding (show ov) (show nv) "field changed"
  | Some ov, None -> finding (show ov) "<absent>" "field disappeared"
  | None, Some nv -> finding "<absent>" (show nv) "field appeared"
  | None, None -> acc

let obj_fields = function Json.Obj fields -> fields | _ -> []

(* Union of keys, old-document order first, preserving first appearance. *)
let union_keys old_fields new_fields =
  let keys = List.map fst old_fields @ List.map fst new_fields in
  List.rev
    (List.fold_left
       (fun acc k -> if List.mem k acc then acc else k :: acc)
       [] keys)

let compare_obj ~experiment ~record old_obj new_obj acc =
  let old_fields = obj_fields old_obj and new_fields = obj_fields new_obj in
  List.fold_left
    (fun acc field ->
      compare_field ~experiment ~record ~field
        (List.assoc_opt field old_fields)
        (List.assoc_opt field new_fields)
        acc)
    acc
    (union_keys old_fields new_fields)

let experiment_id e =
  match Json.member "experiment" e with
  | Some (Json.String id) -> Some id
  | _ -> None

let record_id r =
  match Json.member "id" r with Some (Json.String s) -> Some s | _ -> None

(* Id-based pairing applies only when it is unambiguous: every record has
   a string "id" and no id repeats.  Returns the records tagged with their
   index and id, or [None] to pair by position. *)
let tag_by_id rs =
  let rec go i acc = function
    | [] -> Some (List.rev acc)
    | r :: rest -> (
        match record_id r with
        | Some rid when not (List.exists (fun (_, id, _) -> id = rid) acc) ->
            go (i + 1) ((i, rid, r) :: acc) rest
        | _ -> None)
  in
  go 0 [] rs

let experiment_records e =
  match Json.member "records" e with Some (Json.List rs) -> rs | _ -> []

let experiments doc =
  match Json.member "experiments" doc with
  | Some (Json.List es) -> List.filter_map (fun e ->
      Option.map (fun id -> (id, e)) (experiment_id e)) es
  | _ -> []

let diff ~old_doc ~new_doc =
  let old_es = experiments old_doc and new_es = experiments new_doc in
  let records_compared = ref 0 in
  let findings, compared =
    List.fold_left
      (fun (acc, compared) (id, old_e) ->
        match List.assoc_opt id new_es with
        | None -> (acc, compared)
        | Some new_e ->
            let old_rs = experiment_records old_e
            and new_rs = experiment_records new_e in
            (* Experiment-level fields (id, description): everything but
               the records, which are paired below. *)
            let header e =
              Json.Obj (List.remove_assoc "records" (obj_fields e))
            in
            let acc =
              compare_obj ~experiment:id ~record:None (header old_e)
                (header new_e) acc
            in
            let record_finding i ~old_value ~new_value detail acc =
              {
                experiment = id;
                record = Some i;
                field = "id";
                old_value;
                new_value;
                detail;
              }
              :: acc
            in
            let acc =
              match (tag_by_id old_rs, tag_by_id new_rs) with
              | Some old_tagged, Some new_tagged ->
                  (* Pair records by id: dropped and added ids are findings,
                     shared ids are compared field by field. *)
                  let acc =
                    List.fold_left
                      (fun acc (i, rid, o) ->
                        match
                          List.find_opt (fun (_, nid, _) -> nid = rid)
                            new_tagged
                        with
                        | Some (_, _, n) ->
                            incr records_compared;
                            compare_obj ~experiment:id ~record:(Some i) o n acc
                        | None ->
                            record_finding i ~old_value:rid
                              ~new_value:"<absent>" "record disappeared" acc)
                      acc old_tagged
                  in
                  List.fold_left
                    (fun acc (i, rid, _) ->
                      if List.exists (fun (_, oid, _) -> oid = rid) old_tagged
                      then acc
                      else
                        record_finding i ~old_value:"<absent>" ~new_value:rid
                          "record appeared" acc)
                    acc new_tagged
              | _ ->
                  let n_old = List.length old_rs
                  and n_new = List.length new_rs in
                  let acc =
                    if n_old <> n_new then
                      {
                        experiment = id;
                        record = None;
                        field = "records";
                        old_value = string_of_int n_old;
                        new_value = string_of_int n_new;
                        detail = "record count changed";
                      }
                      :: acc
                    else acc
                  in
                  let rec pairs i acc = function
                    | o :: os, n :: ns ->
                        incr records_compared;
                        pairs (i + 1)
                          (compare_obj ~experiment:id ~record:(Some i) o n acc)
                          (os, ns)
                    | _ -> acc
                  in
                  pairs 0 acc (old_rs, new_rs)
            in
            (acc, compared + 1))
      ([], 0) old_es
  in
  let only_in es others =
    List.filter_map
      (fun (id, _) ->
        if List.mem_assoc id others then None else Some id)
      es
  in
  {
    findings = List.rev findings;
    experiments_compared = compared;
    records_compared = !records_compared;
    old_only = only_in old_es new_es;
    new_only = only_in new_es old_es;
  }

let read_doc path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text -> (
      match Json.of_string text with
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Ok doc -> Ok doc)

let diff_files ~old_path ~new_path =
  match read_doc old_path with
  | Error msg -> Error msg
  | Ok old_doc -> (
      match read_doc new_path with
      | Error msg -> Error msg
      | Ok new_doc -> Ok (diff ~old_doc ~new_doc))

let pp_finding fmt f =
  Format.fprintf fmt "FAIL %s%s %s: %s -> %s (%s)" f.experiment
    (match f.record with
    | Some i -> Printf.sprintf "[%d]" i
    | None -> "")
    f.field f.old_value f.new_value f.detail

let pp fmt r =
  Format.fprintf fmt "compared %d experiments (%d records): %d regression(s)@."
    r.experiments_compared r.records_compared (List.length r.findings);
  if r.old_only <> [] then
    Format.fprintf fmt "only in old run (not compared): %s@."
      (String.concat " " r.old_only);
  if r.new_only <> [] then
    Format.fprintf fmt "only in new run (not compared): %s@."
      (String.concat " " r.new_only);
  List.iter (fun f -> Format.fprintf fmt "%a@." pp_finding f) r.findings
