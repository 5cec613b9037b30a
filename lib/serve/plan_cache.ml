module E = Ccs.Error
module Binio = Ccs.Binio

let magic = "CCSPLAN1"
let version = 1

let path ~dir key = Filename.concat dir (Ccs.Plan_key.digest key ^ ".ccsplan")

let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then ensure_dir parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Schedule trees on the wire: 0 = Fire node, 1 = Seq length items...,
   2 = Repeat count body. *)
let rec encode_schedule w = function
  | Ccs.Schedule.Fire v ->
      Binio.W.int w 0;
      Binio.W.int w v
  | Ccs.Schedule.Seq items ->
      Binio.W.int w 1;
      Binio.W.int w (List.length items);
      List.iter (encode_schedule w) items
  | Ccs.Schedule.Repeat (k, body) ->
      Binio.W.int w 2;
      Binio.W.int w k;
      encode_schedule w body

let rec decode_schedule ~path r =
  match Binio.R.int r with
  | 0 -> Ccs.Schedule.Fire (Binio.R.int r)
  | 1 ->
      let n = Binio.R.int r in
      if n < 0 then
        E.fail
          (E.Checkpoint_corrupt
             { path; reason = Printf.sprintf "negative sequence length %d" n });
      let items = ref [] in
      for _ = 1 to n do
        items := decode_schedule ~path r :: !items
      done;
      Ccs.Schedule.Seq (List.rev !items)
  | 2 ->
      let k = Binio.R.int r in
      Ccs.Schedule.Repeat (k, decode_schedule ~path r)
  | tag ->
      E.fail
        (E.Checkpoint_corrupt
           { path; reason = Printf.sprintf "unknown schedule tag %d" tag })

let encode_artifact w (a : Protocol.artifact) =
  Binio.W.string w a.plan_name;
  Binio.W.int w a.batch;
  Binio.W.int_array w a.components;
  Binio.W.int_array w a.capacities;
  Binio.W.float w a.predicted_mpi;
  Binio.W.float w a.bandwidth_per_input;
  Binio.W.int w a.buffer_words;
  encode_schedule w a.period

let decode_artifact ~path r : Protocol.artifact =
  let plan_name = Binio.R.string r in
  let batch = Binio.R.int r in
  let components = Binio.R.int_array r in
  let capacities = Binio.R.int_array r in
  let predicted_mpi = Binio.R.float r in
  let bandwidth_per_input = Binio.R.float r in
  let buffer_words = Binio.R.int r in
  let period = decode_schedule ~path r in
  {
    plan_name;
    batch;
    components;
    capacities;
    period;
    predicted_mpi;
    bandwidth_per_input;
    buffer_words;
  }

let store ~dir ~key artifact =
  ensure_dir dir;
  let w = Binio.W.create () in
  Ccs.Plan_key.encode w key;
  encode_artifact w artifact;
  Binio.write_file ~path:(path ~dir key) ~magic ~version (Binio.W.contents w)

let lookup ~dir ~key =
  let p = path ~dir key in
  if not (Sys.file_exists p) then Ok None
  else
    match Binio.read_file ~path:p ~magic ~version () with
    | Error e -> Error e
    | Ok payload ->
        Result.map Option.some
          (E.protect (fun () ->
               let r = Binio.R.of_string ~path:p payload in
               let found = Ccs.Plan_key.decode ~path:p r in
               (match Ccs.Plan_key.check ~path:p ~expected:key ~found with
               | Ok () -> ()
               | Error e -> E.fail e);
               let a = decode_artifact ~path:p r in
               Binio.R.expect_end r;
               a))

module Bounded = struct
  (* The bounded store's durable index is the directory itself: each
     record is one file and its mtime is its recency (bumped on every
     hit), so the index survives any crash by construction.  In memory
     the handle keeps only each record's size, for the byte and entry
     gauges: eviction re-scans the directory, so records written by
     sibling workers count against the bound too. *)

  type bounds = { max_bytes : int; max_entries : int }

  let unbounded = { max_bytes = 0; max_entries = 0 }

  type t = {
    dir : string;
    bounds : bounds;
    log : Ccs.Log.t;
    sizes : (string, int) Hashtbl.t; (* digest -> record bytes *)
    mutable bytes : int;
    mutable evictions : int;
    mutable quarantined : int;
  }

  let quarantine_dir dir = Filename.concat dir "quarantine"
  let is_record f = Filename.check_suffix f ".ccsplan"
  let digest_of_file f = Filename.chop_suffix f ".ccsplan"

  let bytes t = t.bytes
  let entries t = Hashtbl.length t.sizes
  let evictions t = t.evictions
  let quarantined t = t.quarantined

  let forget t digest =
    match Hashtbl.find_opt t.sizes digest with
    | Some sz ->
        Hashtbl.remove t.sizes digest;
        t.bytes <- t.bytes - sz
    | None -> ()

  let remember t digest sz =
    forget t digest;
    Hashtbl.replace t.sizes digest sz;
    t.bytes <- t.bytes + sz

  let quarantine t p reason =
    ensure_dir (quarantine_dir t.dir);
    let dst = Filename.concat (quarantine_dir t.dir) (Filename.basename p) in
    (try Sys.rename p dst
     with Sys_error _ -> ( try Sys.remove p with Sys_error _ -> ()));
    forget t (digest_of_file (Filename.basename p));
    t.quarantined <- t.quarantined + 1;
    Ccs.Log.warn t.log "plan-store record quarantined"
      [ ("path", Ccs.Json.String p); ("reason", Ccs.Json.String reason) ]

  type record = { path : string; digest : string; size : int; mtime : float }

  let scan dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | files ->
        Array.to_list files
        |> List.filter_map (fun f ->
               if not (is_record f) then None
               else
                 let p = Filename.concat dir f in
                 match Unix.stat p with
                 | exception Unix.Unix_error _ ->
                     None (* raced with an eviction elsewhere *)
                 | st when st.Unix.st_kind = Unix.S_REG ->
                     Some
                       {
                         path = p;
                         digest = digest_of_file f;
                         size = st.Unix.st_size;
                         mtime = st.Unix.st_mtime;
                       }
                 | _ -> None)

  (* Stable, so records with equal mtimes keep readdir order. *)
  let oldest_first recs =
    List.sort (fun a b -> compare (a.mtime : float) b.mtime) recs

  let over t =
    (t.bounds.max_bytes > 0 && bytes t > t.bounds.max_bytes)
    || (t.bounds.max_entries > 0 && entries t > t.bounds.max_entries)

  (* Evict least-recent records until within bounds.  The directory is
     shared between sibling workers, so the local sizes undercount: when
     any bound is set, re-scan before judging — that both counts the
     siblings' records against the bound and makes the globally oldest
     record go first.  (With no bounds this is a no-op, so the common
     unbounded store never pays for the scan.) *)
  let enforce t =
    if t.bounds.max_bytes > 0 || t.bounds.max_entries > 0 then begin
      let recs = oldest_first (scan t.dir) in
      Hashtbl.clear t.sizes;
      t.bytes <- 0;
      List.iter (fun r -> remember t r.digest r.size) recs;
      List.iter
        (fun r ->
          if over t then begin
            (try Sys.remove r.path with Sys_error _ -> ());
            forget t r.digest;
            t.evictions <- t.evictions + 1;
            Ccs.Log.info t.log "plan-store eviction"
              [ ("digest", Ccs.Json.String r.digest) ]
          end)
        recs
    end

  let validate ~path:p ~digest =
    match Binio.read_file ~path:p ~magic ~version () with
    | Error e -> Error e
    | Ok payload ->
        E.protect (fun () ->
            let r = Binio.R.of_string ~path:p payload in
            let found = Ccs.Plan_key.decode ~path:p r in
            if not (String.equal (Ccs.Plan_key.digest found) digest) then
              E.fail
                (E.Checkpoint_mismatch
                   {
                     path = p;
                     field = "key digest";
                     expected = digest;
                     found = Ccs.Plan_key.digest found;
                   });
            let _ = decode_artifact ~path:p r in
            Binio.R.expect_end r)

  let create ?(log = Ccs.Log.null) ~dir ~bounds () =
    ensure_dir dir;
    let t =
      {
        dir;
        bounds;
        log;
        sizes = Hashtbl.create 64;
        bytes = 0;
        evictions = 0;
        quarantined = 0;
      }
    in
    List.iter
      (fun r ->
        match validate ~path:r.path ~digest:r.digest with
        | Ok () -> remember t r.digest r.size
        | Error e -> quarantine t r.path (E.to_string e))
      (oldest_first (scan dir));
    enforce t;
    Ccs.Log.info log "plan-store opened"
      [
        ("entries", Ccs.Json.Int (entries t));
        ("bytes", Ccs.Json.Int (bytes t));
        ("quarantined", Ccs.Json.Int t.quarantined);
      ];
    t

  let store t ~key artifact =
    store ~dir:t.dir ~key artifact;
    let p = path ~dir:t.dir key in
    let sz = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0 in
    remember t (Ccs.Plan_key.digest key) sz;
    enforce t

  let lookup t ~key =
    let digest = Ccs.Plan_key.digest key in
    match lookup ~dir:t.dir ~key with
    | Ok None ->
        (* evicted (possibly by a sibling worker) — forget it *)
        forget t digest;
        None
    | Ok (Some a) ->
        let p = path ~dir:t.dir key in
        (* bump durable recency; the file may have just been evicted
           under us, in which case the next rescan forgets it *)
        (try Unix.utimes p 0.0 0.0 with Unix.Unix_error _ -> ());
        let sz = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0 in
        remember t digest sz;
        Some a
    | Error e ->
        (* torn, corrupt or mismatched record: quarantine it and report a
           miss so the caller rebuilds (planning is deterministic, so the
           rebuilt record is bit-identical to a healthy one) *)
        quarantine t (path ~dir:t.dir key) (E.to_string e);
        None
end
