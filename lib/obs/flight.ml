module Binio = Ccs_sdf.Binio
module E = Ccs_sdf.Error

let magic = "CCSFLGT1"
let version = 1

type t = {
  spans : Span.t;
  logs : string array;
  log_cap : int;
  mutable log_total : int;
  mutable dumps : int;
}

let create ?(span_capacity = 256) ?(log_capacity = 128) () =
  let log_cap = max 1 log_capacity in
  {
    spans = Span.create ~capacity:span_capacity ();
    logs = Array.make log_cap "";
    log_cap;
    log_total = 0;
    dumps = 0;
  }

let spans t = t.spans

let note_log t line =
  t.logs.(t.log_total mod t.log_cap) <- line;
  t.log_total <- t.log_total + 1

let recent_logs t =
  let n = min t.log_total t.log_cap in
  let first = t.log_total - n in
  List.init n (fun i -> t.logs.((first + i) mod t.log_cap))


type dump = {
  trigger : string;
  pid : int;
  at_us : int;
  seq : int;
  dropped_spans : int;
  spans : Span.span list;
  logs : string list;
}

let snapshot t ~trigger ~pid ~at_us =
  let seq = t.dumps in
  t.dumps <- seq + 1;
  {
    trigger;
    pid;
    at_us;
    seq;
    dropped_spans = Span.dropped t.spans;
    spans = Span.to_list t.spans;
    logs = recent_logs t;
  }

let encode (d : dump) =
  let w = Binio.W.create () in
  Binio.W.string w d.trigger;
  Binio.W.int w d.pid;
  Binio.W.int w d.at_us;
  Binio.W.int w d.seq;
  Binio.W.int w d.dropped_spans;
  Binio.W.int w (List.length d.spans);
  List.iter
    (fun (s : Span.span) ->
      Binio.W.string w s.trace_id;
      Binio.W.int w s.span_id;
      Binio.W.int w s.parent;
      Binio.W.string w s.stage;
      Binio.W.int w s.start_us;
      Binio.W.int w s.end_us)
    d.spans;
  Binio.W.int w (List.length d.logs);
  List.iter (fun l -> Binio.W.string w l) d.logs;
  Binio.W.contents w

let write ~path d = Binio.write_file ~path ~magic ~version (encode d)

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()

let dump t ~dir ~trigger ~pid ~at_us =
  ensure_dir dir;
  (* One file per (worker, trigger), newest wins: a graceful-shutdown
     dump can never clobber the deadline-exceeded evidence. *)
  let path =
    Filename.concat dir (Printf.sprintf "worker-%d-%s.ccsflight" pid trigger)
  in
  write ~path (snapshot t ~trigger ~pid ~at_us);
  path

let corrupt ~path reason =
  raise (E.Error (E.Checkpoint_corrupt { path; reason }))

let count ~path r what =
  let n = Binio.R.int r in
  if n < 0 then corrupt ~path (Printf.sprintf "negative %s count %d" what n);
  n

let load ~path =
  match Binio.read_file ~path ~magic ~version () with
  | Error e -> Error e
  | Ok payload ->
      E.protect (fun () ->
          let r = Binio.R.of_string ~path payload in
          let trigger = Binio.R.string r in
          let pid = Binio.R.int r in
          let at_us = Binio.R.int r in
          let seq = Binio.R.int r in
          let dropped_spans = Binio.R.int r in
          let nspans = count ~path r "span" in
          let spans =
            List.init nspans (fun _ ->
                let trace_id = Binio.R.string r in
                let span_id = Binio.R.int r in
                let parent = Binio.R.int r in
                let stage = Binio.R.string r in
                let start_us = Binio.R.int r in
                let end_us = Binio.R.int r in
                { Span.trace_id; span_id; parent; stage; start_us; end_us })
          in
          let nlogs = count ~path r "log" in
          let logs = List.init nlogs (fun _ -> Binio.R.string r) in
          Binio.R.expect_end r;
          { trigger; pid; at_us; seq; dropped_spans; spans; logs })
