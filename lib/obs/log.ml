type level = Debug | Info | Warn | Error

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type t = {
  threshold : level;
  sink : string -> unit;
  mutable seq : int; (* lines emitted, a deterministic per-run ordinal *)
  now : (unit -> int) option;
      (* opt-in wall clock: when set, each line carries "ts_us".  Off by
         default so deterministic-seq tests and byte-identical
         double-run gates are unchanged. *)
}

let make ?(level = Info) ?now sink = { threshold = level; sink; seq = 0; now }

(* Flushed per line: channel loggers serve long-running processes
   (the daemon's preforked workers log to an inherited stderr and can
   die on a signal at any moment), so a line must be durable the
   moment it is emitted, not at channel-buffer pressure or exit. *)
let to_channel ?level ?now oc =
  make ?level ?now (fun line ->
      output_string oc line;
      output_char oc '\n';
      flush oc)

let to_buffer ?level ?now buf =
  make ?level ?now (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')

let null = { threshold = Error; sink = ignore; seq = 0; now = None }

let tee t extra =
  (* Mirrors every rendered line into [extra] as well as the original
     sink — the daemon routes log lines into the flight recorder's ring
     this way.  Shares nothing mutable with [t]: wrap once at process
     start (each preforked worker wraps its inherited logger). *)
  {
    threshold = t.threshold;
    sink =
      (fun line ->
        t.sink line;
        extra line);
    seq = t.seq;
    now = t.now;
  }

let enabled t l = level_rank l >= level_rank t.threshold
let lines t = t.seq

(* One JSON object per line: {"seq":N,"lvl":"...","ev":"...", ...fields}.
   Field values are rendered with the shared JSON emitter, so any string
   content is safely escaped.  Nothing is formatted unless the level
   passes, so a logger parked above Debug costs one comparison per call
   site. *)
let log t l event fields =
  if enabled t l then begin
    let buf = Buffer.create 96 in
    Buffer.add_string buf "{\"seq\":";
    Buffer.add_string buf (string_of_int t.seq);
    (match t.now with
    | None -> ()
    | Some now ->
        Buffer.add_string buf ",\"ts_us\":";
        Buffer.add_string buf (string_of_int (now ())));
    Buffer.add_string buf ",\"lvl\":\"";
    Buffer.add_string buf (level_name l);
    Buffer.add_string buf "\",\"ev\":";
    Json.escape_string buf event;
    List.iter
      (fun (k, v) ->
        Buffer.add_char buf ',';
        Json.escape_string buf k;
        Buffer.add_char buf ':';
        Buffer.add_string buf (Json.to_string v))
      fields;
    Buffer.add_char buf '}';
    t.seq <- t.seq + 1;
    t.sink (Buffer.contents buf)
  end

let info t event fields = log t Info event fields
let warn t event fields = log t Warn event fields
let error t event fields = log t Error event fields
