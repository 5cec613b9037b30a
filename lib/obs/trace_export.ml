(* One trace_event object.  [extra] is pre-rendered JSON fields (with a
   leading comma) appended verbatim — every caller builds them from ints
   and escaped strings below. *)
let event buf ~first ~name ~cat ~ph ~ts ~tid ~extra =
  if not first then Buffer.add_char buf ',';
  Buffer.add_string buf "\n{\"name\":";
  Json.escape_string buf name;
  Buffer.add_string buf ",\"cat\":\"";
  Buffer.add_string buf cat;
  Buffer.add_string buf "\",\"ph\":\"";
  Buffer.add_string buf ph;
  Buffer.add_string buf "\",\"pid\":0,\"tid\":";
  Buffer.add_string buf (string_of_int tid);
  Buffer.add_string buf ",\"ts\":";
  Buffer.add_string buf (string_of_int ts);
  Buffer.add_string buf extra;
  Buffer.add_char buf '}'

let metadata buf ~first ~name ~tid ~value =
  if not first then Buffer.add_char buf ',';
  Buffer.add_string buf "\n{\"name\":";
  Json.escape_string buf name;
  Buffer.add_string buf ",\"ph\":\"M\",\"pid\":0,\"tid\":";
  Buffer.add_string buf (string_of_int tid);
  Buffer.add_string buf ",\"ts\":0,\"args\":{\"name\":";
  Json.escape_string buf value;
  Buffer.add_string buf "}}"

let chrome ?(process_name = "ccs simulated machine") ?(thread_names = [])
    ?(summary = []) ~label ~tid tracer =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  metadata buf ~first:!first ~name:"process_name" ~tid:0 ~value:process_name;
  first := false;
  List.iter
    (fun (t, name) -> metadata buf ~first:false ~name:"thread_name" ~tid:t ~value:name)
    thread_names;
  Tracer.iter tracer ~f:(fun (e : Tracer.event) ->
      (match e.Tracer.kind with
      | Tracer.Fire ->
          event buf ~first:false ~name:(label e.Tracer.id) ~cat:"fire" ~ph:"X"
            ~ts:e.Tracer.ts ~tid:(tid e.Tracer.id)
            ~extra:(Printf.sprintf ",\"dur\":%d" e.Tracer.arg)
      | Tracer.Load ->
          event buf ~first:false ~name:(label e.Tracer.id) ~cat:"load" ~ph:"i"
            ~ts:e.Tracer.ts ~tid:(tid e.Tracer.id)
            ~extra:
              (Printf.sprintf ",\"s\":\"t\",\"args\":{\"block\":%d}"
                 e.Tracer.arg)
      | Tracer.Evict ->
          event buf ~first:false ~name:(label e.Tracer.id) ~cat:"evict"
            ~ph:"i" ~ts:e.Tracer.ts ~tid:(tid e.Tracer.id)
            ~extra:
              (Printf.sprintf ",\"s\":\"t\",\"args\":{\"victim\":%d}"
                 e.Tracer.arg)
      | Tracer.Stall ->
          event buf ~first:false ~name:(label e.Tracer.id) ~cat:"stall"
            ~ph:"i" ~ts:e.Tracer.ts ~tid:(tid e.Tracer.id)
            ~extra:",\"s\":\"t\""));
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\",\"ccs\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Json.escape_string buf k;
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int v))
    (("events", Tracer.length tracer)
    :: ("dropped_events", Tracer.dropped tracer)
    :: summary);
  Buffer.add_string buf "}}";
  Buffer.contents buf

(* Span forest → Chrome trace_event JSON: one track (tid) per source
   (worker/file), one complete "X" event per span with trace_id /
   span_id / parent carried in args so Perfetto's flow queries can
   stitch a request back together across stages. *)
let chrome_spans ?(process_name = "ccsched serve") sources =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  metadata buf ~first:true ~name:"process_name" ~tid:0 ~value:process_name;
  List.iteri
    (fun tid (label, _) ->
      metadata buf ~first:false ~name:"thread_name" ~tid ~value:label)
    sources;
  let total = ref 0 in
  List.iteri
    (fun tid (_, spans) ->
      List.iter
        (fun (s : Span.span) ->
          incr total;
          let extra = Buffer.create 96 in
          Buffer.add_string extra
            (Printf.sprintf ",\"dur\":%d,\"args\":{\"trace_id\":"
               (Span.duration_us s));
          Json.escape_string extra s.Span.trace_id;
          Buffer.add_string extra
            (Printf.sprintf ",\"span_id\":%d,\"parent\":%d}" s.Span.span_id
               s.Span.parent);
          event buf ~first:false ~name:s.Span.stage ~cat:"serve" ~ph:"X"
            ~ts:s.Span.start_us ~tid ~extra:(Buffer.contents extra))
        spans)
    sources;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\",\"ccs\":{";
  Json.escape_string buf "spans";
  Buffer.add_char buf ':';
  Buffer.add_string buf (string_of_int !total);
  Buffer.add_string buf "}}";
  Buffer.contents buf

(* Atomic write (the shared Binio discipline): a crash mid-export leaves
   the previous file (or nothing) on disk — never a truncated,
   unparseable JSON document — and concurrent exporters cannot clobber
   each other's temp file. *)
let write ~path doc = Ccs_sdf.Binio.write_atomic ~path (doc ^ "\n")

let entity_summary counters ~label =
  let rows = ref [] in
  for i = Counters.entities counters - 1 downto 0 do
    let a = Counters.accesses counters i in
    if a > 0 then rows := (label i, a, Counters.misses counters i) :: !rows
  done;
  List.sort
    (fun (_, a1, m1) (_, a2, m2) ->
      if m1 <> m2 then compare m2 m1 else compare a2 a1)
    !rows
