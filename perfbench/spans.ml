(* The traced run's span recorder: a span around each call the harness
   makes into a library layer, kept in an in-memory [Ccs.Span] ring and
   written out once at the end.  The untraced run never builds one, so
   its timings carry no recording cost. *)

type t = {
  ring : Ccs.Span.t;
  run_id : string;
  mutable open_ids : int list;  (* innermost first *)
}

let create ~capacity ~run_id =
  { ring = Ccs.Span.create ~capacity (); run_id; open_ids = [] }

(* Room left before the ring would overwrite a span.  Traced loops stop
   early rather than drop one, so [dropped] stays 0. *)
let room t = Ccs.Span.capacity t.ring - Ccs.Span.length t.ring

let dropped t = Ccs.Span.dropped t.ring
let to_list t = Ccs.Span.to_list t.ring

(* [with_span t stage f] runs [f] as a child of the innermost open span. *)
let with_span t stage f =
  let span_id = Ccs.Span.fresh_id t.ring in
  let parent = match t.open_ids with p :: _ -> p | [] -> -1 in
  t.open_ids <- span_id :: t.open_ids;
  let start_us = Ccs.Clock.now_us () in
  let finish () =
    t.open_ids <- List.tl t.open_ids;
    Ccs.Span.record t.ring ~trace_id:t.run_id ~span_id ~parent ~stage
      ~start_us ~end_us:(Ccs.Clock.now_us ())
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* Tracing is optional at every call site: [None] runs [f] bare. *)
let opt tr stage f = match tr with None -> f () | Some t -> with_span t stage f

(* Microseconds of [lo, hi) covered by the union of [intervals]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = max lo s and e = min hi e in
        if e > s then Some (s, e) else None)
      intervals
    |> List.sort compare
  in
  let total, _ =
    List.fold_left
      (fun (total, reach) (s, e) ->
        let s = max s reach in
        if e > s then (total + (e - s), e) else (total, reach))
      (0, lo) clipped
  in
  total

(* Self time of every span: its duration minus the part of its interval
   that its direct children cover.  Summed per stage name, in
   microseconds, in order of first appearance. *)
let self_times (spans : Ccs.Span.span list) =
  let children = Hashtbl.create 256 in
  List.iter
    (fun (s : Ccs.Span.span) ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start_us, s.end_us)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let order = ref [] and totals = Hashtbl.create 32 in
  List.iter
    (fun (s : Ccs.Span.span) ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.span_id) in
      let self =
        Ccs.Span.duration_us s - covered ~lo:s.start_us ~hi:s.end_us kids
      in
      match Hashtbl.find_opt totals s.stage with
      | Some (total, count) -> Hashtbl.replace totals s.stage (total + self, count + 1)
      | None ->
          order := s.stage :: !order;
          Hashtbl.replace totals s.stage (self, 1))
    spans;
  List.rev_map (fun stage -> (stage, Hashtbl.find totals stage)) !order

let write_chrome t ~path ~label =
  Ccs.Trace_export.write ~path
    (Ccs.Trace_export.chrome_spans ~process_name:"perfbench" [ (label, to_list t) ])

(* A span measured by the caller, for work that overlaps other spans
   (a request in flight while the client waits on several). *)
let record t stage ~start_us ~end_us =
  let parent = match t.open_ids with p :: _ -> p | [] -> -1 in
  Ccs.Span.record t.ring ~trace_id:t.run_id ~span_id:(Ccs.Span.fresh_id t.ring)
    ~parent ~stage ~start_us ~end_us
