(* All live values are slots in one growable flat int array owned by the
   registry: a counter or gauge is one slot, a histogram is a contiguous
   [2 + buckets] slice (count, sum, per-bucket counts).  Handles carry the
   registry plus a base index, so the hot-path operations are two loads
   and a store — no allocation, no boxing, no hashing. *)

let num_buckets = 63
(* Bucket [k] holds observations [v] with [bits v = k], i.e. values in
   [2^(k-1), 2^k); bucket 0 holds [v <= 0].  63 buckets cover every OCaml
   int. *)

type kind = Counter | Gauge | Histogram

type series = {
  name : string;
  labels : (string * string) list;
  mutable help : string;
  kind : kind;
  base : int; (* first slot in [cells] *)
}

type t = {
  mutable cells : int array;
  mutable used : int;
  mutable series : series list; (* newest first *)
  mutable count : int;
}

type counter = { ct : t; cbase : int }
type gauge = { gt : t; gbase : int }
type histogram = { ht : t; hbase : int }

let create () = { cells = Array.make 64 0; used = 0; series = []; count = 0 }

let valid_name name =
  String.length name > 0
  && (match name.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name

let valid_label_name name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       name

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let alloc t n =
  let need = t.used + n in
  if need > Array.length t.cells then begin
    let size = ref (2 * Array.length t.cells) in
    while !size < need do
      size := 2 * !size
    done;
    let bigger = Array.make !size 0 in
    Array.blit t.cells 0 bigger 0 t.used;
    t.cells <- bigger
  end;
  let base = t.used in
  t.used <- need;
  base

(* Registration is idempotent on (name, labels): re-registering an
   existing series returns the same slots, so layered instrumentation
   (machine + supervisor + CLI) can share one registry without
   coordination.  Re-registering under a different kind is a programming
   error and raises.  A series registered without help text takes the
   first non-empty help it is re-registered with. *)
let register t ~kind ~help ~labels name =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name);
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg (Printf.sprintf "Metrics: invalid label name %S" k))
    labels;
  match
    List.find_opt (fun s -> s.name = name && s.labels = labels) t.series
  with
  | Some s ->
      if s.kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s already registered as a %s" name
             (kind_name s.kind));
      if s.help = "" then s.help <- help;
      s.base
  | None ->
      (match List.find_opt (fun s -> s.name = name) t.series with
      | Some s when s.kind <> kind ->
          invalid_arg
            (Printf.sprintf "Metrics: %s already registered as a %s" name
               (kind_name s.kind))
      | _ -> ());
      let slots =
        match kind with Counter | Gauge -> 1 | Histogram -> 2 + num_buckets
      in
      let base = alloc t slots in
      t.series <- { name; labels; help; kind; base } :: t.series;
      t.count <- t.count + 1;
      base

let counter t ?(help = "") ?(labels = []) name =
  { ct = t; cbase = register t ~kind:Counter ~help ~labels name }

let gauge t ?(help = "") ?(labels = []) name =
  { gt = t; gbase = register t ~kind:Gauge ~help ~labels name }

let histogram t ?(help = "") ?(labels = []) name =
  { ht = t; hbase = register t ~kind:Histogram ~help ~labels name }

let num_series t = t.count

(* --- hot path -------------------------------------------------------------- *)

let inc c = c.ct.cells.(c.cbase) <- c.ct.cells.(c.cbase) + 1
let add c n = c.ct.cells.(c.cbase) <- c.ct.cells.(c.cbase) + n
let set g v = g.gt.cells.(g.gbase) <- v

(* Log bucket index: the bit length of [v] ([0] for non-positive values). *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let k = ref 0 and v = ref v in
    while !v > 0 do
      incr k;
      v := !v lsr 1
    done;
    !k
  end

let observe h v =
  let cells = h.ht.cells in
  cells.(h.hbase) <- cells.(h.hbase) + 1;
  cells.(h.hbase + 1) <- cells.(h.hbase + 1) + v;
  let b = h.hbase + 2 + bucket_of v in
  cells.(b) <- cells.(b) + 1

(* --- readback -------------------------------------------------------------- *)

let counter_value c = c.ct.cells.(c.cbase)
let gauge_value g = g.gt.cells.(g.gbase)
let histogram_count h = h.ht.cells.(h.hbase)
let histogram_sum h = h.ht.cells.(h.hbase + 1)

let histogram_buckets h =
  List.init num_buckets (fun k -> h.ht.cells.(h.hbase + 2 + k))

(* Upper bound of bucket [k]: the largest value whose bit length is [k].
   Bucket 0 (v <= 0) gets the bound 0. *)
let bucket_le k = if k = 0 then 0 else (1 lsl k) - 1

let find t ?(labels = []) name =
  List.find_opt (fun s -> s.name = name && s.labels = labels) t.series

let value t ?labels name =
  Option.map (fun s -> t.cells.(s.base)) (find t ?labels name)

(* --- absorbing snapshots --------------------------------------------------- *)

(* The scrape merge: add one [to_json] document into [t], series by
   series.  Snapshot files are input from outside the process, so an
   entry that [register] would reject (no name, an invalid metric or
   label name, a kind clash) is skipped, never raised. *)
let absorb t doc =
  let int_field v f =
    Option.bind (Json.member f v) Json.to_int |> Option.value ~default:0
  in
  let bump slot n = t.cells.(slot) <- t.cells.(slot) + n in
  let entry kind v =
    match Json.member "name" v with
    | Some (Json.String name) -> (
        let labels =
          match Json.member "labels" v with
          | Some (Json.Obj fields) ->
              List.filter_map
                (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
                fields
          | _ -> []
        in
        let help =
          match Json.member "help" v with Some (Json.String h) -> h | _ -> ""
        in
        match register t ~kind ~help ~labels name with
        | exception Invalid_argument _ -> ()
        | base -> (
            match kind with
            | Counter | Gauge -> bump base (int_field v "value")
            | Histogram ->
                bump base (int_field v "count");
                bump (base + 1) (int_field v "sum");
                Option.bind (Json.member "buckets" v) Json.to_list
                |> Option.value ~default:[]
                |> List.iter (fun b ->
                       match
                         ( Option.bind (Json.member "le" b) Json.to_int,
                           Option.bind (Json.member "count" b) Json.to_int )
                       with
                       | Some le, Some n -> bump (base + 2 + bucket_of le) n
                       | _ -> ())))
    | _ -> ()
  in
  List.iter
    (fun (section, kind) ->
      Option.bind (Json.member section doc) Json.to_list
      |> Option.value ~default:[]
      |> List.iter (entry kind))
    [ ("counters", Counter); ("gauges", Gauge); ("histograms", Histogram) ]

(* --- exposition ------------------------------------------------------------ *)

(* Prometheus text format, metric and label escaping per the exposition
   format spec: HELP text escapes backslash and newline; label values
   escape backslash, double quote and newline. *)
let escape_help buf s =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s

let escape_label_value buf s =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s

let add_labels buf labels =
  if labels <> [] then begin
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        escape_label_value buf v;
        Buffer.add_char buf '"')
      labels;
    Buffer.add_char buf '}'
  end

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let seen_header = Hashtbl.create 16 in
  let header s =
    (* One HELP/TYPE pair per metric name, before its first sample. *)
    if not (Hashtbl.mem seen_header s.name) then begin
      Hashtbl.add seen_header s.name ();
      if s.help <> "" then begin
        Buffer.add_string buf "# HELP ";
        Buffer.add_string buf s.name;
        Buffer.add_char buf ' ';
        escape_help buf s.help;
        Buffer.add_char buf '\n'
      end;
      Buffer.add_string buf "# TYPE ";
      Buffer.add_string buf s.name;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (kind_name s.kind);
      Buffer.add_char buf '\n'
    end
  in
  List.iter
    (fun s ->
      header s;
      match s.kind with
      | Counter | Gauge ->
          Buffer.add_string buf s.name;
          add_labels buf s.labels;
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int t.cells.(s.base));
          Buffer.add_char buf '\n'
      | Histogram ->
          let cumulative = ref 0 in
          for k = 0 to num_buckets - 1 do
            let n = t.cells.(s.base + 2 + k) in
            cumulative := !cumulative + n;
            (* Only emit buckets up to the last populated one (plus +Inf):
               63 mostly-empty lines per histogram would drown the page. *)
            if n > 0 then begin
              Buffer.add_string buf s.name;
              Buffer.add_string buf "_bucket";
              add_labels buf
                (s.labels @ [ ("le", string_of_int (bucket_le k)) ]);
              Buffer.add_char buf ' ';
              Buffer.add_string buf (string_of_int !cumulative);
              Buffer.add_char buf '\n'
            end
          done;
          Buffer.add_string buf s.name;
          Buffer.add_string buf "_bucket";
          add_labels buf (s.labels @ [ ("le", "+Inf") ]);
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int t.cells.(s.base));
          Buffer.add_char buf '\n';
          Buffer.add_string buf s.name;
          Buffer.add_string buf "_sum";
          add_labels buf s.labels;
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int t.cells.(s.base + 1));
          Buffer.add_char buf '\n';
          Buffer.add_string buf s.name;
          Buffer.add_string buf "_count";
          add_labels buf s.labels;
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int t.cells.(s.base));
          Buffer.add_char buf '\n')
    (List.rev t.series);
  Buffer.contents buf

let to_json t =
  let labels_value labels =
    Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)
  in
  let series_value s =
    let common =
      [ ("name", Json.String s.name); ("labels", labels_value s.labels) ]
    in
    let common =
      if s.help = "" then common
      else common @ [ ("help", Json.String s.help) ]
    in
    match s.kind with
    | Counter | Gauge -> Json.Obj (common @ [ ("value", Json.Int t.cells.(s.base)) ])
    | Histogram ->
        let buckets = ref [] in
        for k = num_buckets - 1 downto 0 do
          let n = t.cells.(s.base + 2 + k) in
          if n > 0 then
            buckets :=
              Json.Obj [ ("le", Json.Int (bucket_le k)); ("count", Json.Int n) ]
              :: !buckets
        done;
        Json.Obj
          (common
          @ [
              ("count", Json.Int t.cells.(s.base));
              ("sum", Json.Int t.cells.(s.base + 1));
              ("buckets", Json.List !buckets);
            ])
  in
  let of_kind k =
    List.rev t.series
    |> List.filter (fun s -> s.kind = k)
    |> List.map series_value
  in
  Json.Obj
    [
      ("counters", Json.List (of_kind Counter));
      ("gauges", Json.List (of_kind Gauge));
      ("histograms", Json.List (of_kind Histogram));
    ]

let to_json_string t = Json.to_string (to_json t)
