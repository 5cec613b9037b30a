module E = Ccs_sdf.Error
module Graph = Ccs_sdf.Graph

type report = { errors : E.t list; warnings : E.t list }

let empty = { errors = []; warnings = [] }
let is_ok r = r.errors = []

let merge a b =
  { errors = a.errors @ b.errors; warnings = a.warnings @ b.warnings }

let of_list errs =
  let warnings, errors =
    List.partition (fun e -> E.severity e = `Warning) errs
  in
  { errors; warnings }

(* Run a checker that may itself throw (e.g. on an assignment of the wrong
   length) and fold the failure into the report rather than escaping. *)
let guarded f =
  match E.protect f with Ok r -> r | Error e -> { empty with errors = [ e ] }

let builder b = of_list (Graph.Builder.check b)
let graph g = of_list (Ccs_sdf.Validate.graph g)

let partition ?bound ?degree_bound g ~components =
  guarded (fun () ->
      let spec = Ccs_partition.Spec.of_assignment g components in
      of_list (Ccs_partition.Spec.validate ?bound ?degree_bound spec))

let spec ?bound ?degree_bound s =
  of_list (Ccs_partition.Spec.validate ?bound ?degree_bound s)

let plan ?cache ?spec g p =
  guarded (fun () ->
      match Ccs_sched.Plan.validate ?cache ?spec g p with
      | Ok () -> empty
      | Error errs -> of_list errs)

let capacities g caps =
  (* Zero (or negative) capacities get their own structured finding — the
     codegen backend rejects them the same way, and Capacity_below_rate
     alone reads as a tuning problem rather than a meaningless buffer. *)
  merge
    (of_list (Ccs_sched.Plan.zero_capacities g ~plan:"capacity lint" caps))
    (plan g
       (Ccs_sched.Plan.dynamic ~name:"capacity lint" ~capacities:caps
          (fun _ ~target_outputs:_ -> ())))

(* Cache-configuration lint over the raw numbers the CLI parses, so a bad
   [--cache]/[--block]/[--ways] combination is a structured finding here
   instead of an [Invalid_argument] three layers down in the simulator. *)
let cache_config ?ways ~size_words ~block_words () =
  let errs = ref [] in
  let bad field value reason =
    errs := E.Cache_config_invalid { field; value; reason } :: !errs
  in
  if block_words <= 0 then
    bad "block_words" block_words "block size must be positive";
  if size_words <= 0 then
    bad "size_words" size_words "cache capacity must be positive";
  if block_words > 0 && size_words > 0 then begin
    if size_words < block_words then
      bad "size_words" size_words
        (Printf.sprintf
           "capacity below one block of %d words — a zero-capacity engine"
           block_words);
    if size_words mod block_words <> 0 then
      bad "size_words" size_words
        (Printf.sprintf "block size %d does not divide the capacity"
           block_words)
  end;
  (match ways with
  | None -> ()
  | Some w ->
      if w < 1 then bad "ways" w "associativity must be at least 1"
      else if block_words > 0 && size_words >= block_words then begin
        let nblocks = size_words / block_words in
        if w > nblocks then
          bad "ways" w
            (Printf.sprintf "more ways than the %d blocks the cache holds"
               nblocks)
      end);
  of_list (List.rev !errs)

let auto ?degree_bound g cfg =
  let r = graph g in
  if not (is_ok r) then r
  else
    guarded (fun () ->
        let a = Ccs_sdf.Rates.analyze_exn g in
        let s = Auto.partition g a cfg in
        (* [Auto.partition] targets [fitting_bound], except that a graph
           whose whole footprint fits the cache is kept as one component —
           there the guarantee is just "fits the configured cache". *)
        let bound =
          if Ccs_partition.Spec.num_components s = 1 then
            max (Auto.fitting_bound g cfg) cfg.Config.cache_words
          else Auto.fitting_bound g cfg
        in
        let choice = Auto.plan ~dynamic:false g cfg in
        merge r
          (merge
             (spec ~bound ?degree_bound s)
             (plan ~cache:(Config.cache_config cfg) ~spec:s g
                choice.Auto.plan)))

let pp_item fmt (kind, e) =
  Format.fprintf fmt "@[<hov 4>%s[%s] %a@]" kind (E.code e) E.pp e

let pp fmt r =
  List.iter
    (fun e -> Format.fprintf fmt "%a@." pp_item ("error", e))
    r.errors;
  List.iter
    (fun e -> Format.fprintf fmt "%a@." pp_item ("warning", e))
    r.warnings
