(* The benchmark harness.

     harness.exe --workload W --seed N --seconds S --trace 0|1 --ccsched EXE

   runs one workload (plan-scale, exec-fit, exec-thrash or serve-mix) and
   prints, as its last line, {"correct", "attempted", "failed",
   "metrics"}.  With --trace 0 the metrics are the end-to-end ones, the
   same on every workload: set-up time, latency_us (the geomean over the
   workload's kinds of operation of each kind's typical time),
   misses_per_input, ok_share and peak_rss_mb.  With --trace 1 they are
   the per-layer ones of the layers the workload's path exercises,
   measured in a run of their own with a span around every call the
   harness makes into a library layer, plus the cost of that tracing;
   run.py reports the other layers' metrics as 0.  Scratch files go under
   .perfbench/ in the current directory, the serve daemon's state under
   .perfbench/state.  perfbench/run.py builds and runs it. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: harness.exe --workload plan-scale|exec-fit|exec-thrash|serve-mix \
     --seed N --seconds S --trace 0|1 --ccsched PATH";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" and seed = int "seed" in
  let seconds = match float_of_string_opt (get "seconds") with Some s -> s | None -> usage () in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  if seconds <= 0. then usage ();
  (* Before any library work, so the helper's heap stays small. *)
  Refspeed.start ();
  (* Internal: one of plan-scale's timing processes. *)
  Option.iter
    (fun index ->
      Plan_scale.child ~seed ~seconds ~index:(int_of_string index);
      exit 0)
    (Hashtbl.find_opt args "child");
  let work = ".perfbench" in
  let state = Filename.concat work "state" in
  List.iter
    (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    [ work; state ];
  let run_id = Printf.sprintf "%s-seed%d-pid%d" workload seed (Unix.getpid ()) in
  Out.note "host: nproc=%d ocaml=%s state-fs=%s run=%s" (Domain.recommended_domain_count ())
    Sys.ocaml_version (Out.filesystem state) run_id;
  let out = Out.create ~e2e:(not trace) in
  let tracer = if trace then Some (Spans.create ~capacity:200_000 ~run_id) else None in
  let t0 = Out.now () in
  (match workload with
  | "plan-scale" -> Plan_scale.run ~seed ~seconds ~trace ~out ~tracer
  | "exec-fit" -> Exec_bench.run ~thrash:false ~seed ~seconds ~trace ~out ~tracer
  | "exec-thrash" -> Exec_bench.run ~thrash:true ~seed ~seconds ~trace ~out ~tracer
  | "serve-mix" ->
      Serve_bench.run ~ccsched:(get "ccsched") ~work:state ~seed ~seconds ~trace ~out ~tracer
  | _ -> usage ());
  Out.note "%s: %.1f s in all" workload (Out.now () -. t0);
  (match tracer with
  | Some tr ->
      let path = Filename.concat work (run_id ^ ".trace.json") in
      Spans.write_chrome tr ~path ~label:workload;
      Out.check out (Spans.dropped tr = 0)
        (Printf.sprintf "span ring dropped %d spans" (Spans.dropped tr));
      Out.note "spans: %d recorded, %d dropped, written to %s"
        (List.length (Spans.to_list tr)) (Spans.dropped tr) path;
      List.iter
        (fun (stage, (us, n)) -> Out.note "  self %-32s %10d us over %d spans" stage us n)
        (Spans.self_times (Spans.to_list tr))
  | None ->
      if not (Out.has out "peak_rss_mb") then
        Out.metric out "peak_rss_mb" "MB" (Out.self_peak_rss_mb ());
      Out.metric out "ok_share" "ratio" (Out.ok_share out));
  Out.print out
    ~elasticity:
      (match workload with
      | "exec-fit" | "exec-thrash" -> Exec_bench.host_elasticity
      | _ -> 1.)
