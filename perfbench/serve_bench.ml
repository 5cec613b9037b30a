(* serve-mix: a live [ccsched serve] daemon on a Unix socket, driven in a
   closed loop by one client process holding at most [nproc] requests
   in flight, each on its own connection, against [nproc] workers.  The
   seeded mix ({!Perfbench.Mix}) puts warm hits beside plan builds and
   store writes, and byte-identical repeats beside reformatted ones, with
   an occasional /metrics scrape.  Each daemon gets a fresh, empty state
   directory under [work], which perfbench/run.py puts on a private
   tmpfs when the host allows it. *)

open Perfbench

let nproc = Domain.recommended_domain_count ()

(* Timed requests per second of --seconds; about what the daemon
   completes per second on a 2-core host, so the mix runs close to
   --seconds there. *)
let requests_per_second = 2200

type daemon = { pid : int; err : in_channel; dir : string; sock : string }

let live : daemon list ref = ref []
let spawned = ref 0

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

let request d line = Ccs_serve.Server.request (Ccs_serve.Server.Unix_socket d.sock) line

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let connect d =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX d.sock);
  fd

let scrape_payload = "GET /metrics HTTP/1.0\r\n\r\n"

let scrape d =
  let fd = connect d in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd scrape_payload 0;
      let buf = Buffer.create 8192 and chunk = Bytes.create 65536 in
      let rec go () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Buffer.contents buf
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            go ()
      in
      go ())

(* Spawn the daemon on an empty state directory and block until it
   answers: its "listening" log line is written once the socket accepts
   connections, and a ping then has to come back as a pong. *)
let spawn ~ccsched ~work =
  incr spawned;
  let tag = Printf.sprintf "%d-%d" (Unix.getpid ()) !spawned in
  let dir = Filename.concat work ("serve-" ^ tag) in
  let sock = Filename.concat work ("s" ^ tag ^ ".sock") in
  rm_rf dir;
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process ccsched
      [| ccsched; "serve"; "--socket"; sock; "--dir"; dir; "--workers";
         string_of_int nproc; "--log-level"; "info" |]
      devnull devnull w
  in
  Unix.close w;
  Unix.close devnull;
  let d = { pid; err = Unix.in_channel_of_descr r; dir; sock } in
  live := d :: !live;
  let rec listening () = if not (contains (input_line d.err) "\"listening\"") then listening () in
  listening ();
  let pong = request d {|{"op":"ping"}|} in
  if not (contains pong {|"pong":true|}) then failwith ("ping answered " ^ pong);
  d

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  close_in_noerr d.err;
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  rm_rf d.dir;
  rm_rf d.sock

let () = at_exit (fun () -> List.iter stop !live)

(* The daemon's processes: the parent and every child it forked. *)
let daemon_pids d =
  let ppid_of p =
    match open_in (Printf.sprintf "/proc/%s/stat" p) with
    | exception Sys_error _ -> None
    | ic ->
        let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
        (* "pid (comm) state ppid ...": comm may hold spaces, so skip past
           its closing parenthesis. *)
        let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
        Scanf.sscanf rest "%c %d" (fun _ ppid -> Some ppid)
  in
  let me = string_of_int d.pid in
  me
  :: (Sys.readdir "/proc" |> Array.to_list
     |> List.filter (fun p ->
            p <> "" && String.for_all (fun c -> c >= '0' && c <= '9') p
            && ppid_of p = Some d.pid))

let peak_rss_mb d =
  List.fold_left
    (fun acc p -> match Out.vmhwm_mb p with Some mb -> Float.max acc mb | None -> acc)
    0. (daemon_pids d)

let counter page name =
  String.split_on_char '\n' page
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ n; v ] when n = name -> int_of_string_opt v
         | _ -> None)

type pending = { fd : Unix.file_descr; op : int; t0 : float; buf : Buffer.t }

(* The closed loop, in segments of [segment] operations: [nproc]
   operations in flight, each on a fresh connection, the next one sent as
   soon as one completes.  Between segments the loop drains and the
   host's speed is sampled while the daemon idles.  Returns each
   operation's round trip in seconds, each response, and the loop's wall
   time without the pauses. *)
let segment = 200

let closed_loop ?tracer d (mix : Mix.t) payloads =
  let n = Array.length payloads in
  let latency = Array.make n 0. and responses = Array.make n "" in
  let next = ref 0 and active = ref [] and stop_at = ref 0 in
  let start () =
    let i = !next in
    incr next;
    let t0 = Out.now () in
    let fd = connect d in
    write_all fd payloads.(i) 0;
    active := { fd; op = i; t0; buf = Buffer.create 4096 } :: !active
  in
  let finish p =
    let t1 = Out.now () in
    latency.(p.op) <- t1 -. p.t0;
    responses.(p.op) <- Buffer.contents p.buf;
    Unix.close p.fd;
    active := List.filter (fun q -> q.op <> p.op) !active;
    Option.iter
      (fun tr ->
        Spans.record tr "serve.round_trip"
          ~start_us:(int_of_float (p.t0 *. 1e6))
          ~end_us:(int_of_float (t1 *. 1e6)))
      tracer;
    if !next < !stop_at then start ()
  in
  let chunk = Bytes.create 65536 in
  let wall = ref 0. in
  while !next < n do
    stop_at := min n (!next + segment);
    let t_start = Out.now () in
    while !next < !stop_at && List.length !active < nproc do
      start ()
    done;
    while !active <> [] do
      match Unix.select (List.map (fun p -> p.fd) !active) [] [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
          List.iter
            (fun fd ->
              let p = List.find (fun p -> p.fd = fd) !active in
              let k = Unix.read fd chunk 0 (Bytes.length chunk) in
              Buffer.add_subbytes p.buf chunk 0 k;
              let complete =
                k = 0
                || mix.ops.(p.op) <> Mix.Scrape
                   && Option.fold ~none:false ~some:(fun j -> j < k) (Bytes.index_opt chunk '\n')
              in
              if complete then finish p)
            ready
    done;
    wall := !wall +. (Out.now () -. t_start);
    Refspeed.sample ()
  done;
  (latency, responses, !wall)

(* Each operation's bytes on the wire; repeats share their app's
   string. *)
let payloads texts (mix : Mix.t) =
  let base = Array.mapi (fun a _ -> Mix.line texts (Mix.Warm a) ^ "\n") texts in
  Array.map
    (function
      | Mix.Scrape -> scrape_payload
      | Mix.Warm a -> base.(a)
      | op -> Mix.line texts op ^ "\n")
    mix.ops

let base_line texts a = Mix.line texts (Mix.Warm a)

(* Warm-up, one request at a time: every app's base key is built once,
   then hit [Mix.warm_repeats] times.  Returns each app's normalized
   reference response. *)
let warm_up ~out d texts =
  let refs =
    Array.mapi
      (fun a _ ->
        let r = request d (base_line texts a) in
        Out.check out (Mix.normalize r <> None && not (Mix.cached r))
          (Printf.sprintf "warm-up build of app %d answered %s" a r);
        Mix.normalize r)
      texts
  in
  for _ = 1 to Mix.warm_repeats do
    Array.iteri
      (fun a _ ->
        let r = request d (base_line texts a) in
        Out.check out (Mix.normalize r = refs.(a) && Mix.cached r)
          (Printf.sprintf "warm-up hit of app %d differs from its build" a))
      texts
  done;
  ignore (scrape d);
  refs

(* Every response checked after the loop, so the client spends no time
   parsing while requests are in flight. *)
let verify ~out (mix : Mix.t) refs responses =
  Array.iteri
    (fun i op ->
      let r = responses.(i) in
      match op with
      | Mix.Warm a | Mix.Reformatted (a, _) ->
          Out.check out
            (Mix.cached r && Mix.normalize r = refs.(a) && refs.(a) <> None)
            (Printf.sprintf "request %d: warm answer for app %d differs from its build" i a)
      | Mix.Cold (a, k) ->
          Out.check out
            (Mix.normalize r <> None && not (Mix.cached r))
            (Printf.sprintf "request %d: cold build of app %d at %d words answered %s" i a
               (Mix.cold_cache_words k) (String.sub r 0 (min 200 (String.length r))))
      | Mix.Scrape ->
          Out.check out (contains r "HTTP/1.0 200") (Printf.sprintf "request %d: scrape failed" i))
    mix.ops

let us_of xs = List.map (fun s -> s *. 1e6) xs

let select (mix : Mix.t) latency p =
  let acc = ref [] in
  Array.iteri (fun i op -> if p op then acc := latency.(i) :: !acc) mix.ops;
  !acc

let is_warm = function Mix.Warm _ | Mix.Reformatted _ -> true | _ -> false
let is_cold = function Mix.Cold _ -> true | _ -> false

(* One pass: warm-up, the closed loop, verification, and the daemon's
   own hit and miss counters compared with the plan. *)
let pass ?tracer ~out d texts mix =
  let refs = warm_up ~out d texts in
  let latency, responses, wall = closed_loop ?tracer d mix (payloads texts mix) in
  verify ~out mix refs responses;
  let page = scrape d in
  let hits = counter page "ccs_serve_cache_hits_total"
  and misses = counter page "ccs_serve_cache_misses_total" in
  Out.check out
    (hits = Some (Mix.planned_hits mix))
    (Printf.sprintf "daemon counted %s hits, the mix planned %d"
       (Option.fold ~none:"no" ~some:string_of_int hits) (Mix.planned_hits mix));
  Out.check out
    (misses = Some (Mix.planned_misses mix))
    (Printf.sprintf "daemon counted %s misses, the mix planned %d"
       (Option.fold ~none:"no" ~some:string_of_int misses) (Mix.planned_misses mix));
  (latency, responses, wall, page, refs)

(* The same mix through [Server.handle_line] in this process, and the
   library calls a request makes, each timed on its own over the mix's
   requests: medians in microseconds.  In-process answers must equal the
   daemon's for every request. *)
let layers ~out ~tr ~work texts (mix : Mix.t) daemon_responses =
  let span stage f = Spans.with_span tr stage f in
  let dir = Filename.concat work (Printf.sprintf "inproc-%d" (Unix.getpid ())) in
  rm_rf dir;
  let server =
    Ccs_serve.Server.make
      (Ccs_serve.Server.default_config ~address:(Ccs_serve.Server.Unix_socket "unused") ~dir)
  in
  Array.iteri
    (fun a _ ->
      for _ = 0 to Mix.warm_repeats do
        ignore (Ccs_serve.Server.handle_line server (base_line texts a))
      done)
    texts;
  let handle = Array.make (Array.length mix.ops) 0. in
  Array.iteri
    (fun i op ->
      if op <> Mix.Scrape then begin
        let stage = if is_cold op then "serve.handle_cold" else "serve.handle_warm" in
        let r, dt =
          Out.time (fun () -> span stage (fun () -> Ccs_serve.Server.handle_line server (Mix.line texts op)))
        in
        handle.(i) <- dt;
        Out.check out
          (Mix.normalize r <> None && Mix.normalize r = Mix.normalize daemon_responses.(i))
          (Printf.sprintf "request %d: in-process answer differs from the daemon's" i)
      end)
    mix.ops;
  let store = Ccs_serve.Plan_cache.Bounded.create ~dir:(Filename.concat dir "plans")
      ~bounds:Ccs_serve.Plan_cache.Bounded.unbounded () in
  let copy_dir = dir ^ "-copy" in
  rm_rf copy_dir;
  let copy = Ccs_serve.Plan_cache.Bounded.create ~dir:copy_dir
      ~bounds:Ccs_serve.Plan_cache.Bounded.unbounded () in
  let samples = Hashtbl.create 16 in
  let timed name f =
    let v, dt = Out.time (fun () -> span name f) in
    Hashtbl.replace samples name (dt *. 1e6 :: Option.value ~default:[] (Hashtbl.find_opt samples name));
    v
  in
  let key_of g cache_words =
    let cache = Ccs.Cache.config ~size_words:cache_words ~block_words:Mix.block_words () in
    Ccs.Plan_key.of_graph g ~cache ~capacities:[||] ~planner_version:Ccs.Auto.planner_version
  in
  Array.iter
    (fun op ->
      match op with
      | Mix.Warm _ | Mix.Reformatted _ -> (
          match timed "serve.request_parse" (fun () -> Ccs_serve.Protocol.parse_request (Mix.line texts op)) with
          | Ok (Ccs_serve.Protocol.Plan req) ->
              let g = Ccs.Serial.parse_exn req.graph_text in
              ignore (timed "sdf.serial_parse" (fun () -> Ccs.Serial.parse req.graph_text));
              ignore (timed "core.check" (fun () -> Ccs.Check.graph g));
              let key = timed "exec.plan_key" (fun () -> key_of g req.cache_words) in
              let artifact = Option.get (Ccs_serve.Plan_cache.Bounded.lookup store ~key) in
              ignore
                (timed "serve.response" (fun () ->
                     Ccs.Json.to_string
                       (Ccs_serve.Protocol.plan_response ~cached:true ~key:(Ccs.Plan_key.digest key)
                          ~artifact ~dry_run:None ~elapsed_us:0 ())))
          | _ -> Out.check out false "a warm request did not parse as a plan request")
      | Mix.Cold (a, k) ->
          let g = Ccs.Serial.parse_exn texts.(a) in
          let cache_words = Mix.cold_cache_words k in
          let cfg = Ccs.Config.make ~cache_words ~block_words:Mix.block_words () in
          ignore (timed "core.plan_build" (fun () -> Ccs.Auto.plan g cfg));
          if Ccs.Graph.num_nodes g <= 16 && not (Ccs.Graph.is_pipeline g) then begin
            let analysis = Ccs.Rates.analyze_exn g in
            let bound = Ccs.Auto.fitting_bound g cfg in
            ignore
              (timed "partition.exact" (fun () ->
                   Ccs.Dag_partition.exact g analysis ~bound ~max_nodes:16 ()))
          end;
          let key = key_of g cache_words in
          (match timed "serve.store_lookup" (fun () -> Ccs_serve.Plan_cache.Bounded.lookup store ~key) with
          | Some artifact ->
              timed "serve.store_write" (fun () -> Ccs_serve.Plan_cache.Bounded.store copy ~key artifact)
          | None -> Out.check out false (Printf.sprintf "cold key of app %d missing from the store" a))
      | Mix.Scrape -> ())
    mix.ops;
  rm_rf dir;
  rm_rf copy_dir;
  let median name = Stats.median (Hashtbl.find samples name) in
  let handle_us p = Stats.median (us_of (select mix handle p)) in
  (median, handle_us)

let run ~ccsched ~work ~seed ~seconds ~trace ~out ~tracer =
  let requests = max 100 (int_of_float (float_of_int requests_per_second *. seconds)) in
  (* A traced run makes three passes over the mix. *)
  let requests = if trace then max 100 (requests / 3) else requests in
  let texts, mix, d =
    Out.setup out ~reps:3 ~discard:(fun (_, _, d) -> stop d) (fun () ->
        let texts =
          Array.of_list
            (List.map (fun (e : Ccs_apps.Suite.entry) -> Ccs.Serial.to_text (e.graph ())) Ccs_apps.Suite.all)
        in
        let mix = Mix.make ~seed ~apps:(Array.length texts) ~requests in
        ignore (payloads texts mix);
        (texts, mix, spawn ~ccsched ~work))
  in
  Out.note "serve-mix: %d workers, %d timed requests (%d warm, %d cold, %d scrapes)"
    nproc requests
    (Mix.count is_warm mix) (Mix.count is_cold mix) (Mix.count (( = ) Mix.Scrape) mix);
  let latency, responses, wall, page, refs = pass ~out d texts mix in
  let rss = peak_rss_mb d in
  stop d;
  let warm = us_of (select mix latency is_warm) in
  Out.note "serve-mix: %d warm, %d cold, %d scrape samples; loop %.2f s"
    (List.length warm) (Mix.count is_cold mix) (Mix.count (( = ) Mix.Scrape) mix) wall;
  if not trace then begin
    let warm_p90 =
      match Stats.percentile_supported warm 0.9 with
      | Some v -> v
      | None ->
          Out.check out false
            (Printf.sprintf "warm: %d samples do not support p90" (List.length warm));
          nan
    in
    let p50 p = Stats.median (us_of (select mix latency p)) in
    let warm_p50 = p50 is_warm and cold_p50 = p50 is_cold and scrape_p50 = p50 (( = ) Mix.Scrape) in
    Out.note "serve-mix: warm p50 %.6g us, p90 %.6g us; cold p50 %.6g us; scrape p50 %.6g us; %.6g req/s (unscaled)"
      warm_p50 warm_p90 cold_p50 scrape_p50 (float_of_int (Array.length mix.ops) /. wall);
    (* An operation is one request of each kind: a hit, a build, a scrape. *)
    Out.metric ~scale:Time out "latency_us" "us" (Stats.geomean [ warm_p50; cold_p50; scrape_p50 ]);
    (* Plan quality: the predicted misses of every app's base plan. *)
    let mpi =
      Array.fold_left
        (fun acc r ->
          match Option.map Ccs.Json.of_string r with
          | Some (Ok v) -> (
              match Option.bind (Ccs.Json.member "predicted" v) (Ccs.Json.member "misses_per_input") with
              | Some (Ccs.Json.Float x) -> acc +. x
              | Some (Ccs.Json.Int x) -> acc +. float_of_int x
              | _ -> nan)
          | _ -> nan)
        0. refs
    in
    Out.check out (Float.is_finite mpi) "a base response carries no misses_per_input";
    Out.metric out "misses_per_input" "misses/input" (if Float.is_finite mpi then mpi else 0.);
    Out.metric out "peak_rss_mb" "MB" rss
  end
  else begin
    let tr = Option.get tracer in
    let d = spawn ~ccsched ~work in
    let latency_traced, _, wall_traced, _, _ =
      Spans.with_span tr "serve.mix" (fun () -> pass ~tracer:tr ~out d texts mix)
    in
    stop d;
    let median, handle_us = layers ~out ~tr ~work texts mix responses in
    Out.note "serve-mix: medians over %d warm and %d cold requests; traced loop %.3f s, untraced %.3f s; daemon counted %s hits and %s misses, the mix planned %d and %d"
      (Mix.count is_warm mix) (Mix.count is_cold mix) wall_traced wall
      (Option.fold ~none:"no" ~some:string_of_int (counter page "ccs_serve_cache_hits_total"))
      (Option.fold ~none:"no" ~some:string_of_int (counter page "ccs_serve_cache_misses_total"))
      (Mix.planned_hits mix) (Mix.planned_misses mix);
    let handle_warm = handle_us is_warm in
    let stage name = Out.metric out (name ^ "_us") "us" (median name) in
    Out.metric out "serve.handle_warm_us" "us" handle_warm;
    Out.metric out "serve.handle_cold_us" "us" (handle_us is_cold);
    Out.metric out "serve.transport_us" "us"
      (Stats.median (us_of (select mix latency_traced is_warm)) -. handle_warm);
    List.iter stage [ "serve.request_parse"; "sdf.serial_parse"; "core.check"; "exec.plan_key" ];
    let warm_stages =
      List.fold_left (fun acc s -> acc +. median s) 0.
        [ "serve.request_parse"; "sdf.serial_parse"; "core.check"; "exec.plan_key"; "serve.response" ]
    in
    Out.metric out "serve.unattributed_warm_us" "us" (handle_warm -. warm_stages);
    Out.metric out "serve.warm_exact_us" "us" (handle_us (function Mix.Warm _ -> true | _ -> false));
    Out.metric out "serve.warm_reformatted_us" "us"
      (handle_us (function Mix.Reformatted _ -> true | _ -> false));
    List.iter stage [ "serve.store_lookup"; "serve.store_write"; "core.plan_build" ];
    Out.metric out "partition.exact_ms" "ms" (median "partition.exact" /. 1e3);
    stage "serve.response";
    Out.metric out "serve.scrape_bytes" "bytes" (float_of_int (String.length page));
    let count name = float_of_int (Option.value ~default:(-1) (counter page name)) in
    Out.metric out "serve.cache_hits" "count" (count "ccs_serve_cache_hits_total");
    Out.metric out "serve.cache_misses" "count" (count "ccs_serve_cache_misses_total");
    Out.metric out "obs.trace_overhead_share" "ratio" (wall_traced /. wall)
  end
