(* exec-fit and exec-thrash: the 12 suite apps, planned for a 2048-word
   cache, executed by the simulator ([Machine] driven by
   [Schedule.run]), the data-carrying interpreter ([Engine] with the
   codegen-semantics kernels) and the compiled backend.  exec-fit runs
   the plans on the cache they were made for, so the simulator mostly
   hits; exec-thrash runs the same plans on a cache 8x smaller, the stale
   plan [Adapt] exists for, so the miss and eviction path dominates.  The
   planner and the daemon do no work here. *)

open Perfbench

let block_words = 16
let plan_cache_words = 2048
let cfg = Ccs.Config.make ~cache_words:plan_cache_words ~block_words ()

(* The firing loops follow the host's speed more steeply than the
   reference kernels: over 22 runs of exec-fit and exec-thrash on a
   shared 2-core host, the log of every backend's ns per fire followed
   the log of the kernels' mean slowdown with a slope of 1.3 to 1.6 (r
   about 0.9).  Their timings are scaled by the kernels' factor to this
   power; over the same exec-fit runs that cut the spread from 0.18 to
   0.10. *)
let host_elasticity = 1.4

type backend = Sim | Interp | Compiled

let backend_name = function Sim -> "sim" | Interp -> "interp" | Compiled -> "compiled"

type app = {
  name : string;
  graph : Ccs.Graph.t;
  plan : Ccs.Plan.t;
  period : Ccs.Schedule.t;
  period_fires : int;
  lowering : Ccs.Lowering.t;
  machine : Ccs.Machine.t;
  engine : Ccs.Engine.t;
  compiled : Ccs.Compiled.t;
}

let engine_of ~cache graph plan =
  let program = Ccs.Program.create graph (Ccs.Codegen.codegen_semantics graph) in
  Ccs.Engine.of_plan ~program ~cache ~plan ()

(* Plan, lower and compile every app, and build the instances the timed
   rounds keep running.  [lower_s] and [compile_s] accumulate the two
   codegen stages. *)
let prepare ~cache ~lower_s ~compile_s =
  List.map
    (fun (e : Ccs_apps.Suite.entry) ->
      let graph = e.graph () in
      let plan = (Ccs.Auto.plan ~dynamic:false graph cfg).plan in
      let period = Option.get plan.period in
      let period_fires =
        Array.fold_left ( + ) 0
          (Ccs.Schedule.fire_counts ~num_nodes:(Ccs.Graph.num_nodes graph) period)
      in
      let lowering, dl = Out.time (fun () -> Ccs.Lowering.exn graph ~plan ~cache) in
      let compiled, dc = Out.time (fun () -> Ccs.Compiled.create lowering) in
      lower_s := !lower_s +. dl;
      compile_s := !compile_s +. dc;
      let machine = Ccs.Machine.create ~graph ~cache ~capacities:plan.capacities () in
      let engine = engine_of ~cache graph plan in
      { name = e.name; graph; plan; period; period_fires; lowering; machine; engine; compiled })
    Ccs_apps.Suite.all
  |> Array.of_list

let run_chunk a backend periods =
  match backend with
  | Sim ->
      for _ = 1 to periods do
        Ccs.Schedule.run a.machine a.period
      done
  | Interp ->
      let m = Ccs.Engine.machine a.engine in
      for _ = 1 to periods do
        Ccs.Schedule.run m a.period
      done
  | Compiled -> Ccs.Compiled.run_periods a.compiled periods

(* Periods per chunk so that one chunk of [backend] on [a] runs about
   [target] seconds: doubled from one period until a chunk is long
   enough to time. *)
let calibrate ~target a backend =
  let rec go periods =
    let (), dt = Out.time (fun () -> run_chunk a backend periods) in
    if dt >= target /. 4. || periods >= 1 lsl 20 then
      max 1 (int_of_float (Float.ceil (float_of_int periods *. target /. dt)))
    else go (periods * 2)
  in
  go 1

let sink_checksum engine g =
  List.fold_left (fun acc v -> acc +. (Ccs.Engine.state engine v).(0)) 0. (Ccs.Graph.sinks g)

type verified = {
  misses : int;
  inputs : int;
  accesses : int;
  fires : int;
  replay_s : float;  (** best of three replays of the compiled trace *)
  trace_length : int;
}

(* Fresh instances, a fixed number of periods: the compiled outputs and
   checksum must equal the engine's bit for bit, and the compiled trace
   replayed through the cache must miss exactly as often as the
   machine.  With a tracer, the replay, which times the cache simulator
   alone, is timed too.  Runs after the timed rounds, so the traces are
   not live while they run. *)
let verify ?tracer ~cache ~out a =
  let periods = max 1 (150_000 / a.period_fires) in
  let m = Ccs.Machine.create ~graph:a.graph ~cache ~capacities:a.plan.capacities () in
  for _ = 1 to periods do
    Ccs.Schedule.run m a.period
  done;
  let c = Ccs.Compiled.create ~record_trace:true a.lowering in
  Ccs.Compiled.run_periods c periods;
  let e = engine_of ~cache a.graph a.plan in
  let em = Ccs.Engine.machine e in
  for _ = 1 to periods do
    Ccs.Schedule.run em a.period
  done;
  let outputs = List.fold_left (fun acc v -> acc + Ccs.Machine.fires em v) 0 (Ccs.Graph.sinks a.graph) in
  Out.check out
    (outputs = Ccs.Compiled.outputs c)
    (Printf.sprintf "%s: compiled outputs %d, engine %d" a.name (Ccs.Compiled.outputs c) outputs);
  let ce = sink_checksum e a.graph and cc = Ccs.Compiled.checksum c in
  Out.check out
    (Int64.equal (Int64.bits_of_float ce) (Int64.bits_of_float cc))
    (Printf.sprintf "%s: compiled checksum %h, engine %h" a.name cc ce);
  let trace = Ccs.Compiled.trace c in
  let replayed = Ccs.Replay.misses ~cache trace in
  Out.check out
    (replayed = Ccs.Machine.misses m)
    (Printf.sprintf "%s: replayed misses %d, machine %d" a.name replayed (Ccs.Machine.misses m));
  let replay_s =
    match tracer with
    | None -> 0.
    | Some tr ->
        List.fold_left min infinity
          (List.init 3 (fun _ ->
               snd
                 (Out.time (fun () ->
                      Spans.with_span tr "cache.replay" (fun () -> Ccs.Replay.run ~cache trace)))))
  in
  {
    misses = Ccs.Machine.misses m;
    inputs = Ccs.Machine.source_inputs m;
    accesses = Ccs.Cache.accesses (Ccs.Machine.cache m);
    fires = periods * a.period_fires;
    replay_s;
    trace_length = Array.length trace;
  }
  |> fun v ->
  (* Free this app's trace before the next one is recorded, so the peak
     resident set does not depend on when the collector gets to it. *)
  Gc.full_major ();
  v

(* Timed rounds: every round runs one calibrated chunk of every
   (app, backend) pair, apps in a fresh seeded order and backends
   rotated, so host speed drift spreads over all of them alike.  With a
   tracer, every other round records spans, and the two kinds of round
   are timed apart.  Returns ns per fire of a backend (geomean over apps
   of per-app medians, over all rounds), the median untraced and traced
   round times (0 when there were none), and the round count. *)
let timed_rounds ?tracer ?stop ~rng ~budget apps backends chunks =
  let samples = Hashtbl.create 64 in
  let order = Array.init (Array.length apps) Fun.id in
  let plain_rounds = ref [] and traced_rounds = ref [] in
  let nb = List.length backends in
  let n =
    Out.rounds ?stop ~budget (fun r ->
        Gen.shuffle rng order;
        let rotated =
          List.filteri (fun i _ -> i >= r mod nb) backends
          @ List.filteri (fun i _ -> i < r mod nb) backends
        in
        let tr = if r mod 2 = 1 then tracer else None in
        let (), dt =
          Out.time (fun () ->
              Spans.opt tr "exec.round" (fun () ->
                  Array.iter
                    (fun i ->
                      let a = apps.(i) in
                      List.iter
                        (fun b ->
                          let periods = Hashtbl.find chunks (i, b) in
                          let (), dt =
                            Out.time (fun () ->
                                Spans.opt tr (backend_name b) (fun () -> run_chunk a b periods))
                          in
                          let ns = dt *. 1e9 /. float_of_int (periods * a.period_fires) in
                          Hashtbl.replace samples (i, b)
                            (ns :: Option.value ~default:[] (Hashtbl.find_opt samples (i, b))))
                        rotated)
                    order))
        in
        (* Sampled outside the round, so the kernels are not in its time. *)
        Refspeed.sample ();
        if tr = None then plain_rounds := dt :: !plain_rounds
        else traced_rounds := dt :: !traced_rounds)
  in
  let ns_per_fire b =
    Stats.geomean_of_medians
      (List.init (Array.length apps) (fun i -> Hashtbl.find samples (i, b)))
  in
  let median = function [] -> 0. | l -> Stats.median l in
  (ns_per_fire, median !plain_rounds, median !traced_rounds, n)

let run ~thrash ~seed ~seconds ~trace ~out ~tracer =
  let cache_words = if thrash then plan_cache_words / 8 else plan_cache_words in
  let cache = Ccs.Cache.config ~size_words:cache_words ~block_words () in
  let lower_s = ref [] and compile_s = ref [] in
  let apps =
    Out.setup out ~reps:5 (fun () ->
        let l = ref 0. and c = ref 0. in
        let apps = prepare ~cache ~lower_s:l ~compile_s:c in
        lower_s := !l :: !lower_s;
        compile_s := !c :: !compile_s;
        apps)
  in
  (* The compiled backend does no cache accounting: timing it on the
     thrash cache would gate the same code twice. *)
  let backends = if thrash then [ Sim; Interp ] else [ Sim; Interp; Compiled ] in
  let chunks = Hashtbl.create 64 in
  Array.iteri
    (fun i a ->
      List.iter (fun b -> Hashtbl.replace chunks (i, b) (calibrate ~target:0.003 a b)) backends)
    apps;
  Out.note "%s: %d apps on a %d-word cache (plans made for %d words)"
    (if thrash then "exec-thrash" else "exec-fit")
    (Array.length apps) cache_words plan_cache_words;
  let rng = Random.State.make [| seed; 0xe8ec |] in
  if not trace then begin
    let ns, _, _, n = timed_rounds ~rng ~budget:seconds apps backends chunks in
    Out.note "exec: %d rounds, so %d samples of every (app, backend) pair" n n;
    let verified = Array.map (verify ~cache ~out) apps in
    let mpi =
      Array.fold_left (fun acc v -> acc +. (float_of_int v.misses /. float_of_int v.inputs)) 0. verified
    in
    (* An operation is one firing, on each backend. *)
    Out.note "exec: ns per fire (unscaled): %s"
      (String.concat ", "
         (List.map (fun b -> Printf.sprintf "%s %.6g" (backend_name b) (ns b)) backends));
    Out.metric ~scale:Time out "latency_us" "us"
      (Stats.geomean (List.map ns backends) /. 1e3);
    Out.metric out "misses_per_input" "misses/input" mpi
  end
  else begin
    let tr = Option.get tracer in
    let per_round = 1 + (Array.length apps * List.length backends) in
    let ns, untraced, traced, _ =
      timed_rounds ~tracer:tr ~stop:(fun () -> Spans.room tr < per_round) ~rng ~budget:seconds
        apps backends chunks
    in
    let verified = Array.map (verify ~tracer:tr ~cache ~out) apps in
    let sum f = Array.fold_left (fun acc v -> acc + f v) 0 verified in
    Out.note "exec: %d misses of %d accesses over %d fires; %d accesses replayed; round traced %.4f s, untraced %.4f s"
      (sum (fun v -> v.misses)) (sum (fun v -> v.accesses)) (sum (fun v -> v.fires))
      (sum (fun v -> v.trace_length)) traced untraced;
    Out.metric out "cache.accesses_per_fire" "accesses"
      (float_of_int (sum (fun v -> v.accesses)) /. float_of_int (sum (fun v -> v.fires)));
    Out.metric out "cache.miss_ratio" "ratio"
      (float_of_int (sum (fun v -> v.misses)) /. float_of_int (sum (fun v -> v.accesses)));
    (* The simulator alone: the compiled traces replayed through a fresh
       cache. *)
    Out.metric ~scale:Time out "cache.ns_per_access" "ns"
      (Array.fold_left (fun acc v -> acc +. v.replay_s) 0. verified
      *. 1e9 /. float_of_int (sum (fun v -> v.trace_length)));
    Out.metric ~scale:Time out "runtime.engine_self_ns_per_fire" "ns" (ns Interp -. ns Sim);
    let alloc_per_fire b =
      let words, fires =
        Array.fold_left
          (fun (w, f) a ->
            let periods = max 1 (20_000 / a.period_fires) in
            let (), words = Out.words_allocated_by (fun () -> run_chunk a b periods) in
            (w +. words, f + (periods * a.period_fires)))
          (0., 0) apps
      in
      words /. float_of_int fires
    in
    Out.metric out "exec.alloc_words_per_fire" "words" (alloc_per_fire Sim);
    Out.metric out "runtime.alloc_words_per_fire" "words" (alloc_per_fire Interp);
    Out.metric out "codegen.alloc_words_per_fire" "words" (alloc_per_fire Compiled);
    Out.metric ~scale:Time out "codegen.lower_ms" "ms" (Stats.median !lower_s *. 1e3);
    Out.metric ~scale:Time out "codegen.compile_ms" "ms" (Stats.median !compile_s *. 1e3);
    Out.metric out "obs.trace_overhead_share" "ratio" (traced /. untraced)
  end
