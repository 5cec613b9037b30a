(* What one run reports: operations attempted and failed, metrics in the
   order they were recorded, and the final JSON line. *)

(* How a value follows host speed: a time with it, anything else not at
   all. *)
type scale = Plain | Time

type t = {
  e2e : bool;  (* an untraced run, which reports set-up time *)
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string * scale) list;  (* newest first *)
}

let create ~e2e = { e2e; attempted = 0; failed = 0; metrics = [] }

let metric ?(scale = Plain) t name unit value =
  if not (Float.is_finite value) then
    failwith (Printf.sprintf "metric %s is not finite" name);
  t.metrics <- (name, value, unit, scale) :: t.metrics

(* One verified operation.  A failure is loud: it names what differed on
   stderr, and it makes the run incorrect. *)
let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "perfbench: MISMATCH: %s\n%!" what
  end

let has t name = List.exists (fun (n, _, _, _) -> n = name) t.metrics

let ok_share t =
  float_of_int (t.attempted - t.failed) /. float_of_int (max 1 t.attempted)

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* The result line, with timings scaled to the reference host speed
   ({!Perfbench.Refspeed}): by the kernels' factor raised to
   [elasticity], how much more than the kernels the workload's own code
   follows the host's speed.  Values keep all 17 significant digits. *)
let print ?(elasticity = 1.) t =
  let factor = Perfbench.Refspeed.factor () ** elasticity in
  note "host speed: %s over %d samples each; timings scaled by %.4f (%.4f^%g)"
    (String.concat ", "
       (Array.to_list
          (Array.map (fun (k, s) -> Printf.sprintf "%s %.4fx nominal" k s)
             (Perfbench.Refspeed.slowdowns ()))))
    (Perfbench.Refspeed.count ()) factor (Perfbench.Refspeed.factor ()) elasticity;
  let metrics =
    List.rev_map
      (fun (name, value, unit, scale) ->
        if scale <> Plain then note "  %s raw %.6g %s" name value unit;
        Printf.sprintf "%s:{\"value\":%.17g,\"unit\":%s}"
          (Ccs.Json.to_string (Ccs.Json.String name))
          (match scale with Plain -> value | Time -> value *. factor)
          (Ccs.Json.to_string (Ccs.Json.String unit)))
      t.metrics
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (t.failed = 0 && t.attempted > 0) t.attempted t.failed (String.concat "," metrics)

(* Peak resident set of a process, from /proc/PID/status, in MB. *)
let vmhwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> Some (float_of_int kb /. 1024.))
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let self_peak_rss_mb () = Option.value ~default:0. (vmhwm_mb "self")

(* Words allocated so far (minor + major, minus promotions counted
   twice). *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* [allocated_words] around [f], less what the two readings themselves
   allocate, so an allocation-free [f] reads exactly 0. *)
let alloc_overhead =
  lazy
    (let a = allocated_words () in
     let b = allocated_words () in
     b -. a)

let words_allocated_by f =
  let overhead = Lazy.force alloc_overhead in
  let a = allocated_words () in
  let v = f () in
  let b = allocated_words () in
  (v, b -. a -. overhead)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let min_rounds = 3

(* Run [f round] until [budget] seconds have passed and at least
   [min_rounds] rounds are done; a faster program fits more rounds into
   the same window instead of shortening it.  Returns the round count. *)
let rounds ?(stop = fun () -> false) ~budget f =
  let t0 = now () in
  let r = ref 0 in
  while (!r < min_rounds || now () -. t0 < budget) && not (stop ()) do
    f !r;
    incr r
  done;
  !r

(* Set up [reps] times, keeping the last result and passing every
   earlier one to [discard], outside the timing: [setup_s] is the median
   of the repetitions. *)
let setup ?(discard = ignore) t ~reps f =
  let samples = ref [] and last = ref None in
  for rep = 1 to reps do
    let v, dt = time f in
    Perfbench.Refspeed.sample ();
    samples := dt :: !samples;
    if rep < reps then discard v else last := Some v
  done;
  if t.e2e then metric ~scale:Time t "setup_s" "s" (Perfbench.Stats.median !samples);
  Option.get !last

(* The type of the filesystem holding [work], from the longest mount
   point that prefixes its real path. *)
let filesystem work =
  let path = Unix.realpath work in
  let best = ref ("", "?") in
  (try
     In_channel.with_open_text "/proc/self/mountinfo" (fun ic ->
         In_channel.input_all ic |> String.split_on_char '\n'
         |> List.iter (fun line ->
                match String.split_on_char ' ' line with
                | _ :: _ :: _ :: _ :: mount :: rest -> (
                    let rec after_dash = function
                      | "-" :: fstype :: _ -> Some fstype
                      | _ :: tl -> after_dash tl
                      | [] -> None
                    in
                    match after_dash rest with
                    | Some fstype
                      when String.length mount > String.length (fst !best)
                           && (mount = "/" || path = mount
                              || String.starts_with ~prefix:(mount ^ "/") path) ->
                        best := (mount, fstype)
                    | _ -> ())
                | _ -> ()))
   with Sys_error _ -> ());
  snd !best
