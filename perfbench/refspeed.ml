(* Host speed, measured beside the work.

   On a shared host the speed available to one process drifts by tens
   of percent over seconds and minutes, and CPU time drifts as much as
   wall time, so two runs of the same code can differ by more than any
   useful bound.  The harness therefore times fixed reference kernels,
   code no change to the library can touch, interleaved with the timed
   work, and scales every timing by [nominal /. measured].  Timings then
   read as they would on a host where the kernels take their nominal
   time; the raw values and the factor are printed with each run.

   The kernels run in a helper process forked before the workload
   starts, while the harness waits for them: the helper's heap holds
   only the kernels' own data, so the library's garbage and heap size
   cannot slow them, and every kernel runs once untimed before it is
   timed, so the library's cache footprint cannot either. *)

(* Random updates over [table]: cache and memory latency. *)
let scatter table updates () =
  let mask = Array.length table - 1 in
  let x = ref 12345 in
  for i = 0 to updates do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = (!x lsr 4) land mask in
    table.(j) <- table.(j) + i
  done

(* 1 MB, which the caches hold, and 32 MB, which they do not: the
   second made on first use, so only the helper holds it. *)
let near = Array.make (1 lsl 17) 0
let far = lazy (Array.make (1 lsl 22) 0)

let small = Array.init 4096 (fun i -> i * 2654435761 land 0xffff)

(* Data-dependent branches over a 32 KB table: the tight loops of
   minimum-buffer sizing and the segmentation DP. *)
let branchy () =
  let acc = ref 0 and x = ref 1 in
  for _ = 0 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let v = small.(!x land 4095) in
    if v land 1 = 0 then acc := !acc + v else acc := !acc lxor (v lsl 1)
  done;
  ignore (Sys.opaque_identity !acc)

module IM = Map.Make (Int)

(* Short-lived boxed values, lists and a balanced map: the allocator and
   the minor collector, where the planner and the interpreter spend
   much of their time. *)
let churn () =
  let m = ref IM.empty in
  for i = 0 to 3_500 do
    m := IM.add (i * 7919 land 0xffff) (float_of_int i, [ i ]) !m
  done;
  let l = List.init 3_500 (fun i -> (i, float_of_int i)) in
  ignore
    (Sys.opaque_identity
       (List.fold_left (fun a (i, f) -> a +. f +. float_of_int i) 0. (List.rev l)
       +. float_of_int (IM.cardinal !m)))

(* Name, kernel and nominal time in seconds. *)
let kernels =
  [|
    ("scatter", scatter near 200_000, 0.5e-3);
    ("dram", (fun () -> scatter (Lazy.force far) 40_000 ()), 0.52e-3);
    ("branchy", branchy, 0.8e-3);
    ("churn", churn, 1.6e-3);
  |]

let samples = Array.map (fun _ -> ref []) kernels

(* Each kernel run warm, then timed; the times in seconds, one line. *)
let measure () =
  String.concat " "
    (Array.to_list
       (Array.map
          (fun (_, k, _) ->
            k ();
            let t0 = Unix.gettimeofday () in
            k ();
            Printf.sprintf "%.17g" (Unix.gettimeofday () -. t0))
          kernels))

type helper = { pid : int; requests : out_channel; replies : in_channel }

let helper = ref None

(* Fork the helper.  It answers every request line with one [measure]
   line and exits when the requests pipe closes, which [at_exit] does
   and the harness's death does too. *)
let start () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close rep_r;
      let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr rep_w in
      (try
         while true do
           ignore (input_line ic);
           output_string oc (measure () ^ "\n");
           flush oc
         done
       with End_of_file | Sys_error _ -> ());
      (* Not [exit]: the harness's [at_exit] handlers are not the helper's. *)
      Unix._exit 0
  | pid ->
      Unix.close req_r;
      Unix.close rep_w;
      let h =
        { pid; requests = Unix.out_channel_of_descr req_w; replies = Unix.in_channel_of_descr rep_r }
      in
      helper := Some h;
      at_exit (fun () ->
          close_out_noerr h.requests;
          close_in_noerr h.replies;
          ignore (Unix.waitpid [] h.pid))

let sample () =
  let h = match !helper with Some h -> h | None -> failwith "Refspeed.sample before start" in
  output_string h.requests "sample\n";
  flush h.requests;
  List.iteri
    (fun i t -> samples.(i) := float_of_string t :: !(samples.(i)))
    (String.split_on_char ' ' (input_line h.replies))

let count () = List.length !(samples.(0))

(* Samples per kernel, and samples taken by another process. *)
let all_samples () = Array.map ( ! ) samples
let add kernel xs = samples.(kernel) := xs @ !(samples.(kernel))

(* Measured over nominal, per kernel; 1 before any sample. *)
let slowdowns () =
  Array.mapi
    (fun i (name, _, nominal) ->
      (name, match !(samples.(i)) with [] -> 1. | xs -> Stats.median xs /. nominal))
    kernels

(* Multiply a time measured in this run by this to get the time at the
   nominal speed: the inverse of the kernels' mean slowdown. *)
let factor () =
  let s = slowdowns () in
  float_of_int (Array.length s) /. Array.fold_left (fun acc (_, x) -> acc +. x) 0. s
