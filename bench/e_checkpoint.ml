(* E20: checkpointing vs interval.  Every app in the suite is driven by the
   crash-safe supervisor without checkpointing (baseline) and with
   checkpoints every k epochs, k in {1, 4, 16}.  The miss counts must be
   identical — checkpointing is pure observation.  Its wall-clock cost is
   not measured here; perfbench/ is the repo's timer. *)

open Util

let intervals = [ 1; 4; 16 ]
let default_interval = Ccs.Supervisor.default_config.Ccs.Supervisor.checkpoint_every

let fresh_dir =
  let counter = ref 0 in
  fun app k ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ccs-e20-%d-%s-%d-%d" (Unix.getpid ()) app k !counter)
    in
    dir

let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let e20 () =
  section "E20-checkpoint" "checkpointing vs interval (crash safety)";
  let m = 2048 and b = 16 in
  let cfg = Ccs.Config.make ~cache_words:m ~block_words:b () in
  let cache = Ccs.Config.cache_config cfg in
  (* Long enough runs that per-checkpoint file I/O amortizes: 16 epochs of
     outputs/16 sink firings each, so k=4 writes 4 checkpoints per run
     whatever the app's repetition vector. *)
  let outputs = 20_000 in
  let epoch_outputs = outputs / 16 in
  let mismatches = ref 0 in
  let rows =
    List.map
      (fun entry ->
        let app = entry.Ccs_apps.Suite.name in
        let g = entry.Ccs_apps.Suite.graph () in
        let choice = Ccs.Auto.plan ~dynamic:false g cfg in
        let plan = choice.Ccs.Auto.plan in
        let supervised ?checkpoint_dir ~interval () =
          let config =
            { Ccs.Supervisor.default_config with checkpoint_every = interval }
          in
          match
            Ccs.Supervisor.run ~config ?checkpoint_dir ~epoch_outputs ~graph:g
              ~cache ~plan ~outputs ()
          with
          | Ok report -> report
          | Error e -> failwith (Ccs.Error.to_string e)
        in
        let base = supervised ~interval:default_interval () in
        let base_misses = base.Ccs.Supervisor.result.Ccs.Runner.misses in
        let cols =
          List.map
            (fun k ->
              let dir = fresh_dir app k in
              let report =
                Fun.protect
                  ~finally:(fun () -> remove_dir dir)
                  (fun () -> supervised ~checkpoint_dir:dir ~interval:k ())
              in
              let misses = report.Ccs.Supervisor.result.Ccs.Runner.misses in
              if misses <> base_misses then incr mismatches;
              if Json.enabled () then
                Json.point
                  [
                    ("kind", Json.String "checkpoint_overhead");
                    ("graph", Json.String app);
                    ("m", Json.Int m);
                    ("b", Json.Int b);
                    ("outputs", Json.Int outputs);
                    ("interval", Json.Int k);
                    ("epochs", Json.Int report.Ccs.Supervisor.epochs);
                    ( "checkpoints",
                      Json.Int report.Ccs.Supervisor.checkpoints_written );
                    ("misses", Json.Int misses);
                    ("misses_match", Json.Bool (misses = base_misses));
                  ];
              Printf.sprintf "%d%s" report.Ccs.Supervisor.checkpoints_written
                (if misses = base_misses then "" else " NO"))
            intervals
        in
        [ app; string_of_int base_misses ] @ cols)
      Ccs_apps.Suite.all
  in
  Ccs.Table.print
    ~header:
      ([ "app"; "misses" ]
      @ List.map (fun k -> Printf.sprintf "ckpts k=%d" k) intervals)
    ~rows;
  note "miss mismatches under checkpointing: %d (must be 0)" !mismatches;
  note "checkpointing never changes a single miss count"
