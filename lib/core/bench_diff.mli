(** Regression diff over two benchmark JSON documents.

    Compares two [bench/main.exe --json] outputs (schema v3): experiments
    are paired by id — ids present in only one document are reported but
    not compared, so a [--quick] run diffs cleanly against a committed
    full-run baseline.  Records within an experiment are paired by their
    ["id"] member when every record on both sides carries a unique string
    id (e.g. E22's per-app adaptation records), positionally otherwise;
    under id pairing a dropped or added record id is a finding.

    The harness is deterministic by construction and records no wall-clock
    time, so every field (miss counts, attribution, buffer sizes,
    predicted bounds, equivalence flags) must match {e exactly}: a changed,
    added or removed field is a finding, and so is a changed record count
    within an experiment.

    This is the engine behind [ccsched bench diff OLD NEW] and the CI
    [bench-regress] gate. *)

type finding = {
  experiment : string;  (** Experiment id, e.g. ["E7"]. *)
  record : int option;  (** Record index, [None] for experiment-level. *)
  field : string;
  old_value : string;
  new_value : string;
  detail : string;  (** Human-readable reason. *)
}

type report = {
  findings : finding list;  (** In document order; each one is a failure. *)
  experiments_compared : int;
  records_compared : int;
  old_only : string list;  (** Ids only in the old document (informational). *)
  new_only : string list;
}

val has_failures : report -> bool
(** Whether there is any finding — the CI gate's exit condition. *)

val diff : old_doc:Ccs_obs.Json.value -> new_doc:Ccs_obs.Json.value -> report
(** Diff two parsed documents. *)

val diff_files : old_path:string -> new_path:string -> (report, string) result
(** Read, parse and {!diff} two files; [Error] carries a parse or I/O
    message. *)

val pp : Format.formatter -> report -> unit
(** Summary line, uncompared-id notes, then one line per finding. *)
