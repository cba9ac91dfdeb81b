(** Versioned on-disk checkpoints for resumable exploration.

    {!Explore.sweep} partitions the search into frontier tasks and
    checkpoints {e at task granularity}: a checkpoint records each task's
    root — as the decision path from the search root plus the crash
    budget consumed along it — a completion flag per task, and the
    statistics/metrics accumulated from the expansion phase and the
    tasks completed so far.  In-flight work is deliberately {e not}
    persisted: a killed run discards partially explored tasks and
    re-runs them from their roots on resume, which is what makes the
    resumed totals exactly equal to an uninterrupted run's.

    Format: NDJSON, schema ["nrl-checkpoint/3"] (documented field by
    field in docs/resilience.md).  Version 3 adds the [k<mask>] path
    token for full-system-crash decisions ([Schedule.Dcrash_sys]);
    version 2 persists only the pending task set (totals/metrics cover
    exactly the completed work); version-1 files, which carried the full
    partition with per-task done flags, are still accepted by {!load}.
    The format is append-free: every {!save} rewrites the whole file.
    Records are printed and parsed by {!Obs.Json}; metric lines use
    {!Obs.Metrics.record}.  {!save} goes through {!Obs.Json.write_file}
    (write-to-temporary, then [Sys.rename]): a kill mid-save leaves the
    previous valid checkpoint. *)

val schema_version : string
(** ["nrl-checkpoint/3"], the version {!save} writes.  {!load} also
    accepts ["nrl-checkpoint/2"] and ["nrl-checkpoint/1"]. *)

type totals = {
  ck_nodes : int;
  ck_terminals : int;
  ck_truncated : int;
  ck_dup : int;
}

type task = {
  ck_path : Schedule.decision list;
      (** decisions from the search root to the task's root, in
          application order *)
  ck_crashes : int;
      (** crash budget consumed on the path — recorded explicitly because
          the engine does not always charge a crash decision at
          terminal-but-extendable nodes, so it cannot be recomputed from
          the path alone *)
  ck_done : bool;
}

type t = {
  scenario : (string * string) list;
      (** printable stamp of what was being explored; a resume must
          present an equal stamp or be rejected *)
  tasks : task array;
  totals : totals;  (** exact: expansion + completed tasks only *)
  metrics : (string * Obs.Metrics.view) list;
      (** metric views on the same accumulation basis, restored with
          {!Obs.Metrics.absorb} *)
  result : (string * string) option;
      (** final [(verdict, detail)] — [("clean", "")] or
          [("violation", reason)] — once the search finished; [None]
          while the checkpoint is resumable *)
}

val save : path:string -> t -> unit
(** Serialize atomically: write [path ^ ".tmp"], then rename over
    [path]. *)

val load : string -> (t, string) result
(** Parse a checkpoint file; [Error] describes unreadable files,
    malformed records and schema mismatches. *)

(**/**)

val decision_token : Schedule.decision -> string
val decision_of_token : string -> Schedule.decision
val path_to_string : Schedule.decision list -> string
val path_of_string : string -> Schedule.decision list
