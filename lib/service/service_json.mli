(** Machine-readable output of the service bench: the
    [BENCH_service.json] document (schema ["nrl-service/1"]) that
    [nrlsim bench-service] writes and CI tracks as an artifact, printed
    by {!Obs.Json.to_doc}.

    [config] holds the knobs the run was configured with.  Per-mode
    rows carry the crash/recovery ledger (on a healthy run
    [crashes = recoveries = schedule_len] and
    [conservation_violations = 0]), the client-observed outcome
    counters, ok-throughput, latency and recovery-time-to-healthy
    quantiles, and the shed rate.  [domains_available] reports the
    measuring host honestly — on a 1-core container the domains
    time-share. *)

val schema_version : string
(** ["nrl-service/1"] *)

type mode_row = {
  m_result : Engine.result;
  m_crash_interval : float;  (** the interval this row ran with *)
}

type t = {
  domains_available : int;
  seed : int;
  config : Engine.config;  (** [mode] and [crash_interval] vary per row *)
  modes : mode_row list;
}

val render : t -> string
(** The complete JSON document ({!Obs.Json.to_doc}), trailing newline
    included. *)

val write : path:string -> t -> unit
(** {!render} to [path] through {!Obs.Json.write_file}. *)
