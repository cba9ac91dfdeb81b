(** The service engine: shards, adversary and clients wired together
    for one traffic window, with a conservation audit at teardown.

    Teardown order is part of the correctness story: clients stop
    first, then the adversary joins (it fires {e every} scheduled kill,
    so crash counts are seed-deterministic), then the shards drain and
    join.  Registries merge at the join in worker order — aggregated
    counters are exact sums. *)

type config = {
  shards : int;
  sessions : int;
  client_domains : int;
  keys : int;  (** clamped up to [shards] so every shard owns a key *)
  skew : float;
  duration : float;  (** traffic window, seconds; 0 = until [should_stop] *)
  mode : Adversary.mode;
  crash_interval : float;
  deadline_ms : float;
  queue_bound : int;
  shed_fraction : float;
  recrash_prob : float;  (** chance each recovery attempt is itself crashed *)
  seed : int;
}

val default : config
(** 4 shards, 64 sessions, 2 client domains, 250 keys, skew 0.99, 2 s,
    no adversary, 0.1 s crash interval, 50 ms deadline, queue bound
    512, shed fraction 0.5, recrash probability 0.25, seed 1. *)

type violation = { v_shard : int; v_key : int; v_expected : int; v_actual : int }

type result = {
  r_mode : string;
  r_wall_s : float;
  r_schedule_len : int;  (** scheduled kills — must equal crashes *)
  r_crashes : int;
  r_recoveries : int;
  r_recovery_retries : int;
  r_giveups : int;
  r_requests : int;
  r_ok : int;
  r_retries : int;
  r_shed : int;
  r_rejected : int;
  r_unavailable : int;
  r_timeouts : int;
  r_failures : int;
  r_throughput : float;  (** ok responses per second of traffic window *)
  r_lat : Obs.Metrics.histogram;  (** issue-to-ok latency, merged across clients *)
  r_recovery : Obs.Metrics.histogram;  (** kill-to-healthy, merged across shards *)
  r_violations : violation list;  (** conservation-law violations *)
}

val shed_rate : result -> float
(** Shed answers over served answers (ok + shed); 0 when idle. *)

val bench : config -> result list -> Obs.Bench.t
(** The [bench-service] document of results run under [config] (only
    the crash mode varies between them).  [config] holds [seed] and the
    engine knobs; each result is one [service] row of section ["T11"],
    named after its crash mode: the crash/recovery ledger (on a healthy
    run [crashes = recoveries = schedule_len] and
    [conservation_violations = 0]), the client-observed outcome
    counters, ok-throughput, latency and recovery-time-to-healthy
    quantiles ([latency_ns]/[recovery_ns]: count, p50, p99, max, mean)
    and the shed rate. *)

val run :
  ?obs:Obs.Metrics.t ->
  ?watchdog:Runtime.Torture.watchdog ->
  ?should_stop:(unit -> bool) ->
  ?on_tick:(float -> Shard.t array -> unit) ->
  config ->
  result
(** One traffic window.  [obs] additionally receives the merged
    metrics; [watchdog] bounds shard recovery (default: the torture
    default with [Exp_jitter] backoff); [should_stop] is polled every
    50 ms (the only exit when [duration = 0]); [on_tick] observes
    elapsed seconds and the live shards at the same cadence. *)
