(* The service engine: builds the shards, spawns the worker, adversary
   and client domains, runs the traffic window, then tears everything
   down in dependency order — clients first (no new load), then the
   adversary (fires any remaining scheduled kills; workers must still
   be alive to acknowledge), then the shards (drain and join) — and
   finally audits the conservation law: every object's final state must
   equal the committed-effect total its shard recorded. *)

module Torture = Runtime.Torture

type config = {
  shards : int;
  sessions : int;
  client_domains : int;
  keys : int;
  skew : float;
  duration : float;  (** traffic window, seconds; 0 = until [should_stop] *)
  mode : Adversary.mode;
  crash_interval : float;
  deadline_ms : float;
  queue_bound : int;
  shed_fraction : float;
  recrash_prob : float;
  seed : int;
}

let default =
  {
    shards = 4;
    sessions = 64;
    client_domains = 2;
    keys = 250;
    skew = 0.99;
    duration = 2.0;
    mode = Adversary.No_crash;
    crash_interval = 0.1;
    deadline_ms = 50.0;
    queue_bound = 512;
    shed_fraction = 0.5;
    recrash_prob = 0.25;
    seed = 1;
  }

type violation = { v_shard : int; v_key : int; v_expected : int; v_actual : int }

type result = {
  r_mode : string;
  r_wall_s : float;
  r_schedule_len : int;
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
  r_throughput : float;
  r_lat : Obs.Metrics.histogram;  (** issue-to-ok latency, merged across clients *)
  r_recovery : Obs.Metrics.histogram;  (** kill-to-healthy, merged across shards *)
  r_violations : violation list;
}

let shed_rate r =
  let served = r.r_ok + r.r_shed in
  if served = 0 then 0.0 else float_of_int r.r_shed /. float_of_int served

let bench c results =
  let open Obs.Json in
  let lat l =
    let open Obs.Metrics.Histogram in
    Obj
      [
        ("count", Int (count l));
        ("p50_ns", Int (quantile l 0.5));
        ("p99_ns", Int (quantile l 0.99));
        ("max_ns", Int (max_value l));
        ("mean_ns", Num (mean l));
      ]
  in
  let row r =
    Obs.Bench.row Service ~section:"T11" r.r_mode
      [
        ("mode", Str r.r_mode);
        ("crash_interval_s", Num c.crash_interval);
        ("wall_s", Num r.r_wall_s);
        ("schedule_len", Int r.r_schedule_len);
        ("crashes", Int r.r_crashes);
        ("recoveries", Int r.r_recoveries);
        ("recovery_retries", Int r.r_recovery_retries);
        ("giveups", Int r.r_giveups);
        ("requests", Int r.r_requests);
        ("ok", Int r.r_ok);
        ("retries", Int r.r_retries);
        ("shed", Int r.r_shed);
        ("rejected", Int r.r_rejected);
        ("unavailable", Int r.r_unavailable);
        ("timeouts", Int r.r_timeouts);
        ("failures", Int r.r_failures);
        ("throughput_rps", Num r.r_throughput);
        ("shed_rate", Num (shed_rate r));
        ("latency_ns", lat r.r_lat);
        ("recovery_ns", lat r.r_recovery);
        ("conservation_violations", Int (List.length r.r_violations));
      ]
  in
  {
    Obs.Bench.config =
      [
        ("seed", Int c.seed);
        ("shards", Int c.shards);
        ("sessions", Int c.sessions);
        ("client_domains", Int c.client_domains);
        ("keys", Int c.keys);
        ("skew", Num c.skew);
        ("duration_s", Num c.duration);
        ("deadline_ms", Num c.deadline_ms);
        ("queue_bound", Int c.queue_bound);
        ("shed_fraction", Num c.shed_fraction);
        ("recrash_prob", Num c.recrash_prob);
      ];
    rows = List.map row results;
  }

(* keys are distributed round-robin: global key k lives on shard
   [k mod shards] as local key [k / shards] *)
let local_keys ~keys ~shards sid =
  if sid >= keys then 0 else ((keys - 1 - sid) / shards) + 1

let cval reg name =
  match Obs.Metrics.view reg name with Some (Obs.Metrics.Counter n) -> n | _ -> 0

let check_conservation shards =
  let out = ref [] in
  Array.iter
    (fun (sh : Shard.t) ->
      let n = Robjects.keys sh.Shard.objs in
      for k = 0 to n - 1 do
        let expected = sh.Shard.expected.(k) in
        let actual = Robjects.final_value sh.Shard.objs k in
        if actual <> expected then
          out :=
            { v_shard = sh.Shard.sid; v_key = k; v_expected = expected; v_actual = actual }
            :: !out
      done)
    shards;
  List.rev !out

let run ?obs ?(watchdog = { Torture.default_watchdog with
                            wd_backoff = Torture.Exp_jitter { base = 16; cap = 4_096; seed = 7 } })
    ?(should_stop = fun () -> false) ?on_tick cfg =
  let nshards = max 1 cfg.shards in
  let keys = max nshards cfg.keys in
  let shard_cfg =
    {
      Shard.queue_bound = max 1 cfg.queue_bound;
      shed_fraction = cfg.shed_fraction;
      watchdog;
      recrash_prob = cfg.recrash_prob;
    }
  in
  let shards =
    Array.init nshards (fun sid ->
        Shard.create ~sid ~keys:(local_keys ~keys ~shards:nshards sid) ~seed:cfg.seed shard_cfg)
  in
  let stop_clients = Atomic.make false in
  let ndom = max 1 cfg.client_domains in
  let sessions = max ndom cfg.sessions in
  let clients =
    Array.init ndom (fun d ->
        let base = sessions / ndom and extra = sessions mod ndom in
        let mine = base + (if d < extra then 1 else 0) in
        let session0 = (d * base) + min d extra in
        Client.create
          {
            Client.sessions = mine;
            session0;
            total_keys = keys;
            skew = cfg.skew;
            deadline_ns = int_of_float (cfg.deadline_ms *. 1e6);
            seed = cfg.seed;
          }
          ~shards ~stop:stop_clients)
  in
  let events =
    Adversary.schedule cfg.mode ~seed:cfg.seed ~duration:cfg.duration
      ~interval:cfg.crash_interval
  in
  let t0 = Obs.Clock.now_ns () in
  let workers = Array.map (fun sh -> Domain.spawn (fun () -> Shard.run sh)) shards in
  let adv =
    if Array.length events = 0 then None
    else
      Some
        (Domain.spawn (fun () ->
             Adversary.run ~mode:cfg.mode ~seed:cfg.seed ~start_ns:t0 shards events))
  in
  let client_doms = Array.map (fun c -> Domain.spawn (fun () -> Client.run c)) clients in
  (* the traffic window *)
  let deadline = t0 + int_of_float (cfg.duration *. 1e9) in
  let rec wait () =
    let now = Obs.Clock.now_ns () in
    if (cfg.duration > 0.0 && now >= deadline) || should_stop () then ()
    else begin
      (match on_tick with
      | Some f -> f (float_of_int (now - t0) /. 1e9) shards
      | None -> ());
      Unix.sleepf 0.05;
      wait ()
    end
  in
  wait ();
  (* teardown in dependency order *)
  Atomic.set stop_clients true;
  Array.iter Domain.join client_doms;
  (match adv with None -> () | Some d -> Domain.join d);
  Array.iter (fun (sh : Shard.t) -> Atomic.set sh.Shard.stop true) shards;
  Array.iter Domain.join workers;
  let wall_s = float_of_int (Obs.Clock.now_ns () - t0) /. 1e9 in
  (* exact aggregation at the join, in worker order *)
  let reg = Obs.Metrics.create () in
  Array.iter (fun (sh : Shard.t) -> Obs.Metrics.merge ~into:reg sh.Shard.reg) shards;
  Array.iter (fun (c : Client.t) -> Obs.Metrics.merge ~into:reg c.Client.reg) clients;
  (match obs with Some into -> Obs.Metrics.merge ~into reg | None -> ());
  let ok = cval reg Obs.Names.service_ok in
  let denom = if cfg.duration > 0.0 then cfg.duration else wall_s in
  {
    r_mode = Adversary.mode_name cfg.mode;
    r_wall_s = wall_s;
    r_schedule_len = Array.length events;
    r_crashes = cval reg Obs.Names.service_crashes;
    r_recoveries = cval reg Obs.Names.service_recoveries;
    r_recovery_retries = cval reg Obs.Names.service_recovery_retries;
    r_giveups = cval reg Obs.Names.service_giveups;
    r_requests = cval reg Obs.Names.service_requests;
    r_ok = ok;
    r_retries = cval reg Obs.Names.service_retries;
    r_shed = cval reg Obs.Names.service_shed;
    r_rejected = cval reg Obs.Names.service_rejected;
    r_unavailable = cval reg Obs.Names.service_unavailable;
    r_timeouts = cval reg Obs.Names.service_timeouts;
    r_failures = cval reg Obs.Names.service_failures;
    r_throughput = (if denom > 0.0 then float_of_int ok /. denom else 0.0);
    r_lat = Obs.Metrics.histogram reg Obs.Names.service_latency;
    r_recovery = Obs.Metrics.histogram reg Obs.Names.service_recovery_ns;
    r_violations = check_conservation shards;
  }
