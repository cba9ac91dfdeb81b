(* The sharded recoverable-object service (lib/service): Zipf sampler
   properties, latency-histogram quantiles and merging, per-kind crash
   drills at every crash position (including crashes during recovery),
   the shard degradation ladder, and whole-engine smokes — conservation
   after injected shard kills and the seed-determinism of the crash
   adversary.  Multi-shard smokes skip on single-core hosts like
   test_native_parallel.ml does. *)

let domains_available = Domain.recommended_domain_count ()
let skip_if_single () = if domains_available < 2 then Alcotest.skip ()

(* {2 Zipf sampler} *)

let test_zipf_range_and_skew () =
  let n = 50 in
  let z = Service.Zipf.create ~n ~skew:0.99 in
  Alcotest.(check int) "n" n (Service.Zipf.n z);
  let rng = Runtime.Torture.rng_create 7 in
  let counts = Array.make n 0 in
  for _ = 1 to 20_000 do
    let k = Service.Zipf.draw z rng in
    Alcotest.(check bool) "in range" true (k >= 0 && k < n);
    counts.(k) <- counts.(k) + 1
  done;
  (* rank 0 is the hottest and beats the tail decisively *)
  Alcotest.(check bool) "rank 0 hottest" true (counts.(0) > counts.(1));
  Alcotest.(check bool) "head dominates tail" true (counts.(0) > 4 * counts.(n - 1));
  (* uniform at skew 0: every key drawn, no runaway head *)
  let u = Service.Zipf.create ~n ~skew:0.0 in
  let ucounts = Array.make n 0 in
  for _ = 1 to 20_000 do
    let k = Service.Zipf.draw u rng in
    ucounts.(k) <- ucounts.(k) + 1
  done;
  Array.iteri
    (fun i c -> if c = 0 then Alcotest.failf "uniform never drew key %d" i)
    ucounts;
  Alcotest.(check bool) "uniform head is not hot" true
    (ucounts.(0) < 3 * (20_000 / n))

let test_zipf_deterministic () =
  let z = Service.Zipf.create ~n:100 ~skew:0.99 in
  let seq seed =
    let rng = Runtime.Torture.rng_create seed in
    List.init 200 (fun _ -> Service.Zipf.draw z rng)
  in
  Alcotest.(check (list int)) "same seed replays" (seq 42) (seq 42);
  Alcotest.(check bool) "different seeds diverge" true (seq 1 <> seq 2)

(* {2 Latency histogram}

   The service records latencies in [Obs.Metrics] histograms: one per
   domain, merged registry-wise at the join. *)

module H = Obs.Metrics.Histogram

let fresh_hist () = Obs.Metrics.histogram (Obs.Metrics.create ()) "h"

let test_latency_quantiles () =
  let h = fresh_hist () in
  for v = 1 to 1_000 do
    H.observe h v
  done;
  Alcotest.(check int) "count" 1_000 (H.count h);
  Alcotest.(check int) "sum" 500_500 (H.sum h);
  Alcotest.(check int) "max" 1_000 (H.max_value h);
  let p50 = H.quantile h 0.5 in
  (* an upper bound within one bucket (~6%) of the true quantile *)
  Alcotest.(check bool) "p50 bracketed" true (p50 >= 500 && p50 <= 540);
  let p99 = H.quantile h 0.99 in
  Alcotest.(check bool) "p99 bracketed" true (p99 >= 990 && p99 <= 1_024);
  Alcotest.(check int) "p100 is the max" 1_000 (H.quantile h 1.0);
  (* small values are exact *)
  let e = fresh_hist () in
  List.iter (H.observe e) [ 3; 3; 7 ];
  Alcotest.(check int) "exact small p50" 3 (H.quantile e 0.5);
  Alcotest.(check int) "exact small p100" 7 (H.quantile e 1.0);
  Alcotest.(check int) "empty quantile" 0 (H.quantile (fresh_hist ()) 0.99)

let test_latency_merge () =
  let observe_range reg lo hi =
    let h = Obs.Metrics.histogram reg "h" in
    for v = lo to hi do
      H.observe h v
    done
  in
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  observe_range a 1 500;
  observe_range b 501 1_000;
  let merged = Obs.Metrics.create () in
  Obs.Metrics.merge ~into:merged a;
  Obs.Metrics.merge ~into:merged b;
  let m = Obs.Metrics.histogram merged "h" in
  let whole = fresh_hist () in
  for v = 1 to 1_000 do
    H.observe whole v
  done;
  Alcotest.(check int) "merged count" (H.count whole) (H.count m);
  Alcotest.(check int) "merged sum" (H.sum whole) (H.sum m);
  Alcotest.(check int) "merged max" (H.max_value whole) (H.max_value m);
  Alcotest.(check int) "merged p99 = whole p99" (H.quantile whole 0.99) (H.quantile m 0.99)

(* {2 Per-kind crash drills}

   Run updates against one object of each kind, crashing the operation
   at every crash-point position in turn — and, on a second pass,
   crashing the recovery itself at every position — then audit the
   conservation ledger against the final state.  This is the shard
   recovery pipeline minus the domains. *)

let drill ~recrash () =
  let keys = 5 in
  let t = Service.Robjects.create ~keys in
  let p = Service.Robjects.pending_create () in
  let cp = Runtime.Crash.create () in
  let expected = Array.make keys 0 in
  let rng = Runtime.Torture.rng_create 13 in
  for key = 0 to keys - 1 do
    for round = 0 to 39 do
      let arg = 1 + Runtime.Torture.rng_int rng 1_000 in
      Service.Robjects.begin_op p ~key (Service.Robjects.Update arg);
      (* crash the first attempt at position [round mod 10] (indexes
         past the op's last point simply do not fire) *)
      Runtime.Crash.arm cp (round mod 10);
      let result =
        match Service.Robjects.exec t ~cp p with
        | r ->
          Runtime.Crash.disarm cp;
          r
        | exception Runtime.Crash.Crashed ->
          (* recovery, optionally crashed at every position in turn *)
          let rec recover_loop attempt =
            Runtime.Crash.disarm cp;
            if recrash && attempt <= 3 then Runtime.Crash.arm cp (attempt - 1);
            match Service.Robjects.recover t ~cp p with
            | r ->
              Runtime.Crash.disarm cp;
              r
            | exception Runtime.Crash.Crashed -> recover_loop (attempt + 1)
          in
          recover_loop 1
      in
      ignore result;
      Service.Robjects.apply_expected expected p;
      Service.Robjects.end_op p
    done
  done;
  for key = 0 to keys - 1 do
    let final = Service.Robjects.final_value t key in
    if final <> expected.(key) then
      Alcotest.failf "key %d (%s): expected %d, final state %d" key
        (Service.Robjects.kind_name (Service.Robjects.kind_of_key t key))
        expected.(key) final
  done

let test_crash_drill () = drill ~recrash:false ()
let test_crash_drill_recrash () = drill ~recrash:true ()

let test_read_recovery () =
  (* crashed reads recover without perturbing state *)
  let t = Service.Robjects.create ~keys:5 in
  let p = Service.Robjects.pending_create () in
  let cp = Runtime.Crash.create () in
  let expected = Array.make 5 0 in
  for key = 0 to 4 do
    (* one committed update so reads see something *)
    Service.Robjects.begin_op p ~key (Service.Robjects.Update 7);
    ignore (Service.Robjects.exec t ~cp p);
    Service.Robjects.apply_expected expected p;
    Service.Robjects.end_op p;
    let before = Service.Robjects.final_value t key in
    for pos = 0 to 7 do
      Service.Robjects.begin_op p ~key Service.Robjects.Read;
      Runtime.Crash.arm cp pos;
      (match Service.Robjects.exec t ~cp p with
      | _ -> Runtime.Crash.disarm cp
      | exception Runtime.Crash.Crashed ->
        Runtime.Crash.disarm cp;
        ignore (Service.Robjects.recover t ~cp p));
      Service.Robjects.end_op p
    done;
    Alcotest.(check int) "state undisturbed by reads" before
      (Service.Robjects.final_value t key);
    Alcotest.(check int) "ledger matches" expected.(key)
      (Service.Robjects.final_value t key)
  done

(* {2 Shard degradation ladder} *)

let shard_cfg ?(queue_bound = 8) ?(shed_fraction = 0.0) () =
  {
    Service.Shard.queue_bound;
    shed_fraction;
    watchdog = Runtime.Torture.default_watchdog;
    recrash_prob = 0.0;
  }

let test_shard_reject_and_unavailable () =
  let sh = Service.Shard.create ~sid:0 ~keys:5 ~seed:1 (shard_cfg ~queue_bound:4 ()) in
  (* queue bound: the 5th submission is rejected newest-first *)
  for _ = 1 to 4 do
    match Service.Shard.try_push sh (Service.Shard.request ~key:0 Service.Robjects.Read) with
    | `Ok -> ()
    | _ -> Alcotest.fail "push within the bound refused"
  done;
  (match Service.Shard.try_push sh (Service.Shard.request ~key:0 Service.Robjects.Read) with
  | `Rejected -> ()
  | _ -> Alcotest.fail "expected `Rejected at the bound");
  Alcotest.(check int) "queue length" 4 (Service.Shard.queue_length sh);
  (* killed/recovering shards refuse outright *)
  Atomic.set sh.Service.Shard.status 1;
  (match Service.Shard.try_push sh (Service.Shard.request ~key:0 Service.Robjects.Read) with
  | `Unavailable -> ()
  | _ -> Alcotest.fail "expected `Unavailable while recovering");
  Alcotest.(check bool) "not healthy" false (Service.Shard.is_healthy sh)

let test_shard_sheds_reads_above_watermark () =
  (* queue 8 reads with shed fraction 1.0: pops with >= 6 (the 3/4
     watermark) still queued are shed, the rest execute *)
  let sh =
    Service.Shard.create ~sid:0 ~keys:5 ~seed:1 (shard_cfg ~queue_bound:8 ~shed_fraction:1.0 ())
  in
  let rqs =
    Array.init 8 (fun _ -> Service.Shard.request ~key:0 Service.Robjects.Read)
  in
  Array.iter
    (fun rq ->
      match Service.Shard.try_push sh rq with
      | `Ok -> ()
      | _ -> Alcotest.fail "push refused")
    rqs;
  let worker = Domain.spawn (fun () -> Service.Shard.run sh) in
  let deadline = Obs.Clock.now_ns () + 5_000_000_000 in
  Array.iter
    (fun rq ->
      while
        Atomic.get rq.Service.Shard.rq_status = Service.Shard.st_pending
        && Obs.Clock.now_ns () < deadline
      do
        Domain.cpu_relax ()
      done)
    rqs;
  Atomic.set sh.Service.Shard.stop true;
  Domain.join worker;
  let shed =
    Array.fold_left
      (fun n rq ->
        if Atomic.get rq.Service.Shard.rq_status = Service.Shard.st_shed then n + 1 else n)
      0 rqs
  in
  let ok =
    Array.fold_left
      (fun n rq ->
        if Atomic.get rq.Service.Shard.rq_status = Service.Shard.st_ok then n + 1 else n)
      0 rqs
  in
  Alcotest.(check int) "all answered" 8 (shed + ok);
  Alcotest.(check int) "pops above the watermark shed" 2 shed;
  let shed_counter =
    match Obs.Metrics.view sh.Service.Shard.reg Obs.Names.service_shed with
    | Some (Obs.Metrics.Counter n) -> n
    | _ -> 0
  in
  Alcotest.(check int) "service.shed counted" 2 shed_counter

(* {2 Engine: conservation under injected kills, determinism} *)

let engine_cfg ~mode ~shards =
  {
    Service.Engine.default with
    Service.Engine.shards;
    sessions = 8;
    client_domains = 1;
    keys = 25;
    duration = 0.4;
    mode;
    crash_interval = 0.04;
    recrash_prob = 0.5;
    seed = 11;
  }

let check_healthy (r : Service.Engine.result) =
  Alcotest.(check int) "crashes = schedule" r.Service.Engine.r_schedule_len
    r.Service.Engine.r_crashes;
  Alcotest.(check int) "recoveries = crashes" r.Service.Engine.r_crashes
    r.Service.Engine.r_recoveries;
  Alcotest.(check int) "no giveups" 0 r.Service.Engine.r_giveups;
  Alcotest.(check int) "no conservation violations" 0
    (List.length r.Service.Engine.r_violations)

let test_engine_conservation_under_kills () =
  let r = Service.Engine.run (engine_cfg ~mode:Service.Adversary.Poisson ~shards:1) in
  check_healthy r;
  Alcotest.(check bool) "kills were delivered" true (r.Service.Engine.r_crashes > 0);
  Alcotest.(check bool) "traffic flowed" true (r.Service.Engine.r_ok > 0)

let test_engine_deterministic_crash_ledger () =
  (* same seed, one shard: the schedule and the crash/recovery ledger
     replay exactly, independent of timing *)
  let run () = Service.Engine.run (engine_cfg ~mode:Service.Adversary.Periodic ~shards:1) in
  let a = run () and b = run () in
  Alcotest.(check int) "schedule replays" a.Service.Engine.r_schedule_len
    b.Service.Engine.r_schedule_len;
  Alcotest.(check int) "crashes replay" a.Service.Engine.r_crashes b.Service.Engine.r_crashes;
  Alcotest.(check int) "recoveries replay" a.Service.Engine.r_recoveries
    b.Service.Engine.r_recoveries;
  check_healthy a;
  check_healthy b

let test_adversary_schedule_deterministic () =
  let sched seed =
    Service.Adversary.schedule Service.Adversary.Poisson ~seed ~duration:2.0 ~interval:0.1
  in
  Alcotest.(check bool) "non-empty" true (Array.length (sched 5) > 0);
  Alcotest.(check (array (float 1e-12))) "same seed, same schedule" (sched 5) (sched 5);
  Alcotest.(check bool) "different seeds diverge" true (sched 5 <> sched 6);
  (* periodic is the interval grid *)
  let p =
    Service.Adversary.schedule Service.Adversary.Periodic ~seed:1 ~duration:1.0 ~interval:0.25
  in
  Alcotest.(check (array (float 1e-9))) "periodic grid" [| 0.25; 0.5; 0.75; 1.0 |] p;
  Alcotest.(check int) "none is empty" 0
    (Array.length
       (Service.Adversary.schedule Service.Adversary.No_crash ~seed:1 ~duration:1.0
          ~interval:0.25))

let test_engine_multi_shard_smoke () =
  skip_if_single ();
  let r = Service.Engine.run (engine_cfg ~mode:Service.Adversary.Hot ~shards:2) in
  check_healthy r;
  Alcotest.(check bool) "kills were delivered" true (r.Service.Engine.r_crashes > 0)

let suite =
  [
    Alcotest.test_case "zipf: range and skew" `Quick test_zipf_range_and_skew;
    Alcotest.test_case "zipf: seed-deterministic" `Quick test_zipf_deterministic;
    Alcotest.test_case "latency: quantile brackets" `Quick test_latency_quantiles;
    Alcotest.test_case "latency: merge is exact" `Quick test_latency_merge;
    Alcotest.test_case "crash drill at every position" `Quick test_crash_drill;
    Alcotest.test_case "crash drill with crashed recoveries" `Quick test_crash_drill_recrash;
    Alcotest.test_case "crashed reads leave state intact" `Quick test_read_recovery;
    Alcotest.test_case "ladder: reject at the bound, unavailable while down" `Quick
      test_shard_reject_and_unavailable;
    Alcotest.test_case "ladder: reads shed above the watermark" `Quick
      test_shard_sheds_reads_above_watermark;
    Alcotest.test_case "engine: conservation under poisson kills" `Quick
      test_engine_conservation_under_kills;
    Alcotest.test_case "engine: crash ledger replays for a seed" `Quick
      test_engine_deterministic_crash_ledger;
    Alcotest.test_case "adversary: schedules are seed-deterministic" `Quick
      test_adversary_schedule_deterministic;
    Alcotest.test_case "engine: multi-shard hot-mode smoke" `Quick test_engine_multi_shard_smoke;
  ]
