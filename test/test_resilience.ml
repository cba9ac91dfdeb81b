(* The resilience layer: search budgets and their structured partial
   verdicts, checkpoint save/load and kill-and-resume determinism (the
   resumed verdict and counters must be byte-identical to an
   uninterrupted run's), adversarial junk strategies (distinct post-crash
   states, identical NRL verdicts on the paper's algorithms), and the
   torture harness's recovery watchdog (bounded retries, livelock fuse,
   the pinned crashes = retries + aborted_recoveries relation). *)

open Machine

let crashy_cfg =
  { Explore.default_config with max_steps = 100; max_crashes = 1; crash_procs = [ 0 ] }

let scen_of = function
  | `Register -> Workload.Scenarios.register ~nprocs:2 ~ops:1 ()
  | `Counter -> Workload.Scenarios.counter ~nprocs:2 ~ops:1 ()
  | `Tas -> Workload.Scenarios.tas ~nprocs:2 ()
  | `Cas -> Workload.Scenarios.cas ~nprocs:2 ~ops:1 ()
  | `NaiveTas -> Workload.Scenarios.naive_tas ~nprocs:2 ()

let build ?junk which =
  let scen = scen_of which in
  let sim = Sim.create ~nprocs:scen.Workload.Trial.nprocs () in
  scen.Workload.Trial.build sim;
  Option.iter (Sim.set_junk_strategy sim) junk;
  sim

(* {1 Budgets} *)

let test_budget_max_nodes () =
  (* the pending-task frontier is the pool's: two domains run it *)
  let outcome, stats =
    Explore.search ~cfg:crashy_cfg ~jobs:2
      ~budget:{ Explore.no_budget with max_nodes = Some 1000 }
      ~check:Workload.Check.nrl_violation (build `Register)
  in
  match outcome with
  | Explore.Exhausted e ->
    Alcotest.(check string) "reason" "max-nodes" (Explore.exhaust_reason_name e.Explore.ex_reason);
    Alcotest.(check bool) "tasks left over" true (e.Explore.ex_frontier > 0);
    Alcotest.(check bool) "partial coverage reported" true (stats.Explore.nodes > 0)
  | _ -> Alcotest.fail "expected Exhausted"

let test_budget_deadline () =
  let outcome, _ =
    Explore.search ~cfg:crashy_cfg
      ~budget:{ Explore.no_budget with deadline_s = Some 0.0 }
      ~check:Workload.Check.nrl_violation (build `Register)
  in
  match outcome with
  | Explore.Exhausted e ->
    Alcotest.(check string) "reason" "deadline" (Explore.exhaust_reason_name e.Explore.ex_reason)
  | _ -> Alcotest.fail "expected Exhausted"

let test_should_stop () =
  let outcome, _ =
    Explore.search ~cfg:crashy_cfg
      ~should_stop:(fun () -> true)
      ~check:Workload.Check.nrl_violation (build `Register)
  in
  match outcome with
  | Explore.Exhausted e ->
    Alcotest.(check string) "reason" "interrupted"
      (Explore.exhaust_reason_name e.Explore.ex_reason)
  | _ -> Alcotest.fail "expected Exhausted"

let test_find_violation_budget () =
  let budget = { Explore.no_budget with max_nodes = Some 500 } in
  let viol, stats =
    Explore.find_violation ~cfg:crashy_cfg ~budget ~check:Workload.Check.nrl_violation
      (build `Register)
  in
  Alcotest.(check bool) "no violation claimed" true (viol = None);
  Alcotest.(check bool) "partial stats" true (stats.Explore.nodes > 0);
  (* the cut itself is read from the search the view reduces *)
  match
    Explore.search ~cfg:crashy_cfg ~budget ~check:Workload.Check.nrl_violation (build `Register)
  with
  | Explore.Exhausted e, cut_stats ->
    Alcotest.(check string) "reason" "max-nodes" (Explore.exhaust_reason_name e.Explore.ex_reason);
    Alcotest.(check int) "same coverage as the view" stats.Explore.nodes cut_stats.Explore.nodes
  | _ -> Alcotest.fail "expected Exhausted"

let test_visited_cap_degrades_not_aborts () =
  (* the cap on the dedup store is a degradation step: the sweep still
     finishes Clean, it just stops pruning *)
  let outcome, stats =
    Explore.search ~cfg:crashy_cfg ~dedup:true
      ~budget:{ Explore.no_budget with max_visited = Some 200 }
      ~check:Workload.Check.nrl_violation (build `Register)
  in
  (match outcome with
  | Explore.Clean -> ()
  | _ -> Alcotest.fail "expected Clean despite the visited cap");
  let _, undegraded =
    Explore.search ~cfg:crashy_cfg ~dedup:true ~check:Workload.Check.nrl_violation
      (build `Register)
  in
  Alcotest.(check bool) "pruning stopped once the store was dropped" true
    (stats.Explore.dup <= undegraded.Explore.dup && stats.Explore.nodes >= undegraded.Explore.nodes)

(* {1 Checkpoint persistence} *)

let test_checkpoint_roundtrip () =
  let ck =
    {
      Checkpoint.scenario = [ ("scenario", "register"); ("nprocs", "2") ];
      tasks =
        [|
          {
            Checkpoint.ck_path =
              [
                Schedule.Dstep 0;
                Schedule.Dcrash 1;
                Schedule.Drecover 1;
                (* explicit-persist system crashes carry their loss mask *)
                Schedule.Dcrash_sys 0;
                Schedule.Dcrash_sys 5;
                Schedule.Dhalt;
              ];
            ck_crashes = 3;
            ck_done = true;
          };
          { Checkpoint.ck_path = [ Schedule.Dstep 1 ]; ck_crashes = 0; ck_done = false };
        |];
      totals = { Checkpoint.ck_nodes = 42; ck_terminals = 7; ck_truncated = 1; ck_dup = 3 };
      metrics =
        [
          ("c", Obs.Metrics.Counter 5);
          ("t", Obs.Metrics.Timer { ns = 123; intervals = 2 });
          ( "h",
            Obs.Metrics.Histogram
              { count = 3; sum = 10; max_value = 8; buckets = [ (1, 1); (15, 2) ] } );
        ];
      result = None;
    }
  in
  let path = Filename.temp_file "nrl_ck" ".ndjson" in
  Checkpoint.save ~path ck;
  (match Checkpoint.load path with
  | Error e -> Alcotest.fail e
  | Ok got ->
    Alcotest.(check bool) "identical checkpoint" true (got = ck));
  (* a finalized checkpoint round-trips its verdict *)
  let final = { ck with result = Some ("violation", "because") } in
  Checkpoint.save ~path final;
  (match Checkpoint.load path with
  | Error e -> Alcotest.fail e
  | Ok got -> Alcotest.(check bool) "verdict survives" true (got = final));
  Sys.remove path

(* Files as every schema version wrote them load to the same value; a
   malformed line or an unknown schema is an [Error], never an exception. *)
let test_checkpoint_schemas_load () =
  let body =
    {|{"type":"scenario","k":"scenario","v":"register"}
{"type":"totals","nodes":42,"terminals":7,"truncated":1,"dup":3}
{"type":"task","path":"s0 c1 r1 h","crashes":1,"done":true}
{"type":"task","path":"s1","crashes":0,"done":false}
{"type":"counter","name":"c","value":5}
{"type":"timer","name":"t","ns":123,"intervals":2}
{"type":"histogram","name":"h","count":3,"sum":10,"max":8,"buckets":[{"le":1,"n":1},{"le":15,"n":2}]}
{"type":"result","verdict":"violation","reason":"tab\there \"q\" \u00e9"}
|}
  in
  let task ck_path ck_crashes ck_done = { Checkpoint.ck_path; ck_crashes; ck_done } in
  let expected =
    {
      Checkpoint.scenario = [ ("scenario", "register") ];
      tasks =
        [|
          task [ Schedule.Dstep 0; Schedule.Dcrash 1; Schedule.Drecover 1; Schedule.Dhalt ] 1 true;
          task [ Schedule.Dstep 1 ] 0 false;
        |];
      totals = { Checkpoint.ck_nodes = 42; ck_terminals = 7; ck_truncated = 1; ck_dup = 3 };
      metrics =
        [
          ("c", Obs.Metrics.Counter 5);
          ("t", Obs.Metrics.Timer { ns = 123; intervals = 2 });
          ( "h",
            Obs.Metrics.Histogram
              { count = 3; sum = 10; max_value = 8; buckets = [ (1, 1); (15, 2) ] } );
        ];
      result = Some ("violation", "tab\there \"q\" \xc3\xa9");
    }
  in
  let path = Filename.temp_file "nrl_ck_schema" ".ndjson" in
  let load schema rest =
    let oc = open_out path in
    Printf.fprintf oc "{\"schema\":\"%s\",\"type\":\"meta\"}\n%s" schema rest;
    close_out oc;
    Checkpoint.load path
  in
  List.iter
    (fun schema ->
      match load schema body with
      | Ok got -> Alcotest.(check bool) (schema ^ " loads") true (got = expected)
      | Error e -> Alcotest.fail e)
    [ "nrl-checkpoint/1"; "nrl-checkpoint/2"; "nrl-checkpoint/3" ];
  List.iter
    (fun (schema, rest) ->
      match load schema rest with
      | Ok _ -> Alcotest.failf "accepted %s" rest
      | Error _ -> ())
    [
      ("nrl-checkpoint/9", "");
      ("nrl-checkpoint/3", {|{"type":"totals","nodes":01,"terminals":7,"truncated":1,"dup":3}|});
      ("nrl-checkpoint/3", {|{"type":"totals","nodes":4.5,"terminals":7,"truncated":1,"dup":3}|});
    ];
  Sys.remove path

let test_resume_rejects_finalized () =
  let ck =
    {
      Checkpoint.scenario = [];
      tasks = [||];
      totals = { Checkpoint.ck_nodes = 0; ck_terminals = 0; ck_truncated = 0; ck_dup = 0 };
      metrics = [];
      result = Some ("clean", "");
    }
  in
  Alcotest.check_raises "finalized checkpoints cannot be resumed"
    (Invalid_argument "Explore.search: checkpoint is already finalized (it carries a verdict)")
    (fun () ->
      ignore
        (Explore.search ~resume:ck ~check:Workload.Check.nrl_violation (build `Register)))

(* {1 Kill-and-resume determinism} *)

(* the engine-invariant metrics: counters that depend only on the
   explored tree.  Engine metrics (steals, reposition undo traffic,
   dynamic task counts, timers) legitimately vary across jobs and across
   a kill/resume boundary — the invariance contract covers the rest *)
let comparable_views reg =
  List.filter
    (fun (n, v) ->
      Obs.Names.engine_invariant n
      && match (v : Obs.Metrics.view) with Obs.Metrics.Timer _ -> false | _ -> true)
    (Obs.Metrics.to_list reg)

let check_same_views label a b =
  let sa = comparable_views a and sb = comparable_views b in
  List.iter2
    (fun (na, va) (nb, vb) ->
      Alcotest.(check string) (label ^ ": metric name") na nb;
      Alcotest.(check bool) (label ^ ": " ^ na ^ " value identical") true (va = vb))
    sa sb;
  Alcotest.(check int) (label ^ ": metric count") (List.length sa) (List.length sb)

let kill_and_resume ?(cut_jobs = 1) which ~resume_jobs =
  (* uninterrupted baseline *)
  let full_reg = Obs.Metrics.create () in
  let full_outcome, full_stats =
    Explore.search ~cfg:crashy_cfg ~obs:full_reg ~check:Workload.Check.nrl_violation
      (build which)
  in
  Alcotest.(check bool) "baseline clean" true (full_outcome = Explore.Clean);
  (* the same search, cut down by a node budget and checkpointed *)
  let path = Filename.temp_file "nrl_resume" ".ndjson" in
  let spec =
    { Explore.cp_path = path; cp_interval_s = 0.0; cp_scenario = [ ("t", "x") ] }
  in
  let cut_outcome, cut_stats =
    Explore.search ~cfg:crashy_cfg ~jobs:cut_jobs
      ~budget:{ Explore.no_budget with max_nodes = Some 2_000 }
      ~checkpoint:spec ~check:Workload.Check.nrl_violation (build which)
  in
  (match cut_outcome with
  | Explore.Exhausted _ -> ()
  | _ -> Alcotest.fail "the budget should have cut the search");
  let ck =
    match Checkpoint.load path with Ok ck -> ck | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "checkpoint is resumable" true (ck.Checkpoint.result = None);
  (* the file persists only the pending task set; completed work shows
     in the adopted totals *)
  Alcotest.(check bool) "completed work persisted" true
    (ck.Checkpoint.totals.Checkpoint.ck_nodes > 0);
  Alcotest.(check int) "persisted totals match the cut run's fold"
    cut_stats.Explore.nodes ck.Checkpoint.totals.Checkpoint.ck_nodes;
  Alcotest.(check bool) "some tasks pending" true
    (Array.length ck.Checkpoint.tasks > 0);
  (* resume on a freshly rebuilt scenario machine *)
  let res_reg = Obs.Metrics.create () in
  let res_outcome, res_stats =
    Explore.search ~cfg:crashy_cfg ~jobs:resume_jobs ~obs:res_reg ~resume:ck
      ~checkpoint:spec ~check:Workload.Check.nrl_violation (build which)
  in
  Alcotest.(check bool) "resumed verdict" true (res_outcome = Explore.Clean);
  Alcotest.(check int) "nodes" full_stats.Explore.nodes res_stats.Explore.nodes;
  Alcotest.(check int) "terminals" full_stats.Explore.terminals res_stats.Explore.terminals;
  Alcotest.(check int) "truncated" full_stats.Explore.truncated res_stats.Explore.truncated;
  Alcotest.(check int) "dup" full_stats.Explore.dup res_stats.Explore.dup;
  check_same_views "resumed metrics" full_reg res_reg;
  (* the resumed run finalized the checkpoint file *)
  (match Checkpoint.load path with
  | Ok ck' -> Alcotest.(check bool) "finalized" true (ck'.Checkpoint.result = Some ("clean", ""))
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_kill_resume_register () = kill_and_resume `Register ~resume_jobs:1
let test_kill_resume_register_jobs () = kill_and_resume `Register ~resume_jobs:2

let test_kill_resume_register_steal () =
  (* cut a 2-domain run (the checkpoint then captures deque entries and
     in-progress tasks of both workers, possibly mid-steal) and resume
     on 2 domains: still byte-identical to the uninterrupted baseline *)
  kill_and_resume ~cut_jobs:2 `Register ~resume_jobs:2

let test_kill_resume_cas () = kill_and_resume `Cas ~resume_jobs:1

(* {1 Adversarial junk} *)

let all_strategies =
  ("lure", Junk.Lure [| Nvm.Value.Str "LURE" |]) :: Junk.constant_strategies

let test_junk_streams () =
  (* the default stream is the historical scramble, byte for byte *)
  let a = Junk.create 7 and b = Junk.create ~strategy:Junk.Scramble 7 in
  for i = 1 to 100 do
    Alcotest.(check bool)
      (Printf.sprintf "draw %d identical" i)
      true
      (Junk.next a = Junk.next b)
  done;
  (* constant strategies produce their constants *)
  let value_of s = Junk.next (Junk.create ~strategy:s 7) in
  Alcotest.(check bool) "zeros" true (value_of Junk.Zeros = Nvm.Value.Int 0);
  Alcotest.(check bool) "ones" true (value_of Junk.Ones = Nvm.Value.Int (-1));
  Alcotest.(check bool) "maxint" true (value_of Junk.MaxInt = Nvm.Value.Int max_int);
  Alcotest.(check bool) "lure draws from the pool" true
    (value_of (Junk.Lure [| Nvm.Value.Str "LURE" |]) = Nvm.Value.Str "LURE");
  Alcotest.(check bool) "empty lure degenerates" true
    (value_of (Junk.Lure [||]) = Nvm.Value.Int 0);
  (* every strategy advances the same generator state per draw: trails
     and fingerprints cannot tell strategies apart by state *)
  let state_after s =
    let j = Junk.create ~strategy:s 7 in
    for _ = 1 to 50 do
      ignore (Junk.next j)
    done;
    Junk.state j
  in
  let reference = state_after Junk.Scramble in
  List.iter
    (fun (name, s) ->
      Alcotest.(check int) (name ^ " state in lockstep") reference (state_after s))
    all_strategies;
  (* copy preserves the strategy *)
  let j = Junk.create ~strategy:Junk.Zeros 7 in
  Alcotest.(check bool) "copy keeps strategy" true (Junk.strategy (Junk.copy j) = Junk.Zeros)

let test_junk_fingerprints_distinct () =
  (* drive a process into the middle of an operation, crash it, and
     check that each strategy leaves a structurally different machine
     configuration (the scrambled locals are part of the fingerprint) *)
  let post_crash strategy =
    let sim = build ~junk:strategy `Counter in
    (* step until the pending operation holds locals — only then does a
       crash draw junk to scramble them with *)
    let has_locals () =
      List.exists
        (fun f -> Env.bindings f.Sim.f_env <> [])
        (Sim.proc sim 0).Sim.stack
    in
    let steps = ref 0 in
    while not (has_locals ()) && !steps < 32 do
      Sim.step sim 0;
      incr steps
    done;
    Alcotest.(check bool) "reached a state with locals" true (has_locals ());
    Sim.crash sim 0;
    Fingerprint.to_string (Fingerprint.of_sim sim)
  in
  let fps = List.map (fun (name, s) -> (name, post_crash s)) all_strategies in
  List.iteri
    (fun i (ni, fi) ->
      List.iteri
        (fun j (nj, fj) ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "%s vs %s post-crash states differ" ni nj)
              true (fi <> fj))
        fps)
    fps

let test_junk_verdicts_strategy_independent () =
  (* Algorithms 1-4 (recoverable register / counter / T&S / CAS) are
     NRL for every shape of post-crash junk; the naive T&S is broken for
     every shape — the verdict must never depend on the junk.  [dedup]
     keeps the T&S instance tractable (a clean deduped sweep is still a
     certificate: one representative prefix per configuration). *)
  List.iter
    (fun (sname, which, expect_clean) ->
      List.iter
        (fun (jname, strategy) ->
          let viol, _ =
            Explore.find_violation ~cfg:crashy_cfg ~dedup:true
              ~check:Workload.Check.nrl_violation (build ~junk:strategy which)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s junk" sname jname)
            expect_clean (viol = None))
        all_strategies)
    [
      ("register", `Register, true);
      ("counter", `Counter, true);
      ("tas", `Tas, true);
      ("cas", `Cas, true);
      ("naive-tas", `NaiveTas, false);
    ]

(* {1 Recovery watchdog} *)

let test_crash_fuse () =
  let cp = Runtime.Crash.create () in
  Runtime.Crash.set_fuse cp 3;
  Runtime.Crash.point cp;
  Runtime.Crash.point cp;
  Runtime.Crash.point cp;
  Alcotest.check_raises "fuse blows deterministically" Runtime.Crash.Livelock (fun () ->
      Runtime.Crash.point cp);
  (* an armed point still crashes first *)
  let cp2 = Runtime.Crash.create () in
  Runtime.Crash.set_fuse cp2 100;
  Runtime.Crash.arm cp2 1;
  Runtime.Crash.point cp2;
  Alcotest.check_raises "armed crash fires" Runtime.Crash.Crashed (fun () ->
      Runtime.Crash.point cp2)

let test_watchdog_retries_exhausted () =
  (* a recovery that always crashes again: with a budget of 10 retries the
     harness makes 1 + 10 crashing attempts and then gives up *)
  let reg = Obs.Metrics.create () in
  let stats = Runtime.Torture.stats_zero () in
  let rng = Runtime.Torture.rng_create 42 in
  let watchdog =
    { Runtime.Torture.default_watchdog with wd_max_retries = 10 }
  in
  let always_crash ~cp =
    for _ = 1 to 16 do
      Runtime.Crash.point cp (* traverses past any armed index in 0..11 *)
    done
  in
  (match
     Runtime.Torture.with_crashes ~rng ~crash_prob:1.0 ~stats ~obs:reg ~watchdog
       ~op:always_crash
       ~recover:always_crash
       ()
   with
  | () -> Alcotest.fail "expected Recovery_stuck"
  | exception Runtime.Torture.Recovery_stuck { stuck_kind = `Retries_exhausted; stuck_attempts; _ }
    ->
    Alcotest.(check int) "attempts" 10 stuck_attempts
  | exception e -> Alcotest.fail (Printexc.to_string e));
  Alcotest.(check int) "crashes" 11 stats.Runtime.Torture.crashes;
  Alcotest.(check int) "retries" 10 stats.Runtime.Torture.retries;
  Alcotest.(check int) "aborted" 1 stats.Runtime.Torture.aborted_recoveries;
  Alcotest.(check int) "livelocks" 0 stats.Runtime.Torture.livelocks;
  let cval name =
    match Obs.Metrics.view reg name with Some (Obs.Metrics.Counter v) -> v | _ -> 0
  in
  Alcotest.(check int) "crashes mirrored" stats.Runtime.Torture.crashes
    (cval Obs.Names.torture_crashes);
  Alcotest.(check int) "retries mirrored" stats.Runtime.Torture.retries
    (cval Obs.Names.torture_retries);
  Alcotest.(check int) "aborts mirrored" stats.Runtime.Torture.aborted_recoveries
    (cval Obs.Names.torture_aborted_recoveries)

let test_watchdog_livelock_fuse () =
  (* a recovery that spins on crash points forever trips the traversal
     fuse instead of hanging (crash_prob 0 means the point is unarmed:
     only the fuse can fire) *)
  let stats = Runtime.Torture.stats_zero () in
  let rng = Runtime.Torture.rng_create 1 in
  let watchdog = { Runtime.Torture.default_watchdog with wd_max_traversed = 50 } in
  (match
     Runtime.Torture.with_crashes ~rng ~crash_prob:0.0 ~stats ~watchdog
       ~op:(fun ~cp ->
         while true do
           Runtime.Crash.point cp
         done)
       ~recover:(fun ~cp:_ -> ())
       ()
   with
  | () -> Alcotest.fail "expected Recovery_stuck"
  | exception Runtime.Torture.Recovery_stuck { stuck_kind = `Livelock; stuck_traversed; _ } ->
    Alcotest.(check bool) "fuse bounded the spin" true (stuck_traversed > 50)
  | exception e -> Alcotest.fail (Printexc.to_string e));
  Alcotest.(check int) "livelocks" 1 stats.Runtime.Torture.livelocks;
  Alcotest.(check int) "no crash charged" 0 stats.Runtime.Torture.crashes;
  Alcotest.(check int) "invariant holds" stats.Runtime.Torture.crashes
    (stats.Runtime.Torture.retries + stats.Runtime.Torture.aborted_recoveries)

let test_watchdog_invariant_under_torture () =
  (* the pinned relation holds across a real randomized workload *)
  let stats = Runtime.Torture.stats_zero () in
  let rng = Runtime.Torture.rng_create 7 in
  let c = Runtime.Rcounter.create ~nprocs:1 in
  for _ = 1 to 2_000 do
    ignore (Runtime.Torture.rcounter_inc ~rng ~crash_prob:0.4 ~stats c ~pid:0)
  done;
  Alcotest.(check bool) "crash injection exercised" true (stats.Runtime.Torture.crashes > 0);
  Alcotest.(check int) "crashes = retries + aborted_recoveries"
    stats.Runtime.Torture.crashes
    (stats.Runtime.Torture.retries + stats.Runtime.Torture.aborted_recoveries)

let test_heartbeat_stall_detection () =
  let hb = Runtime.Torture.heartbeat ~domains:3 in
  Runtime.Torture.beat hb 0;
  Runtime.Torture.beat hb 2;
  let prev = Runtime.Torture.beats hb in
  Runtime.Torture.beat hb 0;
  Alcotest.(check (list int)) "stalled domains" [ 1; 2 ] (Runtime.Torture.stalled ~prev hb)

(* {2 Watchdog backoff strategies} *)

let backoff_seq strat n =
  List.init n (fun i -> Runtime.Torture.backoff_spins strat ~attempt:(i + 1))

let test_backoff_pinned_sequence () =
  (* the exact spin sequence for a fixed seed: any change to the mixing
     or the ceiling schedule shows up here *)
  let s42 = Runtime.Torture.Exp_jitter { base = 4; cap = 4_096; seed = 42 } in
  Alcotest.(check (list int))
    "seed 42 spin sequence"
    [ 3; 5; 13; 30; 32; 99; 136; 504; 1006; 1558; 3588; 3555 ]
    (backoff_seq s42 12);
  (* replaying the same strategy value yields the same sequence *)
  Alcotest.(check (list int)) "seed 42 replays" (backoff_seq s42 12) (backoff_seq s42 12);
  (* a different seed decorrelates but keeps the same envelope *)
  let s7 = Runtime.Torture.Exp_jitter { base = 4; cap = 4_096; seed = 7 } in
  Alcotest.(check (list int))
    "seed 7 spin sequence"
    [ 3; 6; 15; 20; 40; 70; 182; 471; 885; 1754; 3130; 3318 ]
    (backoff_seq s7 12)

let test_backoff_envelope () =
  (* jittered spins stay within [ceiling/2, ceiling); the ceiling grows
     exponentially from [base] and saturates at [cap] *)
  let base = 8 and cap = 2_048 in
  let strat = Runtime.Torture.Exp_jitter { base; cap; seed = 99 } in
  for attempt = 1 to 24 do
    let ceiling = min cap (base * (1 lsl min (attempt - 1) 40)) in
    let n = Runtime.Torture.backoff_spins strat ~attempt in
    if not (n >= ceiling / 2 && n < ceiling) then
      Alcotest.failf "attempt %d: %d outside [%d, %d)" attempt n (ceiling / 2) ceiling
  done;
  (* degenerate strategies *)
  Alcotest.(check int) "No_backoff" 0
    (Runtime.Torture.backoff_spins Runtime.Torture.No_backoff ~attempt:5);
  Alcotest.(check int) "Fixed n" 7
    (Runtime.Torture.backoff_spins (Runtime.Torture.Fixed 7) ~attempt:5);
  Alcotest.(check int) "Fixed clamps negatives" 0
    (Runtime.Torture.backoff_spins (Runtime.Torture.Fixed (-3)) ~attempt:5);
  (* run_backoff actually spins and returns *)
  Runtime.Torture.run_backoff strat ~attempt:3

let suite =
  [
    Alcotest.test_case "max-nodes budget yields a partial verdict" `Quick test_budget_max_nodes;
    Alcotest.test_case "deadline budget yields a partial verdict" `Quick test_budget_deadline;
    Alcotest.test_case "should_stop interrupts cooperatively" `Quick test_should_stop;
    Alcotest.test_case "find_violation reports budget cuts" `Quick test_find_violation_budget;
    Alcotest.test_case "visited cap degrades, never aborts" `Quick
      test_visited_cap_degrades_not_aborts;
    Alcotest.test_case "checkpoint round-trips" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint schemas 1-3 load" `Quick test_checkpoint_schemas_load;
    Alcotest.test_case "finalized checkpoints are not resumable" `Quick
      test_resume_rejects_finalized;
    Alcotest.test_case "kill-and-resume is deterministic (register)" `Quick
      test_kill_resume_register;
    Alcotest.test_case "kill-and-resume across jobs (register)" `Slow
      test_kill_resume_register_jobs;
    Alcotest.test_case "kill-and-resume cut mid-steal at jobs 2 (register)" `Slow
      test_kill_resume_register_steal;
    Alcotest.test_case "kill-and-resume is deterministic (cas)" `Slow test_kill_resume_cas;
    Alcotest.test_case "junk streams and state lockstep" `Quick test_junk_streams;
    Alcotest.test_case "junk strategies scramble distinctly" `Quick
      test_junk_fingerprints_distinct;
    Alcotest.test_case "NRL verdicts are junk-independent" `Slow
      test_junk_verdicts_strategy_independent;
    Alcotest.test_case "crash fuse" `Quick test_crash_fuse;
    Alcotest.test_case "watchdog aborts exhausted recoveries" `Quick
      test_watchdog_retries_exhausted;
    Alcotest.test_case "watchdog trips the livelock fuse" `Quick test_watchdog_livelock_fuse;
    Alcotest.test_case "crashes = retries + aborted under torture" `Quick
      test_watchdog_invariant_under_torture;
    Alcotest.test_case "heartbeat stall detection" `Quick test_heartbeat_stall_detection;
    Alcotest.test_case "backoff sequence pinned for fixed seeds" `Quick
      test_backoff_pinned_sequence;
    Alcotest.test_case "backoff stays in the jitter envelope" `Quick test_backoff_envelope;
  ]
