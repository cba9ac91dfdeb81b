(* Recovery watchdog demonstration: a deliberately livelocking recovery
   stub — the non-terminating recovery Theorem 4 warns about — is run
   under the torture harness's watchdog.  Instead of hanging forever the
   harness trips its traversal fuse (and, in a second round, its retry
   budget) and reports a structured Recovery_stuck diagnostic.

   The CI watchdog smoke runs this under `timeout`: the program must
   detect both failure modes and exit 0 well before the timeout fires.

     dune exec examples/livelock_watchdog.exe                            *)

let () =
  Printf.printf "recovery watchdog: livelocking stubs must fail fast, not hang\n\n%!";

  (* round 1: a recovery that spins on crash points without progressing.
     The fuse bounds how many points one attempt may traverse. *)
  let stats = Runtime.Torture.stats_zero () in
  let rng = Runtime.Torture.rng_create 42 in
  let watchdog =
    { Runtime.Torture.default_watchdog with wd_max_traversed = 10_000 }
  in
  let t0 = Unix.gettimeofday () in
  (match
     Runtime.Torture.with_crashes ~rng ~crash_prob:0.0 ~stats ~watchdog
       ~op:(fun ~cp ->
         while true do
           Runtime.Crash.point cp (* spins forever: never observes progress *)
         done)
       ~recover:(fun ~cp:_ -> ())
       ()
   with
  | () ->
    prerr_endline "FAIL: the livelocking operation terminated?!";
    exit 1
  | exception (Runtime.Torture.Recovery_stuck _ as e) ->
    Format.printf "  livelock detected in %.3fs: %a@." (Unix.gettimeofday () -. t0)
      Runtime.Torture.pp_stuck e);

  (* round 2: a recovery that crashes on every attempt.  The retry budget
     bounds how often it is re-invoked; deterministic backoff between
     attempts keeps the retries from hammering the shared lines. *)
  let stats2 = Runtime.Torture.stats_zero () in
  let watchdog2 =
    {
      Runtime.Torture.wd_max_retries = 25;
      wd_max_traversed = 10_000;
      wd_backoff = Runtime.Torture.Exp_jitter { base = 4; cap = 4_096; seed = 42 };
    }
  in
  let always_crash ~cp =
    for _ = 1 to 16 do
      Runtime.Crash.point cp
    done
  in
  let t1 = Unix.gettimeofday () in
  (match
     Runtime.Torture.with_crashes ~rng ~crash_prob:1.0 ~stats:stats2 ~watchdog:watchdog2
       ~op:always_crash
       ~recover:always_crash
       ()
   with
  | () ->
    prerr_endline "FAIL: the always-crashing operation terminated?!";
    exit 1
  | exception (Runtime.Torture.Recovery_stuck _ as e) ->
    Format.printf "  retry budget enforced in %.3fs: %a@." (Unix.gettimeofday () -. t1)
      Runtime.Torture.pp_stuck e);

  (* the pinned harness relation survives both interventions *)
  let total_crashes = stats.Runtime.Torture.crashes + stats2.Runtime.Torture.crashes in
  let total_retries = stats.Runtime.Torture.retries + stats2.Runtime.Torture.retries in
  let total_aborted =
    stats.Runtime.Torture.aborted_recoveries + stats2.Runtime.Torture.aborted_recoveries
  in
  Printf.printf
    "\n  crashes=%d retries=%d aborted_recoveries=%d livelocks=%d\n" total_crashes
    total_retries total_aborted
    (stats.Runtime.Torture.livelocks + stats2.Runtime.Torture.livelocks);
  if total_crashes <> total_retries + total_aborted then begin
    prerr_endline "FAIL: crashes <> retries + aborted_recoveries";
    exit 1
  end;
  print_endline "\nwatchdog OK: both failure modes detected, nothing hung"
