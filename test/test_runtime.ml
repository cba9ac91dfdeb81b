(* Tests for the real-multicore (Domains + Atomic) implementations:
   single-process recovery drills at every crash position, and genuinely
   parallel executions checking the algorithms' postconditions. *)

open Runtime

(* {2 Recoverable register drills} *)

(* register values are distinct ints: writer [p]'s [i]-th value is the
   pair (p, i) packed into one int *)
let tag p i = Enc.pack ~id:p i
let untag v = (Enc.id v, Enc.value v)

(* run WRITE with a crash at position k, recover, and check the final value
   and that recovery is idempotent under a second crash *)
let test_rrw_recovery_all_positions () =
  (* WRITE traverses 4 crash points (before each of lines 2-5) *)
  for k = 0 to 3 do
    let r = Rrw.create ~nprocs:2 (tag 0 0) in
    let cp = Crash.create () in
    Crash.arm cp k;
    (try
       Rrw.write ~cp r ~pid:0 (tag 0 1);
       Alcotest.failf "crash point %d did not fire" k
     with Crash.Crashed -> ());
    Crash.disarm cp;
    Rrw.write_recover r ~pid:0 (tag 0 1);
    Alcotest.(check (pair int int))
      (Printf.sprintf "value after crash at %d" k)
      (0, 1) (untag (Rrw.read r))
  done

let test_rrw_recovery_crash_inside_recovery () =
  let r = Rrw.create ~nprocs:2 (tag 0 0) in
  let cp = Crash.create () in
  Crash.arm cp 2;
  (try Rrw.write ~cp r ~pid:0 (tag 0 5) with Crash.Crashed -> ());
  (* crash again inside the recovery function *)
  Crash.arm cp 1;
  (try Rrw.write_recover ~cp r ~pid:0 (tag 0 5) with Crash.Crashed -> ());
  Crash.disarm cp;
  Rrw.write_recover r ~pid:0 (tag 0 5);
  Alcotest.(check (pair int int)) "value after nested crash" (0, 5) (untag (Rrw.read r))

(* recovery must not clobber a later write by another process *)
let test_rrw_no_reexecution_after_overwrite () =
  let r = Rrw.create ~nprocs:2 (tag 0 0) in
  let cp = Crash.create () in
  (* crash right after the write of line 4 (crash point 3 = before S_p
     update of line 5) *)
  Crash.arm cp 3;
  (try Rrw.write ~cp r ~pid:0 (tag 0 1) with Crash.Crashed -> ());
  Crash.disarm cp;
  (* another process overwrites *)
  Rrw.write r ~pid:1 (tag 1 9);
  Rrw.write_recover r ~pid:0 (tag 0 1);
  Alcotest.(check (pair int int)) "later write preserved" (1, 9) (untag (Rrw.read r))

(* {2 Recoverable CAS drills} *)

let test_rcas_recovery_after_success () =
  let c = Rcas.create ~nprocs:2 0 in
  let cp = Crash.create () in
  (* crash after the successful primitive cas: points are read(0),
     [help(1)], cas — with id = null there is no help write, so cas is
     point 1 and the crash must come after it: arm past the end *)
  Crash.arm cp 5;
  let ok = Rcas.cas ~cp c ~pid:0 ~old:0 ~new_:1 in
  Alcotest.(check bool) "cas succeeded" true ok;
  Crash.disarm cp;
  (* pretend the response was lost; recovery must still report success *)
  Alcotest.(check bool) "recovery reports success" true
    (Rcas.cas_recover c ~pid:0 ~old:0 ~new_:1)

let test_rcas_recovery_after_overwrite_with_helping () =
  let c = Rcas.create ~nprocs:2 0 in
  Alcotest.(check bool) "p0 cas" true (Rcas.cas c ~pid:0 ~old:0 ~new_:1);
  (* p1's cas must first help p0 by writing into the matrix *)
  Alcotest.(check bool) "p1 cas" true (Rcas.cas c ~pid:1 ~old:1 ~new_:2);
  (* now C no longer holds p0's pair, but the helping entry does *)
  Alcotest.(check bool) "p0 recovery still reports success" true
    (Rcas.cas_recover c ~pid:0 ~old:0 ~new_:1)

let test_rcas_recovery_before_effect_reexecutes () =
  let c = Rcas.create ~nprocs:2 0 in
  let cp = Crash.create () in
  Crash.arm cp 0 (* crash at the read of line 2 *);
  (try ignore (Rcas.cas ~cp c ~pid:0 ~old:0 ~new_:1) with Crash.Crashed -> ());
  Crash.disarm cp;
  Alcotest.(check bool) "re-execution succeeds" true (Rcas.cas_recover c ~pid:0 ~old:0 ~new_:1);
  Alcotest.(check int) "value installed" 1 (Rcas.read c)

let test_rcas_failed_cas_reports_false () =
  let c = Rcas.create ~nprocs:2 0 in
  Alcotest.(check bool) "p1 installs 5" true (Rcas.cas c ~pid:1 ~old:0 ~new_:5);
  Alcotest.(check bool) "p0 cas from stale old fails" false (Rcas.cas c ~pid:0 ~old:0 ~new_:1);
  Alcotest.(check bool) "p0 recovery also reports failure... by re-executing" false
    (Rcas.cas_recover c ~pid:0 ~old:0 ~new_:1)

(* {2 Recoverable TAS drills} *)

let test_rtas_solo () =
  let t = Rtas.create ~nprocs:2 in
  Alcotest.(check int) "solo wins" 0 (Rtas.test_and_set t ~pid:0);
  Alcotest.(check int) "second process loses" 1 (Rtas.test_and_set t ~pid:1)

let test_rtas_crash_positions_solo () =
  (* crash a solo T&S at each position; recovery must return 0 (the lone
     process must win) *)
  for k = 0 to 8 do
    let t = Rtas.create ~nprocs:1 in
    let cp = Crash.create () in
    Crash.arm cp k;
    match Rtas.test_and_set ~cp t ~pid:0 with
    | ret -> Alcotest.(check int) (Printf.sprintf "uncrashed at %d" k) 0 ret
    | exception Crash.Crashed ->
      Crash.disarm cp;
      Alcotest.(check int) (Printf.sprintf "recovery after crash at %d" k) 0
        (Rtas.recover t ~pid:0)
  done

let test_rtas_strict_response_persisted () =
  let t = Rtas.create ~nprocs:2 in
  let r0 = Rtas.test_and_set t ~pid:0 in
  Alcotest.(check int) "Res_p persisted" r0 (Rtas.response t ~pid:0)

(* {2 Parallel executions on real domains} *)

let test_parallel_tas_unique_winner () =
  let domains = min 4 (Par.max_domains ()) in
  let t = Rtas.create ~nprocs:domains in
  let wins = Atomic.make 0 in
  let r =
    Par.run ~domains ~iters:1 (fun ~pid ~i ->
        ignore i;
        if Rtas.test_and_set t ~pid = 0 then Atomic.incr wins)
  in
  ignore r;
  Alcotest.(check int) "exactly one winner across domains" 1 (Atomic.get wins)

let test_parallel_recoverable_register_last_write_wins () =
  let domains = min 4 (Par.max_domains ()) in
  let iters = 1_000 in
  let r = Rrw.create ~nprocs:domains (tag (-1) (-1)) in
  let _ =
    Par.run ~domains ~iters (fun ~pid ~i -> Rrw.write r ~pid (tag pid i))
  in
  let p, i = untag (Rrw.read r) in
  Alcotest.(check bool) "final value is some process's last write" true
    (p >= 0 && p < domains && i = iters - 1)

let test_parallel_rcas_successful_cas_count () =
  (* each domain CASes from the value it just read to a distinct tagged
     value; successful CASes form a chain, so the number of successes
     equals the chain length, which we count via a side counter *)
  let domains = min 4 (Par.max_domains ()) in
  let c = Rcas.create ~nprocs:domains 0 in
  let wins = Atomic.make 0 in
  let _ =
    Par.run ~domains ~iters:500 (fun ~pid ~i ->
        let old = Rcas.read c in
        let new_ = 1 + (pid * 1_000_000) + i in
        if old <> new_ && Rcas.cas c ~pid ~old ~new_ then Atomic.incr wins)
  in
  let final = Rcas.read c in
  Alcotest.(check bool) "some CAS succeeded and final value is a tagged write" true
    (Atomic.get wins > 0 && final > 0)

(* {2 Parallel crash torture: operations abort at random shared-access
   boundaries on real domains and recover via the wrapper that plays the
   paper's "system"} *)

let test_parallel_counter_crash_torture () =
  let domains = min 4 (Par.max_domains ()) in
  let iters = 2_000 in
  let c = Rcounter.create ~nprocs:domains in
  let stats = Array.init domains (fun _ -> Torture.stats_zero ()) in
  let _ =
    Par.run ~domains ~iters (fun ~pid ~i ->
        ignore i;
        let rng = Torture.rng_create ((pid * 7919) + i + 1) in
        Torture.rcounter_inc ~rng ~crash_prob:0.2 ~stats:stats.(pid) c ~pid)
  in
  let total_crashes = Array.fold_left (fun a s -> a + s.Torture.crashes) 0 stats in
  Alcotest.(check int) "conservation under parallel crashes" (domains * iters)
    (Rcounter.read c ~pid:0);
  Alcotest.(check bool) "crashes actually injected" true (total_crashes > 100)

let test_parallel_tas_crash_torture () =
  (* repeat whole elections; each must produce exactly one winner despite
     crashes in both the operation and its recovery *)
  for round = 1 to 25 do
    let domains = min 4 (Par.max_domains ()) in
    let t = Rtas.create ~nprocs:domains in
    let wins = Atomic.make 0 in
    let stats = Array.init domains (fun _ -> Torture.stats_zero ()) in
    let _ =
      Par.run ~domains ~iters:1 (fun ~pid ~i ->
          ignore i;
          let rng = Torture.rng_create ((round * 131) + pid + 1) in
          if Torture.rtas ~rng ~crash_prob:0.5 ~stats:stats.(pid) t ~pid = 0 then
            Atomic.incr wins)
    in
    Alcotest.(check int)
      (Printf.sprintf "round %d: exactly one winner" round)
      1 (Atomic.get wins)
  done

let test_parallel_rrw_crash_torture () =
  let domains = min 4 (Par.max_domains ()) in
  let iters = 2_000 in
  let r = Rrw.create ~nprocs:domains (tag (-1) (-1)) in
  let stats = Array.init domains (fun _ -> Torture.stats_zero ()) in
  let _ =
    Par.run ~domains ~iters (fun ~pid ~i ->
        let rng = Torture.rng_create ((pid * 31) + i + 1) in
        Torture.rrw_write ~rng ~crash_prob:0.2 ~stats:stats.(pid) r ~pid (tag pid i))
  in
  let p, i = untag (Rrw.read r) in
  Alcotest.(check bool) "final value is a real write" true
    (p >= 0 && p < domains && i >= 0 && i < iters)

let suite =
  [
    Alcotest.test_case "rrw: recovery at all crash positions" `Quick test_rrw_recovery_all_positions;
    Alcotest.test_case "rrw: crash inside recovery" `Quick test_rrw_recovery_crash_inside_recovery;
    Alcotest.test_case "rrw: no re-execution after overwrite" `Quick test_rrw_no_reexecution_after_overwrite;
    Alcotest.test_case "rcas: recovery after success" `Quick test_rcas_recovery_after_success;
    Alcotest.test_case "rcas: helping matrix" `Quick test_rcas_recovery_after_overwrite_with_helping;
    Alcotest.test_case "rcas: re-execution before effect" `Quick test_rcas_recovery_before_effect_reexecutes;
    Alcotest.test_case "rcas: failed cas" `Quick test_rcas_failed_cas_reports_false;
    Alcotest.test_case "rtas: solo" `Quick test_rtas_solo;
    Alcotest.test_case "rtas: crash positions solo" `Quick test_rtas_crash_positions_solo;
    Alcotest.test_case "rtas: strict response" `Quick test_rtas_strict_response_persisted;
    Alcotest.test_case "parallel tas: unique winner" `Slow test_parallel_tas_unique_winner;
    Alcotest.test_case "parallel register: last write wins" `Slow test_parallel_recoverable_register_last_write_wins;
    Alcotest.test_case "parallel cas: successful chain" `Slow test_parallel_rcas_successful_cas_count;
    Alcotest.test_case "parallel counter: crash torture" `Slow test_parallel_counter_crash_torture;
    Alcotest.test_case "parallel tas: crash torture" `Slow test_parallel_tas_crash_torture;
    Alcotest.test_case "parallel rrw: crash torture" `Slow test_parallel_rrw_crash_torture;
  ]
