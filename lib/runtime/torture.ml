(** Real-multicore crash torture.

    Wraps each recoverable operation the way the paper's {e system} does:
    the wrapper (not the operation) holds the operation's arguments —
    they are "system metadata" that survives the crash — and, when an
    armed crash point fires, invokes the operation's recovery with them.
    How far the operation got (the model's [LI_p]) is the operation's
    own persisted progress, read by its recovery, so the wrapper needs
    nothing else.  Crashes can hit the recovery functions too
    (repeated failures); recovery is retried under a {e watchdog}:
    bounded retries with deterministic backoff, plus a traversal fuse
    that converts a non-terminating recovery — exactly the failure mode
    Theorem 4 warns about — into a reported {!Recovery_stuck} failure
    instead of a hung test suite.

    This gives genuinely parallel executions (OCaml domains) in which
    operations abort at random shared-access boundaries and recover,
    letting the tests check algorithm postconditions (conservation,
    unique winner) under real interleavings — complementing the
    simulator, which checks full NRL on serialised interleavings. *)

(* deterministic per-domain PRNG; Random's global state would serialise
   domains *)
type rng = { mutable s : int }

let rng_create seed = { s = (if seed = 0 then 0x9e3779b9 else seed land max_int) }

let rng_bits r =
  let s = r.s in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  r.s <- s land max_int;
  r.s

let rng_int r n = if n <= 0 then 0 else rng_bits r mod n

(** Harness counters.  Pinned relation (the regression tests check it):
    [crashes = retries + aborted_recoveries] — every fired crash point
    leads to exactly one more recovery attempt, except the one that
    exhausts the retry budget.  Livelocked attempts add to [livelocks]
    without adding a crash. *)
type stats = {
  mutable crashes : int;
  mutable ops : int;
  mutable retries : int;
  mutable livelocks : int;
  mutable aborted_recoveries : int;
}

let stats_zero () =
  { crashes = 0; ops = 0; retries = 0; livelocks = 0; aborted_recoveries = 0 }

(** Backoff strategy run between recovery retries.  A first-class value
    (not a closure) so seeded runs replay, configurations print, and the
    service layer can reuse the exact policy the torture harness pins:

    - [No_backoff]: retry immediately (the historical default);
    - [Fixed n]: [n] [Domain.cpu_relax] spins per retry;
    - [Exp_jitter]: exponential ceiling [base * 2^(attempt-1)] capped at
      [cap], with the actual spin count drawn {e deterministically} from
      the upper half [\[ceiling/2, ceiling)] by hashing [(seed, attempt)]
      — jitter decorrelates retry storms across shards/domains while a
      fixed seed still replays the same spin sequence. *)
type backoff =
  | No_backoff
  | Fixed of int
  | Exp_jitter of { base : int; cap : int; seed : int }

(* splitmix-style finalizer, kept within OCaml's 63-bit ints; the
   multiplications overflow and wrap, which is fine for mixing *)
let mix x =
  let x = x land max_int in
  let x = (x lxor (x lsr 30)) * 0x4be98134a5976fd land max_int in
  let x = (x lxor (x lsr 27)) * 0x3bd3b62d3dae52b land max_int in
  x lxor (x lsr 31)

(** The spin count [strategy] prescribes for retry [attempt] (1-based).
    Pure and deterministic: the jitter draw depends only on the
    strategy's seed and the attempt number. *)
let backoff_spins strategy ~attempt =
  match strategy with
  | No_backoff -> 0
  | Fixed n -> max 0 n
  | Exp_jitter { base; cap; seed } ->
    let base = max 1 base in
    let ceiling = min (max 1 cap) (base * (1 lsl min (attempt - 1) 40)) in
    if ceiling <= 1 then ceiling
    else
      let lo = ceiling / 2 in
      lo + (mix ((seed * 0x9e3779b97f4a7c) + attempt) mod (ceiling - lo))

let run_backoff strategy ~attempt =
  for _ = 1 to backoff_spins strategy ~attempt do
    Domain.cpu_relax ()
  done

(** The recovery watchdog.  [wd_max_retries] bounds how often a crashed
    operation's recovery is re-invoked; [wd_max_traversed] is the
    per-attempt crash-point fuse ({!Crash.set_fuse}) that detects an
    attempt spinning without progress; [wd_backoff] is the {!backoff}
    strategy run between retries — deterministic, so seeded runs
    replay. *)
type watchdog = {
  wd_max_retries : int;
  wd_max_traversed : int;
  wd_backoff : backoff;
}

let default_watchdog =
  { wd_max_retries = 1_000; wd_max_traversed = 100_000; wd_backoff = No_backoff }

(** A recovery the watchdog gave up on.  [stuck_attempts] counts the
    recovery attempts made; [stuck_traversed] how far the last attempt
    got (crash points). *)
exception
  Recovery_stuck of {
    stuck_kind : [ `Livelock | `Retries_exhausted ];
    stuck_attempts : int;
    stuck_traversed : int;
  }

let pp_stuck ppf = function
  | Recovery_stuck { stuck_kind; stuck_attempts; stuck_traversed } ->
    Format.fprintf ppf "recovery %s after %d attempt(s), %d crash point(s) traversed"
      (match stuck_kind with
      | `Livelock -> "livelocked (traversal fuse blown)"
      | `Retries_exhausted -> "abandoned (retry budget exhausted)")
      stuck_attempts stuck_traversed
  | e -> raise (Invalid_argument ("Torture.pp_stuck: " ^ Printexc.to_string e))

(** Per-domain heartbeats: each worker bumps its slot as it makes
    progress (the harness beats once per wrapped operation and once per
    recovery attempt); a monitor snapshots the array and calls a domain
    stalled when its beat count did not advance between snapshots. *)
type heartbeat = int Atomic.t array

let heartbeat ~domains = Array.init (max 1 domains) (fun _ -> Atomic.make 0)
let beat hb pid = if pid >= 0 && pid < Array.length hb then Atomic.incr hb.(pid)
let beats hb = Array.map Atomic.get hb

let stalled ~prev hb =
  let n = min (Array.length prev) (Array.length hb) in
  List.filter (fun i -> Atomic.get hb.(i) <= prev.(i)) (List.init n Fun.id)

(* Metric handles resolved once per harness loop, not once per op.
   Counters are plain mutable ints: in a multi-domain torture run each
   domain must be given its own registry (merged afterwards with
   {!Obs.Metrics.merge}), exactly like the parallel explorer's
   per-worker registries. *)
type meters = {
  tm_ops : Obs.Metrics.counter;
  tm_crashes : Obs.Metrics.counter;
  tm_retries : Obs.Metrics.counter;
  tm_livelocks : Obs.Metrics.counter;
  tm_aborted : Obs.Metrics.counter;
}

let meters_of reg =
  {
    tm_ops = Obs.Metrics.counter reg Obs.Names.torture_ops;
    tm_crashes = Obs.Metrics.counter reg Obs.Names.torture_crashes;
    tm_retries = Obs.Metrics.counter reg Obs.Names.torture_retries;
    tm_livelocks = Obs.Metrics.counter reg Obs.Names.torture_livelocks;
    tm_aborted = Obs.Metrics.counter reg Obs.Names.torture_aborted_recoveries;
  }

(** Run [op] with a crash armed at a random position with probability
    [crash_prob]; on a crash, call [recover] (which may itself
    crash again at a random position) until the operation completes or
    the [watchdog] gives up ({!Recovery_stuck}).  Returns the operation's
    (or final recovery's) result.

    [hb] is an optional [(heartbeat, slot)] pair beaten once per wrapped
    operation and once per recovery attempt.

    [obs] mirrors the harness activity into a metric registry:
    [torture.ops] per wrapped operation, [torture.crashes] per injected
    crash (initial or during recovery), [torture.retries] per recovery
    attempt, [torture.livelocks] / [torture.aborted_recoveries] per
    watchdog intervention — always in lockstep with [stats]. *)
let with_crashes ~rng ~crash_prob ~stats ?obs ?(watchdog = default_watchdog) ?hb ~op
    ~recover () =
  let om = Option.map meters_of obs in
  let bump sel =
    match om with Some m -> Obs.Metrics.Counter.incr (sel m) | None -> ()
  in
  let pulse () = match hb with Some (h, slot) -> beat h slot | None -> () in
  let cp = Crash.create () in
  Crash.set_fuse cp watchdog.wd_max_traversed;
  let arm () =
    if rng_int rng 1000 < int_of_float (crash_prob *. 1000.) then
      Crash.arm cp (rng_int rng 12)
    else Crash.disarm cp
  in
  let livelocked ~attempts () =
    stats.livelocks <- stats.livelocks + 1;
    bump (fun m -> m.tm_livelocks);
    raise
      (Recovery_stuck
         {
           stuck_kind = `Livelock;
           stuck_attempts = attempts;
           stuck_traversed = Crash.traversed cp;
         })
  in
  arm ();
  pulse ();
  stats.ops <- stats.ops + 1;
  bump (fun m -> m.tm_ops);
  match op ~cp with
  | v ->
    Crash.disarm cp;
    v
  | exception Crash.Livelock -> livelocked ~attempts:0 ()
  | exception Crash.Crashed ->
    stats.crashes <- stats.crashes + 1;
    bump (fun m -> m.tm_crashes);
    let rec retry attempt =
      if attempt > watchdog.wd_max_retries then begin
        stats.aborted_recoveries <- stats.aborted_recoveries + 1;
        bump (fun m -> m.tm_aborted);
        raise
          (Recovery_stuck
             {
               stuck_kind = `Retries_exhausted;
               stuck_attempts = attempt - 1;
               stuck_traversed = Crash.traversed cp;
             })
      end;
      run_backoff watchdog.wd_backoff ~attempt;
      arm ();
      pulse ();
      stats.retries <- stats.retries + 1;
      bump (fun m -> m.tm_retries);
      match recover ~cp with
      | v ->
        Crash.disarm cp;
        v
      | exception Crash.Livelock -> livelocked ~attempts:attempt ()
      | exception Crash.Crashed ->
        stats.crashes <- stats.crashes + 1;
        bump (fun m -> m.tm_crashes);
        retry (attempt + 1)
    in
    retry 1

(** A recoverable-register WRITE under random crashes.  The wrapper holds
    the argument (system metadata); any crash position is recovered by
    [Rrw.write_recover], which decides re-execution itself. *)
let rrw_write ~rng ~crash_prob ~stats ?obs ?watchdog ?hb reg ~pid v =
  with_crashes ~rng ~crash_prob ~stats ?obs ?watchdog ?hb
    ~op:(fun ~cp -> Rrw.write ~cp reg ~pid v)
    ~recover:(fun ~cp -> Rrw.write_recover ~cp reg ~pid v)
    ()

(** A recoverable-counter INC under random crashes; INC's recovery
    finds its nested WRITE's progress in its own [LI_p]. *)
let rcounter_inc ~rng ~crash_prob ~stats ?obs ?watchdog ?hb c ~pid =
  with_crashes ~rng ~crash_prob ~stats ?obs ?watchdog ?hb
    ~op:(fun ~cp -> Rcounter.inc ~cp c ~pid)
    ~recover:(fun ~cp -> Rcounter.inc_recover ~cp c ~pid)
    ()

(** A recoverable T&S under random crashes. *)
let rtas ~rng ~crash_prob ~stats ?obs ?watchdog ?hb t ~pid =
  with_crashes ~rng ~crash_prob ~stats ?obs ?watchdog ?hb
    ~op:(fun ~cp -> Rtas.test_and_set ~cp t ~pid)
    ~recover:(fun ~cp -> Rtas.recover ~cp t ~pid)
    ()
