(* One shard: a single-writer worker domain owning a slice of the keyed
   namespace behind a bounded request queue.

   Crash protocol — the adversary and the worker communicate only
   through [Atomic]s because [Crash.t] fields are plain mutable and
   owned by the worker: the adversary sets [kill]; the worker observes
   it at its next scheduling point, arms its *own* crash point so the
   in-flight operation aborts mid-execution with [Crash.Crashed]
   (locals discarded — the simulated power failure), then runs the
   recovery pipeline under the watchdog and clears [kill] as the
   acknowledgement.  Requests parked in the queue survive the crash
   (they are "NVRAM") and are served after recovery — clients only see
   the latency spike, plus [Unavailable] on submissions attempted while
   the shard is down.

   Degradation ladder, least to most drastic:
   1. bounded queue — submissions beyond [queue_bound] are rejected
      newest-first at the push ([`Rejected]);
   2. killed or recovering shards refuse submissions ([`Unavailable]);
   3. above the 3/4-occupancy watermark the worker sheds a configurable
      fraction of *reads* without touching the object ([Shed] answer) —
      updates are never shed, so conservation stays exact. *)

module Crash = Runtime.Crash
module Torture = Runtime.Torture

(* request status slots: the worker writes [rq_result] (plain field)
   before the [Atomic.set] on [rq_status], so the result is published
   to the polling client per the OCaml memory model *)
let st_pending = 0
let st_ok = 1
let st_shed = 2
let st_failed = 3

type request = {
  rq_key : int;  (** shard-local key *)
  rq_op : Robjects.op;
  rq_status : int Atomic.t;
  mutable rq_result : int;
}

let request ~key op = { rq_key = key; rq_op = op; rq_status = Atomic.make st_pending; rq_result = 0 }

(* shard status *)
let healthy = 0
let recovering = 1

type config = {
  queue_bound : int;
  shed_fraction : float;  (** of reads, above the occupancy watermark *)
  watchdog : Torture.watchdog;
  recrash_prob : float;  (** chance each recovery attempt is itself crashed *)
}

type t = {
  sid : int;
  cfg : config;
  objs : Robjects.t;
  q : request Queue.t;
  q_mutex : Mutex.t;
  q_len : int Atomic.t;
  status : int Atomic.t;
  kill : bool Atomic.t;
  stop : bool Atomic.t;
  pushed : int Atomic.t;  (** accepted submissions — the hot-shard signal *)
  cp : Crash.t;
  pending : Robjects.pending;
  expected : int array;
  rng : Torture.rng;
  reg : Obs.Metrics.t;
  recovery_lat : Latency.t;
}

let create ~sid ~keys ~seed cfg =
  {
    sid;
    cfg;
    objs = Robjects.create ~keys;
    q = Queue.create ();
    q_mutex = Mutex.create ();
    q_len = Atomic.make 0;
    status = Atomic.make healthy;
    kill = Atomic.make false;
    stop = Atomic.make false;
    pushed = Atomic.make 0;
    cp = Crash.create ();
    pending = Robjects.pending_create ();
    expected = Array.make (max 1 keys) 0;
    rng = Torture.rng_create (seed lxor ((sid + 1) * 0x9e3779b9));
    reg = Obs.Metrics.create ();
    recovery_lat = Latency.create ();
  }

let queue_length t = Atomic.get t.q_len
let is_healthy t = Atomic.get t.status = healthy

(* Client side: submit a request.  Refusals are cheap and touch no
   shared state beyond the atomics. *)
let try_push t rq =
  if Atomic.get t.status <> healthy then `Unavailable
  else begin
    Mutex.lock t.q_mutex;
    let n = Queue.length t.q in
    if n >= t.cfg.queue_bound then begin
      Mutex.unlock t.q_mutex;
      `Rejected
    end
    else begin
      Queue.push rq t.q;
      Atomic.set t.q_len (n + 1);
      Mutex.unlock t.q_mutex;
      Atomic.incr t.pushed;
      `Ok
    end
  end

let pop t =
  Mutex.lock t.q_mutex;
  let r = if Queue.is_empty t.q then None else Some (Queue.pop t.q) in
  Atomic.set t.q_len (Queue.length t.q);
  Mutex.unlock t.q_mutex;
  r

let answer rq status result =
  rq.rq_result <- result;
  Atomic.set rq.rq_status status

(* --- worker ------------------------------------------------------- *)

type counters = {
  c_crashes : Obs.Metrics.counter;
  c_recoveries : Obs.Metrics.counter;
  c_recovery_retries : Obs.Metrics.counter;
  c_giveups : Obs.Metrics.counter;
  c_shed : Obs.Metrics.counter;
  c_failures : Obs.Metrics.counter;
  h_recovery : Obs.Metrics.histogram;
}

let counters t =
  {
    c_crashes = Obs.Metrics.counter t.reg Obs.Names.service_crashes;
    c_recoveries = Obs.Metrics.counter t.reg Obs.Names.service_recoveries;
    c_recovery_retries = Obs.Metrics.counter t.reg Obs.Names.service_recovery_retries;
    c_giveups = Obs.Metrics.counter t.reg Obs.Names.service_giveups;
    c_shed = Obs.Metrics.counter t.reg Obs.Names.service_shed;
    c_failures = Obs.Metrics.counter t.reg Obs.Names.service_failures;
    h_recovery = Obs.Metrics.histogram t.reg Obs.Names.service_recovery_ns;
  }

let commit t rq result =
  Robjects.apply_expected t.expected t.pending;
  answer rq st_ok result

(* Recovery pipeline for the one in-flight operation, bounded by the
   watchdog: retry budget, traversal fuse per attempt, backoff between
   attempts.  [recrash_prob] models repeated power failures hitting the
   recovery itself. *)
let recover_inflight t cs rq =
  let wd = t.cfg.watchdog in
  Crash.set_fuse t.cp wd.Torture.wd_max_traversed;
  let rec attempt_loop attempt =
    if attempt > wd.Torture.wd_max_retries then begin
      (* watchdog gives up: fail the request rather than livelock the
         shard.  The operation's effect is undecided, so conservation
         checking may flag this key — which is exactly the point. *)
      Obs.Metrics.Counter.incr cs.c_giveups;
      Obs.Metrics.Counter.incr cs.c_failures;
      answer rq st_failed 0
    end
    else begin
      if attempt > 1 then begin
        Obs.Metrics.Counter.incr cs.c_recovery_retries;
        Torture.run_backoff wd.Torture.wd_backoff ~attempt
      end;
      Crash.disarm t.cp;
      if t.cfg.recrash_prob > 0.0 && Torture.rng_int t.rng 1_000 < int_of_float (t.cfg.recrash_prob *. 1_000.0)
      then Crash.arm t.cp (Torture.rng_int t.rng 4);
      match Robjects.recover t.objs ~cp:t.cp t.pending with
      | r ->
        Crash.disarm t.cp;
        commit t rq r
      | exception Crash.Crashed -> attempt_loop (attempt + 1)
      | exception Crash.Livelock -> attempt_loop (attempt + 1)
    end
  in
  attempt_loop 1;
  Crash.set_fuse t.cp 0

let handle_crash t cs inflight =
  Atomic.set t.status recovering;
  Obs.Metrics.Counter.incr cs.c_crashes;
  let t0 = Obs.Clock.now_ns () in
  Crash.disarm t.cp;
  (match inflight with None -> () | Some rq -> recover_inflight t cs rq);
  let dt = Obs.Clock.now_ns () - t0 in
  Latency.observe t.recovery_lat dt;
  Obs.Metrics.Histogram.observe cs.h_recovery dt;
  Obs.Metrics.Counter.incr cs.c_recoveries;
  (* acknowledge the kill last: the adversary waits on it *)
  Atomic.set t.status healthy;
  Atomic.set t.kill false

let shed_watermark t = (t.cfg.queue_bound * 3) / 4

(* how long a pending kill waits for a request to strike mid-operation
   before falling back to a between-operations crash *)
let kill_wait_ns = 2_000_000

let run t =
  let cs = counters t in
  let shed_permille = int_of_float (t.cfg.shed_fraction *. 1_000.0) in
  let exec_rq rq ~armed =
    Robjects.begin_op t.pending ~key:rq.rq_key rq.rq_op;
    (* a pending kill crashes the operation mid-execution at a drawn
       crash-point index (index 0 is the first shared access) *)
    if armed then Crash.arm t.cp (Torture.rng_int t.rng 4);
    match Robjects.exec t.objs ~cp:t.cp t.pending with
    | r ->
      Crash.disarm t.cp;
      commit t rq r
    | exception Crash.Crashed -> handle_crash t cs (Some rq)
  in
  let rec loop () =
    if Atomic.get t.kill then begin
      (* prefer striking an in-flight operation: wait briefly for a
         request, then fall back to a crash between operations *)
      let deadline = Obs.Clock.now_ns () + kill_wait_ns in
      let rec await () =
        match pop t with
        | Some rq -> exec_rq rq ~armed:true
        | None ->
          if Obs.Clock.now_ns () < deadline && not (Atomic.get t.stop) then begin
            Domain.cpu_relax ();
            await ()
          end
          else handle_crash t cs None
      in
      await ();
      loop ()
    end
    else
      match pop t with
      | None -> if Atomic.get t.stop then () else (Domain.cpu_relax (); loop ())
      | Some rq ->
        (match rq.rq_op with
        | Robjects.Read
          when queue_length t >= shed_watermark t
               && shed_permille > 0
               && Torture.rng_int t.rng 1_000 < shed_permille ->
          Obs.Metrics.Counter.incr cs.c_shed;
          answer rq st_shed 0
        | _ -> exec_rq rq ~armed:false);
        loop ()
  in
  loop ()
