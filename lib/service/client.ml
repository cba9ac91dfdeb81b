(* Closed-loop client sessions: each session keeps exactly one logical
   operation outstanding.  A client domain multiplexes many sessions
   round-robin, polling response slots and pacing retries, so a handful
   of domains simulate hundreds of clients.

   Retry policy: [`Unavailable], [`Rejected] and deadline timeouts all
   re-submit after capped exponential backoff with jitter (full
   jitter-halved: delay drawn from [ceiling/2, ceiling)).  A timed-out
   request may still be executed by the shard afterwards — the service
   is at-least-once under client timeout, which the conservation check
   accounts for by counting committed effects on the worker side. *)

module Torture = Runtime.Torture

type config = {
  sessions : int;  (** sessions driven by this domain *)
  session0 : int;  (** global id of the first (seeds diverge per session) *)
  total_keys : int;
  skew : float;
  deadline_ns : int;
  seed : int;
}

(* share of reads in the op mix, out of 1000 *)
let default_read_permille = 250

(* the first retry's backoff ceiling, and the ceiling's cap *)
let backoff_base_ns = 50_000
let backoff_cap_ns = 5_000_000

(* session states *)
let idle = 0
let waiting = 1
let backing_off = 2

type session = {
  rng : Torture.rng;
  mutable st : int;
  mutable rq : Shard.request option;
  mutable shard : int;
  mutable key : int;  (** shard-local *)
  mutable op : Robjects.op;
  mutable sent_ns : int;  (** this attempt's submission time *)
  mutable issued_ns : int;  (** the logical op's first submission time *)
  mutable attempt : int;
  mutable not_before : int;
}

type t = {
  cfg : config;
  shards : Shard.t array;
  zipf : Zipf.t;
  stop : bool Atomic.t;
  reg : Obs.Metrics.t;
}

let create cfg ~shards ~stop =
  {
    cfg;
    shards;
    zipf = Zipf.create ~n:cfg.total_keys ~skew:cfg.skew;
    stop;
    reg = Obs.Metrics.create ();
  }

let backoff_ns s =
  let shift = min (s.attempt - 1) 20 in
  let ceiling = min backoff_cap_ns (backoff_base_ns lsl shift) in
  let lo = ceiling / 2 in
  lo + Torture.rng_int s.rng (max 1 (ceiling - lo))

let new_session cfg gid =
  {
    rng = Torture.rng_create (cfg.seed lxor ((gid + 1) * 0x2545f49));
    st = idle;
    rq = None;
    shard = 0;
    key = 0;
    op = Robjects.Read;
    sent_ns = 0;
    issued_ns = 0;
    attempt = 0;
    not_before = 0;
  }

(* The per-domain event loop.  On [stop], outstanding requests are
   abandoned — the workers drain them harmlessly. *)
let run t =
  let nshards = Array.length t.shards in
  let c_requests = Obs.Metrics.counter t.reg Obs.Names.service_requests in
  let c_ok = Obs.Metrics.counter t.reg Obs.Names.service_ok in
  let c_retries = Obs.Metrics.counter t.reg Obs.Names.service_retries in
  let c_rejected = Obs.Metrics.counter t.reg Obs.Names.service_rejected in
  let c_unavailable = Obs.Metrics.counter t.reg Obs.Names.service_unavailable in
  let c_timeouts = Obs.Metrics.counter t.reg Obs.Names.service_timeouts in
  let h_lat = Obs.Metrics.histogram t.reg Obs.Names.service_latency in
  let sessions =
    Array.init t.cfg.sessions (fun i -> new_session t.cfg (t.cfg.session0 + i))
  in
  let generate s now =
    let gk = Zipf.draw t.zipf s.rng in
    s.shard <- gk mod nshards;
    s.key <- gk / nshards;
    let sh = t.shards.(s.shard) in
    let kind = Robjects.kind_of_key sh.Shard.objs s.key in
    s.op <-
      (if Torture.rng_int s.rng 1_000 < default_read_permille then Robjects.Read
       else
         match kind with
         | Robjects.Counter | Robjects.Cas -> Robjects.Update 0
         | Robjects.Faa -> Robjects.Update (1 + Torture.rng_int s.rng 8)
         | Robjects.Max -> Robjects.Update (1 + Torture.rng_int s.rng 1_000_000)
         | Robjects.Hist -> Robjects.Update (Torture.rng_int s.rng 1_024));
    s.attempt <- 1;
    s.issued_ns <- now;
    Obs.Metrics.Counter.incr c_requests
  in
  let submit s now =
    let rq = Shard.request ~key:s.key s.op in
    match Shard.try_push t.shards.(s.shard) rq with
    | `Ok ->
      s.rq <- Some rq;
      s.sent_ns <- now;
      s.st <- waiting
    | `Unavailable ->
      Obs.Metrics.Counter.incr c_unavailable;
      s.attempt <- s.attempt + 1;
      s.not_before <- now + backoff_ns s;
      s.st <- backing_off
    | `Rejected ->
      Obs.Metrics.Counter.incr c_rejected;
      s.attempt <- s.attempt + 1;
      s.not_before <- now + backoff_ns s;
      s.st <- backing_off
  in
  let step s now =
    if s.st = idle then begin
      generate s now;
      submit s now
    end
    else if s.st = waiting then begin
      let rq = Option.get s.rq in
      let st = Atomic.get rq.Shard.rq_status in
      if st <> Shard.st_pending then begin
        (* shed and failed answers complete the logical op too: shed
           load must not be retried into the saturation it relieves *)
        if st = Shard.st_ok then begin
          Obs.Metrics.Counter.incr c_ok;
          Obs.Metrics.Histogram.observe h_lat (now - s.issued_ns)
        end;
        s.rq <- None;
        s.st <- idle
      end
      else if now - s.sent_ns > t.cfg.deadline_ns then begin
        Obs.Metrics.Counter.incr c_timeouts;
        s.rq <- None;
        (* abandon and re-submit: at-least-once *)
        s.attempt <- s.attempt + 1;
        s.not_before <- now + backoff_ns s;
        s.st <- backing_off
      end
    end
    else if now >= s.not_before then begin
      Obs.Metrics.Counter.incr c_retries;
      submit s now
    end
  in
  while not (Atomic.get t.stop) do
    let now = Obs.Clock.now_ns () in
    Array.iter (fun s -> step s now) sessions;
    Domain.cpu_relax ()
  done
