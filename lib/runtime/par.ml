(** Multi-domain throughput harness, memento-style.

    Both entry points follow the same discipline (the one
    kaist-cp/memento uses to evaluate NRL-CAS): workers park on a
    two-phase start barrier, the monotonic clock ({!Obs.Clock}) is read
    only after every domain has checked in, and only then is the go
    flag raised — so domain spawn cost and barrier convergence are
    excluded from the measured window.  [run] executes a fixed
    iteration count per domain; [run_for] runs a fixed wall-clock
    duration with a per-domain op counter kept in the worker's own
    stack frame (collected at join, so counting shares nothing),
    which is the mode the contended suite uses (a fixed-duration window
    measures slow and fast configurations with equal noise). *)

type result = {
  domains : int;
  iters_per_domain : int;
  seconds : float;
  ops_per_sec : float;
}

type timed = {
  t_domains : int;
  t_total_ops : int;
  t_seconds : float;
  t_ops_per_sec : float;
}

(* Spawn [domains] workers running [work pid], release them together,
   and return (elapsed seconds, per-domain results): the clock starts
   after the last worker reaches the barrier and stops after the last
   join, so it covers the work plus only the stragglers' drain. *)
let measured ~domains work =
  let ready = Atomic.make 0 in
  let go = Atomic.make false in
  let body pid () =
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    work pid
  in
  let ds = List.init domains (fun pid -> Domain.spawn (body pid)) in
  while Atomic.get ready < domains do
    Domain.cpu_relax ()
  done;
  let t0 = Obs.Clock.now_ns () in
  Atomic.set go true;
  let rs = List.map Domain.join ds in
  let t1 = Obs.Clock.now_ns () in
  (float_of_int (t1 - t0) /. 1e9, rs)

let run ~domains ~iters body =
  let dt, _ =
    measured ~domains (fun pid ->
        for i = 0 to iters - 1 do
          body ~pid ~i
        done)
  in
  {
    domains;
    iters_per_domain = iters;
    seconds = dt;
    ops_per_sec = float_of_int (domains * iters) /. dt;
  }

let run_for ~domains ~duration body =
  let stop = Atomic.make false in
  let dt, ops =
    measured ~domains:(domains + 1) (fun pid ->
        if pid = domains then begin
          (* the timer domain: workers never block, so a dedicated
             sleeper keeps the measured window free of polling *)
          Unix.sleepf duration;
          Atomic.set stop true;
          0
        end
        else begin
          let n = ref 0 in
          while not (Atomic.get stop) do
            body ~pid ~i:!n;
            incr n
          done;
          !n
        end)
  in
  let total = List.fold_left ( + ) 0 ops in
  {
    t_domains = domains;
    t_total_ops = total;
    t_seconds = dt;
    t_ops_per_sec = float_of_int total /. dt;
  }

(** Available hardware parallelism, capped for benchmark sweeps. *)
let max_domains ?(cap = 8) () = min cap (Domain.recommended_domain_count ())
