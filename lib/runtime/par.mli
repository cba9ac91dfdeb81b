(** Multi-domain throughput harness, memento-style: workers park on a
    two-phase start barrier; the monotonic {!Obs.Clock} is read only
    after every domain has checked in and before the go flag is raised,
    so domain-spawn cost never pollutes the measured window. *)

type result = {
  domains : int;
  iters_per_domain : int;
  seconds : float;
  ops_per_sec : float;
}

type timed = {
  t_domains : int;  (** worker domains (the timer domain is not counted) *)
  t_total_ops : int;  (** sum of the per-domain op counters *)
  t_seconds : float;  (** measured window (barrier release to last join) *)
  t_ops_per_sec : float;
}

val run : domains:int -> iters:int -> (pid:int -> i:int -> unit) -> result
(** Fixed iteration count per domain. *)

val run_for : domains:int -> duration:float -> (pid:int -> i:int -> unit) -> timed
(** Fixed wall-clock duration: every worker loops [body] until the
    timer domain (spawned in addition to the [domains] workers) raises
    the stop flag, counting its own ops; [i] is the worker's running op
    index.  This is the contended suite's mode. *)

val max_domains : ?cap:int -> unit -> int
(** Available hardware parallelism, capped (default 8). *)
