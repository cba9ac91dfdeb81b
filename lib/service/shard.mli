(** One service shard: a single-writer worker domain owning a slice of
    the keyed recoverable-object namespace behind a bounded queue.

    The crash protocol is adversary-sets-[kill] / worker-arms-its-own
    crash point / worker-clears-[kill]-when-healthy — only [Atomic]s
    cross domains, because {!Runtime.Crash.t} fields are worker-owned
    plain mutable state.  See [docs/service.md] for the degradation
    ladder and recovery pipeline. *)

(** {1 Requests} *)

val st_pending : int
val st_ok : int
val st_shed : int
val st_failed : int

type request = {
  rq_key : int;  (** shard-local key *)
  rq_op : Robjects.op;
  rq_status : int Atomic.t;  (** one of the [st_*] values above *)
}

val request : key:int -> Robjects.op -> request

(** {1 Shards} *)

type config = {
  queue_bound : int;  (** submissions beyond this are [`Rejected] *)
  shed_fraction : float;  (** fraction of reads shed above the 3/4 watermark *)
  watchdog : Runtime.Torture.watchdog;  (** bounds the recovery pipeline *)
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
  kill : bool Atomic.t;  (** adversary sets; worker clears when healthy again *)
  stop : bool Atomic.t;
  pushed : int Atomic.t;  (** accepted submissions — the hot-shard signal *)
  cp : Runtime.Crash.t;  (** worker-owned; never touched by other domains *)
  pending : Robjects.pending;
  expected : int array;  (** per-key committed-effect totals (conservation) *)
  rng : Runtime.Torture.rng;
  reg : Obs.Metrics.t;
      (** worker-owned registry, merged at the join; its
          [service.recovery_ns] histogram holds kill-to-healthy times *)
}

val create : sid:int -> keys:int -> seed:int -> config -> t

val try_push : t -> request -> [ `Ok | `Rejected | `Unavailable ]
(** Submit a request: [`Unavailable] while killed or recovering,
    [`Rejected] when the queue is at its bound. *)

val queue_length : t -> int
val is_healthy : t -> bool

val run : t -> unit
(** The worker loop; returns once [stop] is set, the queue drained and
    no kill is pending.  Run in its own domain. *)
