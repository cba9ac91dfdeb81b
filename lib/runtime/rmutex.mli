(** Recoverable abortable mutex on real multicore: the native twin of
    the simulated {!Objects.Mutex_obj}.  [acquire] returns [true] (lock
    granted) or [false] (aborted on contention, or when a crashed
    acquire cannot prove its CAS won); [release] returns [true] and
    frees the lock iff the caller owns it.  Both are strict: the
    response is persisted in a per-process slot, stamped with the
    invocation's sequence number, before returning.

    Sequence numbers must be non-negative, distinct per process, and
    fit {!Enc.value_bits}. *)

type t = {
  lock : int Atomic.t;  (** 0 = free, [Enc.pack ~id:owner seq] = held *)
  s : int array;  (** plain padded commit markers: the released seq, -1 none *)
  ares : int array;  (** plain padded ACQUIRE responses ({!Enc.res_pack}) *)
  rres : int array;  (** plain padded RELEASE responses ({!Enc.res_pack}) *)
}

val create : nprocs:int -> t

val acquire : ?cp:Crash.t -> t -> pid:int -> seq:int -> bool
val acquire_recover : ?cp:Crash.t -> t -> pid:int -> seq:int -> bool
val release : ?cp:Crash.t -> t -> pid:int -> seq:int -> bool
val release_recover : ?cp:Crash.t -> t -> pid:int -> seq:int -> bool

(** Plain (non-recoverable) abortable test-and-set lock baseline. *)
module Plain : sig
  type t

  val create : unit -> t
  val acquire : t -> pid:int -> bool
  val release : t -> pid:int -> bool
end
