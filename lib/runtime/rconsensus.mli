(** Recoverable consensus on real multicore: the native twin of the
    simulated {!Objects.Consensus_obj}.  The first successful CAS on the
    decision cell fixes the outcome forever; [decide] and
    [decide_recover] both re-derive their response from it, so agreement
    and validity survive any number of crashes.  DECIDE is strict: the
    response is persisted in per-process slots before returning.

    Proposals must not equal {!Enc.none}; sequence numbers must be
    non-negative and distinct per process. *)

type t = {
  c : int Atomic.t;  (** {!Enc.none} until decided *)
  res_val : int array;  (** plain padded decision copies *)
  res_seq : int array;  (** plain padded sequence stamps, -1 = none *)
}

val create : nprocs:int -> t

val decide : ?cp:Crash.t -> t -> pid:int -> seq:int -> int -> int
(** [decide t ~pid ~seq v] proposes [v] and returns the decision. *)

val decide_recover : ?cp:Crash.t -> t -> pid:int -> seq:int -> int -> int

(** Plain (non-recoverable) single-shot CAS consensus baseline. *)
module Plain : sig
  type t

  val create : unit -> t
  val decide : t -> int -> int
end
