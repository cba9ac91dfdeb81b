(** Strict recoverable CAS on real multicore: {!Rcas} plus per-invocation
    tagged response persistence, mirroring the simulator's
    {!Objects.Scas_obj}.  The caller supplies a [seq] tag, distinct and
    non-negative across its invocations.

    Packed <id, value> content in one padded atomic; flat stride-padded
    plain helping matrix (memory-model argument in rcas.ml); [res] as
    plain padded slots (owner-only state).  Allocation-free on every
    path; values 48-bit signed.  The [_cp] variants take the crash point
    positionally (optional re-passing allocates). *)

type t = {
  c : int Atomic.t;  (** packed <last successful writer (-1 = null), value> *)
  r : int array;  (** flat padded helping matrix, [Enc.none] = empty *)
  res : int array;  (** per-process packed <seq, ret>, [Enc.res_none] = none *)
  nprocs : int;
}

val create : nprocs:int -> int -> t
val read : ?cp:Crash.t -> t -> int

val read_content : ?cp:Crash.t -> t -> int
(** The packed <id, value> content — itself the retry-loop token
    ([Enc.value]/[Enc.id] decode it). *)

val persist : ?cp:Crash.t -> t -> pid:int -> seq:int -> bool -> bool
(** Persist [<seq, ret>] into [res.(pid)], returning [ret]. *)

val cas : ?cp:Crash.t -> t -> pid:int -> old:int -> new_:int -> seq:int -> bool
(** Algorithm 2's CAS, persisting [<seq, ret>] before returning. *)

val cas_content :
  ?cp:Crash.t -> t -> pid:int -> content:int -> new_:int -> seq:int -> bool
(** Like {!cas} but swapping from a content previously obtained with
    {!read_content}, as retry loops need. *)

val cas_recover :
  ?cp:Crash.t -> t -> pid:int -> old:int -> new_:int -> seq:int -> bool
(** [CAS.RECOVER]: answer from the persisted verdict or the evidence, or
    re-execute. *)

val outcome : ?cp:Crash.t -> t -> pid:int -> new_:int -> seq:int -> bool option
(** Evidence-only verdict for the invocation tagged [seq]: [Some r] if
    the persisted response, [C]'s contents or the helping row decide it
    (persisting on the way out); [None] when there is no evidence — by
    Lemma 3's argument the cas then never took effect.  Nesting callers'
    recoveries need this (the machine gets it from the recovery cascade;
    native code must ask). *)

val read_cp : Crash.t -> t -> int
val outcome_cp : Crash.t -> t -> pid:int -> new_:int -> seq:int -> bool option
