(** Strict recoverable CAS on real multicore: {!Rcas} plus per-invocation
    tagged response persistence, mirroring the simulator's
    {!Objects.Scas_obj}.  Each operation calls the nested {!Rcas}
    operation, then persists [<seq, ret>].  The caller supplies a [seq]
    tag, distinct and non-negative across its invocations.

    [res] is plain padded slots (owner-only state).  Allocation-free on
    every path; values 48-bit signed. *)

type t = {
  cas : Rcas.t;  (** Algorithm 2's object: [C] and the helping matrix *)
  res : int array;  (** per-process packed <seq, ret>, [Enc.res_none] = none *)
}

val create : nprocs:int -> int -> t
val read : ?cp:Crash.t -> t -> int

val cas : ?cp:Crash.t -> t -> pid:int -> old:int -> new_:int -> seq:int -> bool
(** Algorithm 2's CAS, persisting [<seq, ret>] before returning. *)

val cas_recover :
  ?cp:Crash.t -> t -> pid:int -> old:int -> new_:int -> seq:int -> bool
(** [CAS.RECOVER]: answer from the persisted verdict or the evidence, or
    re-execute. *)

(** {2 Nesting}

    For objects built on the strict CAS ({!Rfaa}), with the crash point
    passed positionally (re-passing an optional argument allocates). *)

val read_content_cp : Crash.t -> t -> int
(** The packed <id, value> content — itself the retry-loop token
    ([Enc.value]/[Enc.id] decode it). *)

val cas_content_cp :
  Crash.t -> t -> pid:int -> content:int -> new_:int -> seq:int -> bool
(** Like [cas] but swapping from a content previously obtained with
    {!read_content_cp}, as retry loops need. *)

val outcome_cp : Crash.t -> t -> pid:int -> new_:int -> seq:int -> bool option
(** Evidence-only verdict for the invocation tagged [seq]: [Some r] if
    the persisted response, [C]'s contents or the helping row decide it
    (persisting on the way out); [None] when there is no evidence — by
    Lemma 3's argument the cas then never took effect.  Nesting callers'
    recoveries need this (the machine gets it from the recovery cascade;
    native code must ask). *)
