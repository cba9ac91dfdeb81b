(** Recoverable fetch-and-add on real multicore, nested on {!Rscas} with
    the persisted per-attempt tag protocol.  The [committed] flag is
    wrapper-preserved system metadata: set exactly when the current
    attempt's tag has been persisted.

    Per-process [seq]/[att]/[own] metadata lives in plain padded slots
    (owner-only state; <seq, value> pairs are crash-atomic because no
    crash point separates their two stores).  Allocation-free on the
    crash-free path. *)

type t = {
  c : Rscas.t;
  meta : int array;  (** flat padded: seq, att_seq, att_v, own_seq, own_v *)
}

val create : nprocs:int -> ?init:int -> unit -> t
val read : ?cp:Crash.t -> t -> int

val faa : ?cp:Crash.t -> ?committed:bool ref -> t -> pid:int -> int -> int
(** Add a positive delta; returns the previous value. *)

val recover : ?cp:Crash.t -> ?committed:bool -> t -> pid:int -> int -> int
(** [FAA.RECOVER] with the wrapper-preserved commit flag of the latest
    attempt. *)
