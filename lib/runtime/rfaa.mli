(** Recoverable fetch-and-add on real multicore, nested on {!Rscas} with
    the persisted per-attempt tag protocol.  The operation keeps its own
    [LI_p], a commit marker set exactly when the current attempt's tag
    has been persisted, so recovery needs only the invocation's
    arguments.

    Per-process [seq]/[att]/[own] metadata and the commit marker live in
    plain padded slots (owner-only state; <seq, value> pairs are
    crash-atomic because no crash point separates their two stores).
    Allocation-free on the crash-free path. *)

type t = {
  c : Rscas.t;
  meta : int array;  (** flat padded: seq, att_seq, att_v, own_seq, own_v, commit *)
}

val create : nprocs:int -> ?init:int -> unit -> t
val read : ?cp:Crash.t -> t -> int

val faa : ?cp:Crash.t -> t -> pid:int -> int -> int
(** Add a positive delta; returns the previous value. *)

val recover : ?cp:Crash.t -> t -> pid:int -> int -> int
(** [FAA.RECOVER] of [pid]'s crashed [faa] with the same delta. *)
