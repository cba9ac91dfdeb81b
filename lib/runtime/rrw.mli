(** Algorithm 1 on real multicore: recoverable read/write register.

    All written values must be distinct (tag them with writer id and
    sequence number) and fit 62-bit signed ints ([Enc.pack ~id:p i]
    does for [p < 8191]).  [R] is a cache-line-padded atomic; [S_p]
    packs <flag, prev> as [(prev lsl 1) lor flag] in a plain padded slot
    (owner-only state — recovery runs on the owner's domain).
    Allocation-free on every path.  The [?cp] arguments are crash points
    for single-process recovery drills. *)

type t = {
  r : int Atomic.t;
  s : int array;  (** plain padded [S_p] slots, [(prev lsl 1) lor flag] *)
}

val create : nprocs:int -> int -> t
val read : ?cp:Crash.t -> t -> int
val read_recover : ?cp:Crash.t -> t -> int
val write : ?cp:Crash.t -> t -> pid:int -> int -> unit

val write_recover : ?cp:Crash.t -> t -> pid:int -> int -> unit
(** [WRITE.RECOVER]: re-executes exactly when the interrupted write could
    not have been linearized (lines 11-17 of the paper). *)

(** {2 Nesting}

    The operations with the crash point passed positionally: objects
    built on the register ({!Rcounter}) call these, as re-passing an
    optional argument allocates a [Some] per call. *)

val read_cp : Crash.t -> t -> int
val write_cp : Crash.t -> t -> pid:int -> int -> unit
val write_recover_cp : Crash.t -> t -> pid:int -> int -> unit

(** Plain (non-recoverable) register baseline. *)
module Plain : sig
  type t

  val create : int -> t
  val read : t -> int
  val write : t -> int -> unit
end
