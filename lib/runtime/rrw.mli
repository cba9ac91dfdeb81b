(** Algorithm 1 on real multicore: recoverable read/write register over
    OCaml 5 [Atomic] cells.

    Values are compared structurally; all written values must be distinct
    (tag them with writer id and sequence number).  The [?cp] arguments
    are crash points for single-process recovery drills. *)

type 'a t = {
  r : 'a Atomic.t;
  s : (int * 'a) Atomic.t array;  (** [S_p]: <flag, previous value> *)
}

val create : nprocs:int -> 'a -> 'a t
val read : ?cp:Crash.t -> 'a t -> 'a
val read_recover : ?cp:Crash.t -> 'a t -> 'a
val write : ?cp:Crash.t -> 'a t -> pid:int -> 'a -> unit

val write_recover : ?cp:Crash.t -> 'a t -> pid:int -> 'a -> unit
(** [WRITE.RECOVER]: re-executes exactly when the interrupted write could
    not have been linearized (lines 11-17 of the paper). *)

(** Plain (non-recoverable) register baseline. *)
module Plain : sig
  type 'a t

  val create : 'a -> 'a t
  val read : 'a t -> 'a
  val write : 'a t -> 'a -> unit
end

(** Unboxed int specialization: [R] is a cache-line-padded atomic;
    [S_p] packs <flag, prev> as [(prev lsl 1) lor flag] in a plain
    padded slot (owner-only state — recovery runs on the owner's
    domain).  Allocation-free on every path; values must fit 62-bit
    signed ints. *)
module Int : sig
  type t = {
    r : int Atomic.t;
    s : int array;
  }

  val create : nprocs:int -> int -> t
  val read : ?cp:Crash.t -> t -> int
  val read_recover : ?cp:Crash.t -> t -> int
  val write : ?cp:Crash.t -> t -> pid:int -> int -> unit
  val write_recover : ?cp:Crash.t -> t -> pid:int -> int -> unit

  val write_recover_cp : Crash.t -> t -> pid:int -> int -> unit
  (** [write_recover] with the crash point passed positionally: nesting
      callers' recoveries use it, as re-passing an optional argument
      allocates a [Some] per call. *)
end
