(** Algorithm 3 on real multicore: recoverable test-and-set over OCaml 5
    [Atomic] cells.  [test_and_set] is wait-free and strict (the response
    is persisted before returning); [recover] busy-waits on other
    processes' state, as Theorem 4 proves necessary.

    The paper's per-process [R_p] (state) and [Res_p] (response) cells
    are merged into one atomic word (state in bits 0..2, response + 1 in
    bits 3..4), making the completion protocol a single store — see
    rtas.ml for the soundness argument.  Use {!response} where the old
    code read [res.(pid)]. *)

type t = {
  st : int Atomic.t array;  (** merged state (bits 0..2) | response + 1 (bits 3..4) *)
  doorway : int Atomic.t;  (** 1 = open *)
  tas : int Atomic.t;
      (** base t&s bit fused with the winner announcement:
          0 = free, [(winner lsl 1) lor 1] = taken *)
  nprocs : int;
}

val create : nprocs:int -> t

val response : t -> pid:int -> int
(** The persisted response of [pid]'s operation: 0 or 1 once it
    completed (state 3), -1 before. *)

val test_and_set : ?cp:Crash.t -> t -> pid:int -> int
(** Returns 0 to the unique winner, 1 to everyone else.  At most one
    invocation per process. *)

val recover : ?cp:Crash.t -> t -> pid:int -> int
(** [T&S.RECOVER]; may spin until concurrent in-doorway processes
    finish. *)

(** Plain (non-recoverable) test-and-set baseline. *)
module Plain : sig
  type t

  val create : unit -> t
  val test_and_set : t -> int
end
