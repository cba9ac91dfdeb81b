(** Algorithm 4 on real multicore: recoverable counter nested on
    {!Rrw} recoverable registers, whose READ, WRITE and WRITE.RECOVER it
    calls.  [read] is strict (persists its response in [Res_p] before
    returning).  INC keeps its own [LI_p] (whether its nested WRITE
    started, and with which value), so its recovery needs only the
    process id.  Padded per-process registers, plain padded
    [S_p]/[LI_p]/[Res_p] slots; INC allocates nothing. *)

type t

val create : nprocs:int -> t
val inc : ?cp:Crash.t -> t -> pid:int -> unit

val inc_recover : ?cp:Crash.t -> t -> pid:int -> unit
(** [INC.RECOVER] of [pid]'s crashed [inc]: re-executes if the nested
    WRITE had not started, else recovers the WRITE with its persisted
    value and returns. *)

val read : ?cp:Crash.t -> t -> pid:int -> int
val read_recover : ?cp:Crash.t -> t -> pid:int -> int

(** Plain array counter with the same layout but no recovery machinery. *)
module Plain : sig
  type t

  val create : nprocs:int -> t
  val inc : t -> pid:int -> unit
  val read : t -> int
end
