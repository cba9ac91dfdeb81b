(** Algorithm 4 on real multicore: recoverable counter nested on
    {!Rrw.Int} recoverable registers.  [read] is strict (persists its
    response in [Res_p] before returning).  Padded per-process
    registers, plain padded [S_p]/[Res_p] slots; INC allocates
    nothing. *)

type t = {
  regs : Rrw.Int.t array;  (** per-process single-writer recoverable registers *)
  res : int array;  (** plain padded [Res_p] slots for strict READ; -1 = none *)
  nprocs : int;
}

val create : nprocs:int -> t
val inc : ?cp:Crash.t -> t -> pid:int -> unit

val inc_recover : ?cp:Crash.t -> t -> pid:int -> li_before_write:bool -> unit
(** [INC.RECOVER].  [li_before_write] is the harness-supplied [LI_p < 4]
    bit: whether the crash occurred before the nested WRITE started.  If
    the crash hit {e inside} the WRITE, first run {!reg_write_recover},
    then call this with [li_before_write:false]. *)

val reg_write_recover : ?cp:Crash.t -> t -> pid:int -> int -> unit
(** Register-level recovery for a crash inside the nested WRITE; the
    intended value (temp + 1) comes from the system's preserved LI
    metadata (in drills, from the harness). *)

val reg_read : ?cp:Crash.t -> t -> pid:int -> int
(** The caller's own register — what the nested recovery drill needs
    to recompute temp + 1. *)

val read : ?cp:Crash.t -> t -> pid:int -> int
val read_recover : ?cp:Crash.t -> t -> pid:int -> int

val response : t -> pid:int -> int
(** The strict READ's persisted [Res_p] (-1 before any READ). *)

val inc_cp : Crash.t -> t -> pid:int -> unit
val read_cp : Crash.t -> t -> pid:int -> int

(** Plain array counter with the same layout but no recovery machinery. *)
module Plain : sig
  type t

  val create : nprocs:int -> t
  val inc : t -> pid:int -> unit
  val read : t -> int
end

(** Conventional fetch-and-add counter baseline. *)
module Faa : sig
  type t

  val create : unit -> t
  val inc : t -> unit
  val read : t -> int
end
