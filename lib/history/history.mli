(** Histories and their sub-histories (paper, Section 2). *)

module Step = Step

type t = Step.t array

val of_list : Step.t list -> t
val to_list : t -> Step.t list
val length : t -> int
val is_empty : t -> bool
val pp : t Fmt.t

val filter : (Step.t -> bool) -> t -> t

val by_proc : t -> int -> t
(** [H|p]: all steps by process [p]. *)

val by_object : t -> int -> t
(** [H|O]: invoke/response steps on [O], crash steps whose crashed
    operation is on [O], and their matching recovery steps. *)

val n_of : t -> t
(** [N(H)]: the history with all crash and recovery steps removed. *)

val is_crash_free : t -> bool

val objects : t -> int list
(** Object ids appearing in the history, sorted. *)

(** An operation instance extracted from a history. *)
type op_record = {
  pid : int;
  opref : Step.opref;
  args : Nvm.Value.t array;
  ret : Nvm.Value.t option;  (** [None] while pending *)
  inv_pos : int;  (** index of the invocation step *)
  res_pos : int option;
  call_id : int;
}

val ops_of : t -> op_record list
(** Operation records (completed and pending), ordered by invocation;
    crash/recovery steps are ignored. *)

val happens_before : op_record -> op_record -> bool
(** [a]'s response step precedes [b]'s invocation step. *)

val concurrent : op_record -> op_record -> bool

(** Well-formedness (Section 2): crash-free well-formedness, and
    Definition 3's recoverable well-formedness. *)
module Wellformed : sig
  type result = Ok | Violation of string

  val is_ok : result -> bool
  val pp_result : result Fmt.t

  val check_alternating : p:int -> o:int -> t -> result
  (** [H|<p,O>] must alternate matching invocations and responses,
      starting with an invocation. *)

  val check_nesting : p:int -> t -> result
  (** Requirement (2): matched pairs of one process are properly nested
      (if [i1 < i2 < r1] then [r2 < r1]).  Operations that never respond
      are exempt.  One pass over [p]'s operations; on a violation the
      message names the responding-late operation and the inner-most
      operation it was invoked inside. *)

  val check_well_formed : t -> result
  (** Crash-free well-formedness: every [H|O] well-formed, plus the
      nesting requirement. *)

  val check_recoverable_well_formed : t -> result
  (** Definition 3: every crash step of [p] is [p]'s last step or is
      followed in [H|p] by a matching recovery step, and [N(H)] is
      well-formed. *)
end
