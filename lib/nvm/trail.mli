(** A generic undo trail: a log of closures that revert in-place
    mutations, enabling trail-based backtracking instead of
    clone-per-branch exploration.  One trail is shared by every structure
    participating in a machine, so cross-structure undo order is globally
    LIFO — see {!Machine.Sim.mark}. *)

type t

type mark

val create : unit -> t

val push : t -> (unit -> unit) -> unit
(** Log one undo thunk; it runs when the trail is unwound past it. *)

val mark : t -> mark
(** The current trail position — O(1), no copying. *)

val undo_to : t -> mark -> int
(** Run every undo pushed since the mark, newest first, reset the trail
    to it, and return the number of undos run.
    @raise Invalid_argument on a mark from another trail or one already
    undone past. *)
