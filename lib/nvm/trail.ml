(** A generic undo trail: a log of closures that revert in-place
    mutations, enabling trail-based backtracking (mutate one structure,
    revert on backtrack) instead of clone-per-branch exploration.

    The trail is a persistent (immutable) list of undo thunks held behind
    one mutable cursor, so a {!mark} is just the list at the time it was
    taken: {!undo_to} runs every thunk pushed since, newest first, and
    physical equality with the saved list tells it where to stop.  LIFO
    order is what makes composite undo correct — if a location was
    mutated twice, the later mutation is reverted first, so the earlier
    thunk re-installs the value the location held at the mark.

    One trail is shared by every structure participating in a machine
    (NVRAM cells, volatile environments, process records), which keeps
    cross-structure undo ordering global without any coordination. *)

type t = { mutable undos : (unit -> unit) list }

type mark = (unit -> unit) list

let create () = { undos = [] }

let push t f = t.undos <- f :: t.undos

let mark t = t.undos

(** Run every undo pushed since [m] was taken, newest first, reset the
    trail to [m], and return how many undos ran.  [m] must come from this
    trail and must not have been undone past already; an exhausted trail
    that never meets [m] indicates exactly that misuse.
    @raise Invalid_argument on a foreign or stale mark. *)
let undo_to t (m : mark) =
  let rec go l n =
    if l == m then n
    else
      match l with
      | f :: rest ->
        f ();
        go rest (n + 1)
      | [] -> invalid_arg "Trail.undo_to: mark is not a prefix of this trail"
  in
  let n = go t.undos 0 in
  t.undos <- m;
  n
