(** Cache-line padding for the native backend's shared cells.

    The hot-path objects keep per-process helping/response state; if
    adjacent processes' cells share a 64-byte cache line, every help
    write by one domain invalidates the line under its neighbours
    (false sharing), which dominates contended cost.  Two remedies are
    provided:

    - {e padded atomics}: an ['a Atomic.t] allocated inside an 8-word
      block ([Obj.new_block] + [Obj.magic], the multicore-magic idiom —
      OCaml 5.1 lacks [Atomic.make_contended]).  The atomic primitives
      act on field 0; the rest is padding.
    - {e stride-padded flat arrays}: plain [int array]s where logical
      slot [i] lives at index [slot i] = [(i+1) * stride], one slot per
      line, with index 0 sacrificed so no slot shares a line with the
      array header. *)

val make_int : int -> int Atomic.t
(** A cache-line-padded int atomic. *)

val make_any : 'a -> 'a Atomic.t
(** A cache-line-padded atomic of any type. *)

val slot : int -> int
(** Backing index of logical slot [i] in a {!flat_make} array. *)

val flat_make : int -> int -> int array
(** [flat_make n v] backs [n] padded slots, all initialized to [v];
    address slot [i] as [a.(slot i)]. *)

val slot2 : n:int -> int -> int -> int
(** Backing index of matrix cell [(row, col)] in a {!flat2_make}
    array of logical size [n×n]. *)

val flat2_make : int -> int -> int array
(** [flat2_make n v] backs an [n×n] padded matrix; address cell
    [(r, c)] as [a.(slot2 ~n r c)]. *)
