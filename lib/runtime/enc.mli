(** Int-sentinel encodings for the specialized native objects.

    A CAS object's <id, value> content packs into one OCaml int: writer
    id + 1 in bits 48..62 ([id = -1] — the paper's null — encodes as 0)
    and the value, signed, in bits 0..47.  A packed content compares
    with [=] exactly like the boxed pair did, so
    [Atomic.compare_and_set] needs no structural detour and the hot
    paths never allocate. *)

val value_bits : int

val max_procs : int
(** Process ids must fit 13 bits (stack stamps append them to a
    sequence number). *)

val pack : id:int -> int -> int
val value : int -> int
val id : int -> int

val none : int
(** Helping-cell sentinel ([min_int]): not a packed value. *)

val res_pack : seq:int -> bool -> int
val res_seq : int -> int
val res_ret : int -> bool

val res_none : int
(** Response-cell sentinel: its [res_seq] is [-1], matching no
    non-negative invocation tag. *)

val check_nprocs : int -> unit
(** @raise Invalid_argument outside [1 .. max_procs]. *)
