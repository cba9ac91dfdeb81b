(** A keyed namespace of native recoverable objects, operated by
    exactly one shard worker (objects are created with [nprocs = 1];
    the service's concurrency lives in the shard queues).

    The {!pending} slot is the wrapper-held system metadata of the
    paper's model: the in-flight operation's arguments survive a crash
    on the OCaml heap (the simulated NVRAM), while locals are discarded
    with the raised {!Runtime.Crash.Crashed}, exactly like volatile
    registers.  The counter and FAA keep their own progress ([LI_p]);
    only the CAS bump and max, composed here over a nested CAS, keep
    that CAS's arguments in the slot. *)

(** Object kinds, assigned round-robin over the key space. *)
type kind = Counter | Faa | Cas | Max | Hist

val kind_name : kind -> string

val hist_buckets : int
(** Buckets per histogram object (adds land into [value mod buckets]). *)

type t

val create : keys:int -> t
(** [keys] is clamped to at least 1; key [k] has kind
    [kind_of_key t k]. *)

val keys : t -> int
val kind_of_key : t -> int -> kind

(** One operation: a read, or the kind's update — counter INC / CAS
    bump ignore the argument; FAA adds [max 1 arg]; max installs the
    candidate [arg]; hist adds into bucket [arg mod hist_buckets]. *)
type op = Read | Update of int

type pending
(** The in-flight operation's arguments (and a composed update's nested
    CAS arguments). *)

val pending_create : unit -> pending

val begin_op : pending -> key:int -> op -> unit
(** Record the operation's arguments as system metadata. *)

val end_op : pending -> unit
(** A no-op: a slot needs no closing, since {!begin_op} overwrites every
    field the next operation reads.  Kept for callers that bracket an
    operation with [begin_op]/[end_op]. *)

val exec : t -> cp:Runtime.Crash.t -> pending -> int
(** The first attempt; returns the response (a counter update answers
    INC's ack, 0).
    @raise Runtime.Crash.Crashed when the armed crash point fires —
    {!recover} then finishes the operation. *)

val recover : t -> cp:Runtime.Crash.t -> pending -> int
(** Recover the in-flight operation exactly once; every branch is
    re-entrant, so it may be re-invoked after crashing itself. *)

val apply_expected : int array -> pending -> unit
(** Fold the completed update's effect into the per-key
    committed-effect totals (the conservation ledger); reads are
    no-ops.  Call exactly once per completed update. *)

val final_value : t -> int -> int
(** Quiescent final state of a key (worker joined, no crash point). *)
