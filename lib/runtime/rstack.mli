(** Recoverable Treiber stack on real multicore, nested on {!Rscas}'s
    persisted-tag protocol: an immutable node chain behind a
    freshly-allocated stamped head record per installed content
    ([stamp = (seq lsl 13) lor pid] keeps contents writer-unique), the
    strict-CAS layer inlined with physical CAS on the head pointer and
    stamp-equality evidence checks.  Each operation keeps its own
    [LI_p] (a commit marker on its process's metadata line), so the
    recoveries take only the invocation's arguments.  Responses are
    packed ints; a push+pop pair allocates three small blocks. *)

type response = Pushed | Popped of int | Empty

type node = { nv : int; next : node }
type head = { stamp : int; top : node }

type t = {
  c : head Atomic.t;
  r : head array;
  res : int array;
  meta : int array;
  nprocs : int;
}

val decode : int -> response
(** Unpack a packed response ([0] pushed, [1] empty, [(v lsl 2) lor 2]
    popped [v]) for assertions/pretty-printing (allocates for
    [Popped]). *)

val create : nprocs:int -> unit -> t
val peek : ?cp:Crash.t -> t -> int option
val push : ?cp:Crash.t -> t -> pid:int -> int -> int
val pop : ?cp:Crash.t -> t -> pid:int -> int
val push_recover : ?cp:Crash.t -> t -> pid:int -> int -> int
val pop_recover : ?cp:Crash.t -> t -> pid:int -> int
