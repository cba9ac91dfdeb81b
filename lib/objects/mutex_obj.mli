(** Recoverable mutex with abortable acquire (Jayanti–Joshi), in the NRL
    framework.

    Operations (both {e strict}, both taking a per-process-unique
    sequence number): [ACQUIRE seq] returns [true] (lock granted) or
    [false] (aborted — on contention, or when a crash-interrupted
    acquire cannot prove its CAS won); [RELEASE seq] returns [true] and
    frees the lock iff the caller owns it.  The lock cell tags its
    owner with the granting acquire's sequence number, and RELEASE
    persists a per-process commit marker before clearing the lock, so
    recovery never grants twice or frees another process's lock. *)

val make : Machine.Sim.t -> name:string -> Machine.Objdef.instance
(** Register a recoverable abortable-mutex instance (object type
    ["mutex"]); ACQUIRE and RELEASE are strict with per-process
    [<seq, ret>] response cells. *)
