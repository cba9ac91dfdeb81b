(** Persistent-call-stack demonstrator (after Aksenov et al.): RUN
    stages a silent scratch WRITE and one shared INC through an
    explicit {!Nvm.Pstack} frame [<seq, stage>], whose durable contents
    drive the recovery decision table ([LI_p] is consulted only inside
    the two invoke windows).  Operations (both {e strict}, both taking
    a per-process-unique sequence number): [RUN seq] returns [ack] and
    increments the shared counter exactly once; [READ seq] returns the
    counter's total. *)

val make : Machine.Sim.t -> name:string -> Machine.Objdef.instance
(** Register a pcall instance (object type ["pcall"]) together with its
    persistent call stack, per-process scratch registers and shared
    recoverable counter. *)
