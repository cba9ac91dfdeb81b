(** Recoverable consensus (Golab): a CAS cell fixes the decision; a
    crash-recoverable, {e strict} [DECIDE (seq, v)] re-derives its
    response from the durable decision, so agreement and validity
    survive crashes.  Proposals must be non-[null]; sequence numbers
    are per-process unique. *)

val make : Machine.Sim.t -> name:string -> Machine.Objdef.instance
(** Register a recoverable consensus instance (object type
    ["consensus"]); DECIDE is strict with per-process [<seq, d>]
    response cells. *)
