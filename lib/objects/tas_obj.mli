(** Algorithm 3: nesting-safe recoverable test-and-set object.

    Supports one {e strict} recoverable operation, [T&S] (each process
    may invoke it at most once).  The operation is wait-free; its
    recovery function busy-waits on other processes' state — blocking
    that Theorem 4 proves unavoidable with these base objects. *)

val make : ?readable_base:bool -> Machine.Sim.t -> name:string -> Machine.Objdef.instance
(** Register a recoverable TAS instance (object type ["tas"]); [T&S] is
    declared strict with [Res_p] as its designated response variable.
    [readable_base:true] builds the paper's footnote-3 variant: a
    {e readable} base TAS replaces the doorway register. *)
