(** Algorithm 2: nesting-safe recoverable CAS object.

    Supports recoverable [CAS (old, new)] and [READ] operations.  The
    object stores the pair [<last successful writer, value>] and uses an
    [N x N] helping matrix so a recovering process can tell whether its
    CAS took effect.  Assumptions (ensured by workloads): never
    [old = new]; values written by one process are distinct. *)

type cells = {
  c : Nvm.Memory.addr;  (** the [<id, val>] pair *)
  r : Nvm.Memory.addr;  (** base of the [N x N] helping matrix, row-major *)
  n : int;
}

val make : Machine.Sim.t -> name:string -> Machine.Objdef.instance
(** Register a recoverable CAS instance (object type ["cas"], initial
    abstract value [null]). *)

val make_ex : Machine.Sim.t -> name:string -> Machine.Objdef.instance * cells
