(** Algorithm 1: nesting-safe recoverable read/write object.

    Supports non-strict recoverable [WRITE] (argument: the value) and
    [READ] operations.  Requires all written values to be distinct; the
    workload generators tag values with the writer id and a sequence
    number, as the paper suggests.  See the implementation for the
    line-by-line transcription.

    When the machine runs the explicit-persist memory model with
    annotations enabled ({!Machine.Sim.persist_annotations}), the
    programs carry flush annotations after every shared write and every
    escaping shared read (see docs/memory-model.md); under the instant
    model they are byte-identical to the paper's. *)

type cells = {
  r : Nvm.Memory.addr;  (** the register cell *)
  s : Nvm.Memory.addr;  (** base of the per-process [S_p] pair array *)
}

val make :
  ?init:Nvm.Value.t -> Machine.Sim.t -> name:string -> Machine.Objdef.instance
(** Allocate the object's cells in the machine's memory and register the
    instance (object type ["rw"]). *)

val make_ex :
  ?init:Nvm.Value.t -> Machine.Sim.t -> name:string -> Machine.Objdef.instance * cells
(** Like {!make}, also exposing the cell layout (for targeted tests and
    benchmarks). *)
