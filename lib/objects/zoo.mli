(** The mutation bug zoo: deliberately broken variants of Algorithms
    1-4 and of the mutex, consensus and pcall objects.  Each mutant is
    the sound object, built by its own [make], with a few named line
    edits ({!Machine.Program.edit}) applied to its programs — skipped
    persists, responses that outrun their persist, dropped helping
    announcements, recovery conditions off by one.  The fuzzer's
    detection power is measured against this catalogue: every mutant
    must be caught within a pinned seed budget (see [lib/fuzz] and
    docs/fuzzing.md).

    Mutants keep their base object's type, cells, strictness and
    symmetry registration, so the unmodified NRL and Definition 1
    checkers judge them against the same specifications as the sound
    originals — and so symmetry-quotiented exploration can be pinned
    against unquotiented ground truth on every mutant (the edits drop,
    reorder or replace lines without introducing pid-dependence). *)

type mutant = {
  m_name : string;  (** zoo-wide unique, usable as a scenario kind *)
  m_algo : string;
      (** base algorithm's scenario kind: ["register"], ["cas"], ["tas"],
          ["counter"], ["mutex"], ["consensus"] or ["pcall"] — selects
          the sound object and the workload shape *)
  m_persist : bool;
      (** a persistency mutant: the sound algorithm's full explicit-persist
          annotations minus one flush (or with one misplaced fence).  Only
          detectable on an {!Nvm.Memory.Explicit} machine.  Its edits
          apply only where {!Machine.Sim.persist_annotations} holds;
          anywhere else the mutant is the sound object (see
          docs/memory-model.md). *)
  m_doc : string;  (** the mutation, and why it is unsound *)
  m_edits :
    annotated:bool -> Machine.Objdef.instance -> (string * Machine.Program.edit list) list;
      (** the mutation: line edits keyed by program name (["WRITE"],
          ["CAS.RECOVER"], ...), given whether the programs carry the
          explicit-persist annotations — a logic mutant's dropped or
          moved line takes its own flush along — and the built sound
          instance, from which an inserted instruction that needs a
          cell takes it *)
}

val all : mutant list
(** The full catalogue, in a stable order. *)

val find : string -> mutant option
(** Look a mutant up by {!field-m_name}. *)

val make : mutant -> Machine.Sim.t -> name:string -> Machine.Objdef.instance * Nvm.Memory.addr option
(** Build the sound object in [sim] and replace its programs, under
    the same instance id, by the edited ones.  For CAS-based
    mutants the second component is the address of the [C] cell (the
    workload generator computes CAS [old] arguments from it); [None]
    otherwise. *)
