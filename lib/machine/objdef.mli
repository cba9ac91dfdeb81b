(** Recoverable object definitions and the instance registry.

    A recoverable object is an object all of whose operations are
    recoverable: each operation comes with a program for its body and a
    program for its recovery function, which the system invokes (with the
    operation's original arguments and access to [LI_p]) when the
    operation is the crashed operation of a resurrected process. *)

type op_def = {
  op_name : string;
  body : Program.t;
  recover : Program.t;
}

type sym_spec = {
  body_oblivious : bool;
      (** every operation body is {e pid-oblivious}: the only use it makes
          of the executing process id is (a) indexing the declared
          [pid_arrays]/[pid_matrices] and (b) writing/comparing [Pid]
          {e values}.  Permuting process ids then commutes with every
          body step. *)
  recover_oblivious : bool;
      (** same property for every recovery program.  Objects whose
          recovery scans process slots in a fixed index order (e.g. the
          TAS recovery of Algorithm 3, lines 25–28) are {b not} recovery
          oblivious: the scan order breaks the commutation. *)
  pid_arrays : Nvm.Memory.addr list;
      (** base addresses of per-process arrays: cell [base + p] belongs to
          process [p] and moves to [base + π(p)] under a permutation π. *)
  pid_matrices : Nvm.Memory.addr list;
      (** base addresses of row-major [n × n] process matrices: cell
          [base + q*n + p] moves to [base + π(q)*n + π(p)]. *)
}
(** Declaration that an object's persistent footprint transforms
    predictably under a permutation of process ids — the per-object
    soundness obligation of symmetry reduction ({!Fingerprint.Symmetry}).
    Cells not covered by [pid_arrays]/[pid_matrices] may hold [Pid]
    values (which are renamed) but must not be {e located} by pid. *)

type instance = {
  id : int;
  otype : string;
      (** sequential type tag ("rw", "cas", "tas", "counter", ...) used to
          select a specification when checking *)
  obj_name : string;
  ops : (string * op_def) list;
  init_value : Nvm.Value.t;
      (** the object's initial abstract value, used to instantiate its
          sequential specification *)
  strict_cells : (string * Nvm.Memory.addr array) list;
      (** for each {e strict} operation (Definition 1), the designated
          per-process persistent cells holding the response — possibly
          tagged as [<seq, ret>] *)
  subobjects : instance list;
      (** recoverable base objects this instance was built from *)
  sym : sym_spec option;
      (** process-symmetry declaration; [None] disables symmetry
          reduction for scenarios using this object *)
}

val find_op : instance -> string -> op_def
(** @raise Invalid_argument on an unknown operation name. *)

val opref : instance -> string -> History.Step.opref

type registry

val create_registry : unit -> registry

val register :
  registry ->
  otype:string ->
  name:string ->
  ?init_value:Nvm.Value.t ->
  ?strict_cells:(string * Nvm.Memory.addr array) list ->
  ?subobjects:instance list ->
  ?sym:sym_spec ->
  (string * op_def) list ->
  instance
(** Allocate a fresh instance id and record the instance. *)

val replace_ops : registry -> instance -> (string * op_def) list -> instance
(** [replace_ops reg inst ops] records [inst] with [ops] in place of its
    operations, under its existing id — nested [Invoke]s resolve through
    the registry, so they reach the new programs.  Returns the updated
    instance.
    @raise Invalid_argument if [inst] is not registered in [reg]. *)

val find : registry -> int -> instance
(** @raise Invalid_argument on an unknown instance id. *)

val instances : registry -> instance list
(** All registered instances, sorted by id. *)
