(** Recoverable object definitions and the instance registry.

    A recoverable object is an object all of whose operations are
    recoverable: each operation [Op] comes with a program for its body and a
    program for its recovery function [Op.Recover], which the system invokes
    (with [Op]'s original arguments and access to [LI_p]) when [Op] is the
    crashed operation of a resurrected process.

    Instances capture the persistent cells they allocated inside their
    programs' closures, so one definition can be instantiated many times in
    the same memory. *)

type op_def = {
  op_name : string;
  body : Program.t;
  recover : Program.t;
}

type sym_spec = {
  body_oblivious : bool;
  recover_oblivious : bool;
  pid_arrays : Nvm.Memory.addr list;
  pid_matrices : Nvm.Memory.addr list;
}

type instance = {
  id : int;
  otype : string;
      (** the sequential type of the object ("rw", "cas", "tas", "counter",
          ...), used to select a sequential specification when checking *)
  obj_name : string;
  ops : (string * op_def) list;
  init_value : Nvm.Value.t;
      (** the object's initial abstract value, needed to instantiate its
          sequential specification when checking *)
  strict_cells : (string * Nvm.Memory.addr array) list;
      (** for each {e strict} recoverable operation (Definition 1), the
          designated per-process persistent cells holding the response *)
  subobjects : instance list;
      (** recoverable base objects this instance was built from (e.g. the
          counter's array of recoverable read/write registers) *)
  sym : sym_spec option;
      (** process-symmetry declaration: how the object's persistent state
          transforms under a permutation of process ids (see
          {!Fingerprint.Symmetry}).  [None] means "not known to be
          oblivious" and disables symmetry reduction for scenarios using
          the object. *)
}

let find_op inst name =
  match List.assoc_opt name inst.ops with
  | Some d -> d
  | None ->
    invalid_arg
      (Printf.sprintf "object %s (%s) has no operation %s" inst.obj_name inst.otype name)

let opref inst op : History.Step.opref =
  { obj = inst.id; obj_name = inst.obj_name; op }

type registry = {
  mutable next_id : int;
  tbl : (int, instance) Hashtbl.t;
}

let create_registry () = { next_id = 0; tbl = Hashtbl.create 16 }

let register reg ~otype ~name ?(init_value = Nvm.Value.Null) ?(strict_cells = [])
    ?(subobjects = []) ?sym ops =
  let id = reg.next_id in
  reg.next_id <- id + 1;
  let inst = { id; otype; obj_name = name; ops; init_value; strict_cells; subobjects; sym } in
  Hashtbl.replace reg.tbl id inst;
  inst

let replace_ops reg inst ops =
  if not (Hashtbl.mem reg.tbl inst.id) then
    invalid_arg (Printf.sprintf "Objdef.replace_ops: unknown object instance %d" inst.id);
  let inst = { inst with ops } in
  Hashtbl.replace reg.tbl inst.id inst;
  inst

let find reg id =
  match Hashtbl.find_opt reg.tbl id with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "unknown object instance %d" id)

let instances reg =
  List.sort
    (fun a b -> Int.compare a.id b.id)
    (Hashtbl.fold (fun _ i acc -> i :: acc) reg.tbl [])
