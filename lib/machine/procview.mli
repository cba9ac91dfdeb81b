(** A process's control state as a configuration fingerprint compares
    it: immutable, with no history bookkeeping.  {!Sim.proc_view} builds
    one from a live process; the machine keeps it with the process's key
    segment ({!Sim.key_segment}), and [Fingerprint] encodes, prints and
    permutes it. *)

type frame = {
  ff_obj : int;  (** instance id *)
  ff_op : string;
  ff_recovery : bool;
  ff_pc : int;
  ff_li : int;
  ff_interrupted : bool;
  ff_env : (string * Nvm.Value.t) list;  (** sorted bindings *)
  ff_env_junk : int option;  (** post-crash mode + its stream state *)
  ff_args : Nvm.Value.t array;
}

type proc = {
  pf_crashed : bool;
  pf_script : int;  (** remaining script length *)
  pf_results : (string * Nvm.Value.t) list;
  pf_stack : frame list;  (** inner-most first *)
}

val scrambled : proc -> bool
(** Some frame's environment is scrambled, so the view embeds the junk
    generator's state. *)
