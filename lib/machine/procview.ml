type frame = {
  ff_obj : int;
  ff_op : string;
  ff_recovery : bool;
  ff_pc : int;
  ff_li : int;
  ff_interrupted : bool;
  ff_env : (string * Nvm.Value.t) list;
  ff_env_junk : int option;
  ff_args : Nvm.Value.t array;
}

type proc = {
  pf_crashed : bool;
  pf_script : int;
  pf_results : (string * Nvm.Value.t) list;
  pf_stack : frame list;
}

let scrambled p = List.exists (fun f -> f.ff_env_junk <> None) p.pf_stack
