(** Glue between the machine and the checkers: look up sequential
    specifications from the machine's object registry and run the NRL
    condition on a simulation's history. *)

let spec_for sim o =
  let inst = Machine.Objdef.find (Machine.Sim.registry sim) o in
  Linearize.Spec.of_otype ~init:inst.Machine.Objdef.init_value inst.Machine.Objdef.otype

(** Check the full NRL condition (Definition 4) on [sim]'s history.
    Counts land in the machine's attached metric registry, if any
    ({!Machine.Sim.set_obs}) — under the parallel explorer each worker's
    machine points at that worker's registry, so attribution follows the
    machine automatically. *)
let nrl sim =
  Linearize.Nrl.check ?obs:(Machine.Sim.obs sim) ~spec_for:(spec_for sim)
    ~nprocs:(Machine.Sim.nprocs sim) (Machine.Sim.history sim)

(** [None] if the history satisfies NRL, [Some reason] otherwise. *)
let nrl_violation sim =
  let r = nrl sim in
  if Linearize.Nrl.ok r then None else Some (Linearize.Nrl.explain r)

(** Check durable linearizability on [sim]'s history: linearizability of
    [N(H)] with no recoverable well-formedness gate (see
    {!Linearize.Durable}).  NRL = recoverable well-formedness ∧ this. *)
let durable sim =
  Linearize.Durable.check ?obs:(Machine.Sim.obs sim) ~spec_for:(spec_for sim)
    ~nprocs:(Machine.Sim.nprocs sim) (Machine.Sim.history sim)

(** [None] if the history is durably linearizable, [Some reason]
    otherwise. *)
let durable_violation sim =
  let r = durable sim in
  if Linearize.Durable.ok r then None else Some (Linearize.Durable.explain r)

(** Strictness violations (Definition 1) recorded in [sim]'s history. *)
let strictness_violations sim =
  Linearize.Nrl.strictness_violations (Machine.Sim.history sim)

(** A path checker for {!Machine.Explore.find_violation}'s
    [`Incremental] mode: threads {!Linearize.Nrl.Incremental} state down
    the DFS, feeding it exactly the history suffix each decision
    appended ({!Machine.Sim.history_length} tells the automaton where
    the suffix starts).  The automaton state is persistent, so sibling
    branches share every prefix's work. *)
let nrl_incremental () =
  Machine.Explore.Path
    {
      init =
        (fun sim ->
          let st =
            Linearize.Nrl.Incremental.create ~spec_for:(spec_for sim)
              ~nprocs:(Machine.Sim.nprocs sim)
          in
          Linearize.Nrl.Incremental.steps ?obs:(Machine.Sim.obs sim) st
            (Machine.Sim.history_suffix sim 0));
      step =
        (fun st sim ->
          Linearize.Nrl.Incremental.steps ?obs:(Machine.Sim.obs sim) st
            (Machine.Sim.history_suffix sim (Linearize.Nrl.Incremental.consumed st)));
      terminal = (fun st _sim -> Linearize.Nrl.Incremental.violation st);
    }
