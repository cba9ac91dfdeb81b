(** Recoverable-consensus solvability on the valency explorer: the
    Herlihy-hierarchy contrast that motivates Golab's algorithm.

    Read/write registers have consensus number 1, so {e no} wait-free
    two-process consensus — recoverable or not — can be built from them;
    CAS has consensus number [∞], and {!Objects.Consensus_obj} shows the
    recoverable, crash-tolerant decide inherits that power.  The
    analysis makes both halves executable on a two-process instance:

    + {e valency}: a configuration is [p]-valent if some crash-free
      execution from it decides [p]'s proposal; the initial
      configuration must be bivalent for any non-trivial protocol;
    + {e critical configuration}: walking inside the bivalent region
      ends at a configuration whose every enabled step is univalent —
      for the CAS-based algorithm both pending steps are [cas] on the
      {e same} cell (the step that Herlihy's argument says cannot be a
      read or a write); for the read/write candidates the walk instead
      degenerates into a terminal where the two processes have already
      {e disagreed} (both proposals decided);
    + {e crash extension}: from the critical configuration, run both
      critical steps, crash process 0, recover, and run both processes
      to completion — the recoverable CAS decide re-derives the fixed
      decision from [C], so agreement survives where a volatile-response
      protocol would fork;
    + a bounded exhaustive search over schedules with one crash exhibits
      a concrete NRL (agreement/validity) violation for every read/write
      candidate, and none for the CAS-based algorithm. *)

open Machine.Program

(** [p]'s fixed proposal in the two-process analysis instance. *)
let proposal p = Nvm.Value.Pair (Nvm.Value.Pid p, Nvm.Value.Int 1)

(** Fresh two-process instance of [maker], each process scripted to
    DECIDE its own tagged proposal. *)
let setup maker =
  let sim = Machine.Sim.create ~nprocs:2 () in
  let inst = maker sim ~name:"CNS" in
  for p = 0 to 1 do
    Machine.Sim.set_script sim p
      [ (inst, "DECIDE", Machine.Sim.Args [| Nvm.Value.Int 1; proposal p |]) ]
  done;
  sim

(* The outcome mask: proposals already returned by completed DECIDEs. *)
let decided_mask sim =
  let n = Machine.Sim.nprocs sim in
  let m = ref 0 in
  for p = 0 to n - 1 do
    List.iter
      (fun (_, v) ->
        for q = 0 to n - 1 do
          if Nvm.Value.equal v (proposal q) then m := !m lor (1 lsl q)
        done)
      (Machine.Sim.results sim p)
  done;
  !m

type crash_extension = {
  decision_p : Nvm.Value.t option;  (** p0's decision after the crash, [None] if blocked *)
  decision_q : Nvm.Value.t option;
  agreement : bool;  (** both completed and decided the same value *)
}

(* From the critical configuration: both critical steps, crash p0,
   recover, run both to completion. *)
let crash_experiment critical_sim =
  let s = Machine.Sim.clone critical_sim in
  if not (Machine.Sim.enabled s 0 && Machine.Sim.enabled s 1) then None
  else begin
    Machine.Sim.step s 0;
    Machine.Sim.step s 1;
    Machine.Sim.crash s 0;
    Machine.Sim.recover s 0;
    let d0 = Valency.solo_run s 0 in
    let d1 = Valency.solo_run s 1 in
    Some
      {
        decision_p = d0;
        decision_q = d1;
        agreement =
          (match d0, d1 with Some a, Some b -> Nvm.Value.equal a b | _ -> false);
      }
  end

(* {1 Candidate protocols} *)

let op name body recover = (name, { Machine.Objdef.op_name = name; body; recover })

(** Candidate "rw-first": write own proposal, read the peer's slot;
    decide own if the peer is absent, the smaller pid's otherwise, with
    re-executing recovery.  Fails when the later process saw the earlier
    one: [q] solo decides its own proposal, then [p] arrives, sees both,
    and the min-pid rule picks [p]'s — disagreement. *)
let rw_first sim ~name =
  let mem = Machine.Sim.mem sim in
  let nprocs = Machine.Sim.nprocs sim in
  let d = Nvm.Memory.alloc_array ~name:(name ^ ".D") mem nprocs Nvm.Value.Null in
  let peer : int exp = fun ctx _ -> 1 - ctx.pid in
  let body =
    make ~name:"DECIDE"
      [
        (2, Write (my_slot d, arg 1));
        (3, Read ("o", slot d peer));
        (4, Branch_if (is_null (local "o"), 6));
        ( 5,
          Ret
            (fun ctx env ->
              if ctx.pid = 0 then arg 1 ctx env else Machine.Env.get env "o") );
        (6, Ret (arg 1));
      ]
  in
  let recover = make ~name:"DECIDE.RECOVER" [ (8, Resume 2) ] in
  Machine.Objdef.register (Machine.Sim.registry sim) ~otype:"consensus" ~name
    [ op "DECIDE" body recover ]

(** Candidate "rw-turn": write own proposal, race on a turn register,
    decide the proposal of whoever the turn names.  Fails because the
    turn register is overwritten: [p] reads its own turn and decides its
    proposal; [q] later overwrites the turn and decides its own. *)
let rw_turn sim ~name =
  let mem = Machine.Sim.mem sim in
  let nprocs = Machine.Sim.nprocs sim in
  let d = Nvm.Memory.alloc_array ~name:(name ^ ".D") mem nprocs Nvm.Value.Null in
  let turn = Nvm.Memory.alloc ~name:(name ^ ".Turn") mem Nvm.Value.Null in
  let turn_slot : int exp =
   fun _ env -> Nvm.Value.as_pid (Machine.Env.get env "t")
  in
  let body =
    make ~name:"DECIDE"
      [
        (2, Write (my_slot d, arg 1));
        (3, Write (at turn, self));
        (4, Read ("t", at turn));
        (5, Read ("w", slot d turn_slot));
        (6, Ret (local "w"));
      ]
  in
  let recover = make ~name:"DECIDE.RECOVER" [ (8, Resume 2) ] in
  Machine.Objdef.register (Machine.Sim.registry sim) ~otype:"consensus" ~name
    [ op "DECIDE" body recover ]

let candidates =
  [
    { Candidates.cand_name = "rw-first"; make = (fun sim ~name -> rw_first sim ~name) };
    { cand_name = "rw-turn"; make = (fun sim ~name -> rw_turn sim ~name) };
  ]

(* {1 The analysis} *)

type report = {
  algorithm : string;
  base_objects : string;  (** "read/write" or "cas" *)
  initial_bivalent : bool;
  configs_explored : int;
  back_edges : int;  (** crash-free cycles met by the valency engine *)
  critical_depth : int option;
  critical_steps_are_cas_on_same_object : bool option;
  crash_extension : crash_extension option;
  violation : string option;  (** a concrete agreement/validity breach, if any *)
  explored_terminals : int;
  explored_truncated : int;
}

let analyze ~name ~base_objects maker =
  let a = Valency.analyze ~outcome:decided_mask ~kind:"cas" ~exhaustive:true (setup maker) in
  {
    algorithm = name;
    base_objects;
    initial_bivalent = a.Valency.initial_bivalent;
    configs_explored = a.Valency.configs_explored;
    back_edges = a.Valency.back_edges;
    critical_depth = Option.map (fun c -> c.Valency.depth) a.Valency.critical;
    critical_steps_are_cas_on_same_object = a.Valency.critical_steps_same;
    crash_extension =
      Option.bind a.Valency.critical (fun c -> crash_experiment c.Valency.sim);
    violation = a.Valency.violation;
    explored_terminals = a.Valency.explored.Machine.Explore.terminals;
    explored_truncated = a.Valency.explored.Machine.Explore.truncated;
  }

let analyze_golab () =
  analyze ~name:"Golab CAS decide (Consensus_obj)" ~base_objects:"cas"
    (fun sim ~name -> Objects.Consensus_obj.make sim ~name)

let analyze_candidate (c : Candidates.candidate) =
  analyze ~name:("candidate " ^ c.Candidates.cand_name) ~base_objects:"read/write"
    c.Candidates.make

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%s (base objects: %s):@," r.algorithm r.base_objects;
  Fmt.pf ppf "  initial configuration bivalent: %b@," r.initial_bivalent;
  Fmt.pf ppf "  crash-free configurations explored: %d@," r.configs_explored;
  (match r.critical_depth with
  | Some d -> Fmt.pf ppf "  critical configuration found at depth %d@," d
  | None -> Fmt.pf ppf "  no critical configuration found@,");
  (match r.critical_steps_are_cas_on_same_object with
  | Some b -> Fmt.pf ppf "  critical steps are cas on the same base object: %b@," b
  | None -> ());
  (match r.crash_extension with
  | Some e ->
    Fmt.pf ppf "  crash extension: p0 -> %a, p1 -> %a, agreement: %b@,"
      Fmt.(option ~none:(any "blocked") Nvm.Value.pp)
      e.decision_p
      Fmt.(option ~none:(any "blocked") Nvm.Value.pp)
      e.decision_q e.agreement
  | None -> ());
  (match r.violation with
  | Some reason -> Fmt.pf ppf "  NRL violation found: %s@," reason
  | None ->
    Fmt.pf ppf "  no NRL violation in bounded search (%d terminals, %d truncated)@,"
      r.explored_terminals r.explored_truncated);
  Fmt.pf ppf "@]"
