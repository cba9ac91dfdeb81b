(** Executable demonstration of Theorem 4: no recoverable non-resettable
    TAS from read/write and (non-recoverable) non-resettable TAS base
    objects can make both the [T&S] operation and [T&S.RECOVER] wait-free.

    For a given implementation (the paper's Algorithm 3 or one of the
    wait-free-recovery {!Candidates}), the analysis reproduces the proof's
    structure on a two-process instance:

    + the initial configuration is {e bivalent};
    + following the bivalence-preserving extension, a {e critical}
      configuration is reached, at which both processes' pending steps are
      applications of [t&s] to the {e same} base object;
    + extending the critical configuration by the two t&s steps in either
      order and then crashing the first process yields configurations that
      are {e indistinguishable} to it, so a wait-free recovery returns the
      same value after both — one of which is wrong;
    + a bounded exhaustive search over schedules with one crash either
      finds a concrete NRL-violating execution (wait-free candidates) or
      finds none and instead detects that recovery {e blocks} (the paper's
      algorithm). *)

type crash_extension = {
  ret_after_pq : Nvm.Value.t option;
      (** p's response after [p.t&s; q.t&s; crash p; p solo], [None] if p
          never completed (blocked) *)
  ret_after_qp : Nvm.Value.t option;  (** same for [q.t&s; p.t&s; crash p; p solo] *)
  solo_blocked : bool;  (** p's solo recovery failed to complete within the bound *)
  indistinguishable : bool;
      (** both orders produced the same response — the proof's key step *)
}

type report = {
  algorithm : string;
  recovery_wait_free : bool;  (** claimed property of the implementation *)
  initial_bivalent : bool;
  configs_explored : int;
  back_edges : int;  (** crash-free cycles met by the valency engine *)
  critical_depth : int option;
  critical_steps_are_tas_on_same_object : bool option;
  crash_extension : crash_extension option;
  violation : string option;  (** a concrete NRL-violating schedule, if any *)
  explored_terminals : int;
  explored_truncated : int;
}

(** Fresh two-process instance of [maker], both processes scripted to
    perform a single T&S. *)
let setup maker =
  let sim = Machine.Sim.create ~nprocs:2 () in
  let inst = maker sim ~name:"T" in
  for p = 0 to 1 do
    Machine.Sim.set_script sim p [ (inst, "T&S", Machine.Sim.Args [||]) ]
  done;
  sim

(* Advance [p] until it is about to execute its pending t&s (kind "t&s"),
   then execute that one step.  Returns false if p never reaches a t&s. *)
let step_through_tas sim p ~bound =
  let rec go n =
    if n > bound then false
    else
      match Valency.pending_step sim p with
      | Some { Valency.ps_kind = "t&s"; _ } ->
        Machine.Sim.step sim p;
        true
      | _ ->
        if Machine.Sim.enabled sim p then begin
          Machine.Sim.step sim p;
          go (n + 1)
        end
        else false
  in
  go 0

let crash_experiment critical_sim =
  let run order =
    let s = Machine.Sim.clone critical_sim in
    let first, second = order in
    (* both processes are poised at their critical t&s steps *)
    let ok1 = step_through_tas s first ~bound:4 in
    let ok2 = step_through_tas s second ~bound:4 in
    if not (ok1 && ok2) then None
    else begin
      Machine.Sim.crash s 0;
      Machine.Sim.recover s 0;
      Some (Valency.solo_run s 0)
    end
  in
  let ret_pq = run (0, 1) in
  let ret_qp = run (1, 0) in
  let flat = function Some (Some v) -> Some v | _ -> None in
  let a = flat ret_pq and b = flat ret_qp in
  {
    ret_after_pq = a;
    ret_after_qp = b;
    solo_blocked = (a = None || b = None);
    indistinguishable =
      (match a, b with Some x, Some y -> Nvm.Value.equal x y | None, None -> true | _ -> false);
  }

(* The outcome mask: processes whose T&S returned 0. *)
let returned_zero sim =
  let m = ref 0 in
  for p = 0 to Machine.Sim.nprocs sim - 1 do
    if List.exists (fun (_, v) -> Nvm.Value.equal v (Nvm.Value.Int 0)) (Machine.Sim.results sim p)
    then m := !m lor (1 lsl p)
  done;
  !m

(** Analyse one implementation.  [recovery_wait_free] documents the claimed
    property (true for the candidates, false for Algorithm 3). *)
let analyze ?(exhaustive = true) ~name ~recovery_wait_free maker =
  let a = Valency.analyze ~outcome:returned_zero ~kind:"t&s" ~exhaustive (setup maker) in
  {
    algorithm = name;
    recovery_wait_free;
    initial_bivalent = a.Valency.initial_bivalent;
    configs_explored = a.Valency.configs_explored;
    back_edges = a.Valency.back_edges;
    critical_depth = Option.map (fun c -> c.Valency.depth) a.Valency.critical;
    critical_steps_are_tas_on_same_object = a.Valency.critical_steps_same;
    crash_extension =
      Option.map (fun c -> crash_experiment c.Valency.sim) a.Valency.critical;
    violation = a.Valency.violation;
    explored_terminals = a.Valency.explored.Machine.Explore.terminals;
    explored_truncated = a.Valency.explored.Machine.Explore.truncated;
  }

(** Algorithm 3 has busy-waiting recovery, so the exhaustive schedule
    search does not terminate usefully (spin loops unroll without bound);
    its NRL conformance is established by the randomized torture suite and
    by bounded exploration with immediate recovery instead.  The valency
    analysis, the critical configuration and the blocking demonstration
    below are the interesting part. *)
let analyze_paper_algorithm ?(exhaustive = false) () =
  analyze ~exhaustive ~name:"Algorithm 3 (paper)" ~recovery_wait_free:false
    (fun sim ~name -> Objects.Tas_obj.make sim ~name)

let analyze_candidate (c : Candidates.candidate) =
  analyze ~name:("candidate " ^ c.Candidates.cand_name) ~recovery_wait_free:true
    c.Candidates.make

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%s:@," r.algorithm;
  Fmt.pf ppf "  recovery claimed wait-free: %b@," r.recovery_wait_free;
  Fmt.pf ppf "  initial configuration bivalent: %b@," r.initial_bivalent;
  Fmt.pf ppf "  crash-free configurations explored: %d@," r.configs_explored;
  (match r.critical_depth with
  | Some d -> Fmt.pf ppf "  critical configuration found at depth %d@," d
  | None -> Fmt.pf ppf "  no critical configuration found@,");
  (match r.critical_steps_are_tas_on_same_object with
  | Some b -> Fmt.pf ppf "  critical steps are t&s on the same base object: %b@," b
  | None -> ());
  (match r.crash_extension with
  | Some e ->
    Fmt.pf ppf "  crash extension: p's solo recovery after (p;q;crash) -> %a, after (q;p;crash) -> %a@,"
      Fmt.(option ~none:(any "blocked") Nvm.Value.pp)
      e.ret_after_pq
      Fmt.(option ~none:(any "blocked") Nvm.Value.pp)
      e.ret_after_qp;
    Fmt.pf ppf "  indistinguishable to p: %b; recovery blocked: %b@," e.indistinguishable
      e.solo_blocked
  | None -> ());
  (match r.violation with
  | Some reason -> Fmt.pf ppf "  NRL violation found: %s@," reason
  | None ->
    Fmt.pf ppf "  no NRL violation in bounded search (%d terminals, %d truncated)@,"
      r.explored_terminals r.explored_truncated);
  Fmt.pf ppf "@]"
