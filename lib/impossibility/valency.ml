(** The valency engine shared by Theorem 4 and the recoverable-consensus
    analysis.

    A configuration's {e outcome mask} is a caller-supplied bitmask over
    processes: those that returned 0 (Theorem 4), or those whose proposal
    was decided (consensus).  A configuration is {e p-valent} if some
    crash-free execution from it reaches a configuration whose outcome
    mask contains [p]; {e bivalent} if p-valent for two distinct
    processes, and {e univalent} otherwise.  The engine enumerates every
    reachable crash-free configuration, memoised on its
    {!Machine.Fingerprint}, backtracking on one trailed machine with
    {!Machine.Sim.mark}/{!Machine.Sim.undo_to}. *)

module Sim = Machine.Sim
module Table = Machine.Fingerprint.Table

type entry = In_progress | Mask of int

type t = {
  outcome : Sim.t -> int;
  memo : entry Table.t;
  mutable configs : int;
  mutable back_edges : int;
}

let create ~outcome = { outcome; memo = Table.create 4096; configs = 0; back_edges = 0 }

(* A trailed private copy: the engine's only clone on entry. *)
let trailed sim =
  let s = Sim.clone sim in
  Sim.enable_trail s;
  s

(* [f ()] after [p]'s next step, with the step undone afterwards. *)
let after_step sim p f =
  let m = Sim.mark sim in
  Sim.step sim p;
  let r = f () in
  Sim.undo_to sim m;
  r

let enabled sim = List.filter (Sim.enabled sim) (List.init (Sim.nprocs sim) Fun.id)

(* Reachable outcome mask of the trailed [sim]'s configuration.  A
   revisit of a configuration still on the DFS stack is a back edge
   (a crash-free cycle): it contributes nothing on this branch, so the
   masks memoised inside the cycle may under-approximate. *)
let rec reach t sim =
  let key = Machine.Fingerprint.of_sim sim in
  match Table.find_opt t.memo key with
  | Some (Mask m) -> m
  | Some In_progress ->
    t.back_edges <- t.back_edges + 1;
    0
  | None ->
    t.configs <- t.configs + 1;
    Table.replace t.memo key In_progress;
    let m =
      List.fold_left
        (fun m p -> m lor after_step sim p (fun () -> reach t sim))
        (t.outcome sim) (enabled sim)
    in
    Table.replace t.memo key (Mask m);
    m

let mask t sim = reach t (trailed sim)

type verdict = Bivalent of int list | Univalent of int | Zerovalent

let verdict_of_mask ~nprocs m =
  match List.filter (fun p -> m land (1 lsl p) <> 0) (List.init nprocs Fun.id) with
  | [] -> Zerovalent
  | [ p ] -> Univalent p
  | ps -> Bivalent ps

let classify t sim = verdict_of_mask ~nprocs:(Sim.nprocs sim) (mask t sim)

let pp_verdict ppf = function
  | Bivalent ps -> Fmt.pf ppf "bivalent {%a}" Fmt.(list ~sep:comma int) ps
  | Univalent p -> Fmt.pf ppf "p%d-valent" p
  | Zerovalent -> Fmt.string ppf "no outcome reachable"

(** Information about the next step each process would take, used to verify
    the critical-step claim of the proof (both processes must be about to
    apply the same primitive to the same base object). *)
type pending_step = {
  ps_pid : int;
  ps_kind : string;  (** "read" | "write" | "t&s" | "cas" | "local" | ... *)
  ps_addr : Nvm.Memory.addr option;
}

let pending_step sim p =
  let pr = Sim.proc sim p in
  match pr.Sim.stack with
  | [] -> None
  | f :: _ ->
    let prog = Sim.current_program f in
    if f.Sim.f_pc >= Machine.Program.length prog then None
    else
      let ctx = Sim.ctx_of sim f p in
      let env = f.Sim.f_env in
      let kind, addr =
        match Machine.Program.instr prog f.Sim.f_pc with
        | Machine.Program.Read (_, a) -> ("read", Some (a ctx env))
        | Machine.Program.Write (a, _) -> ("write", Some (a ctx env))
        | Machine.Program.Cas_prim (_, a, _, _) -> ("cas", Some (a ctx env))
        | Machine.Program.Tas_prim (_, a) -> ("t&s", Some (a ctx env))
        | Machine.Program.Faa_prim (_, a, _) -> ("faa", Some (a ctx env))
        | Machine.Program.Invoke _ -> ("invoke", None)
        | Machine.Program.Flush a -> ("flush", Some (a ctx env))
        | Machine.Program.Fence -> ("fence", None)
        | Machine.Program.Assign _ | Machine.Program.Branch_if _ | Machine.Program.Jump _
        | Machine.Program.Ret _ | Machine.Program.Resume _ ->
          ("local", None)
      in
      Some { ps_pid = p; ps_kind = kind; ps_addr = addr }

type critical = {
  sim : Sim.t;  (** the critical configuration *)
  depth : int;  (** steps from the initial configuration *)
  steps : pending_step list;  (** the processes' pending (critical) steps *)
}

let bivalent t sim =
  match verdict_of_mask ~nprocs:(Sim.nprocs sim) (reach t sim) with
  | Bivalent _ -> true
  | _ -> false

let max_depth = 500

(** Search for a {e critical} configuration: a bivalent configuration every
    enabled step of which leads to a univalent configuration.  Follows the
    proof: keep extending the trailed [sim], bivalent on entry, inside the
    bivalent region; because the operation is wait-free the region is
    finite and a critical configuration must exist.  A broken protocol
    can instead end in a terminal whose outcome mask is already bivalent
    (consensus disagreement: nothing enabled, [steps = []]).  Gives up
    past [max_depth] steps. *)
let find_critical t sim =
  let rec walk depth =
    if depth > max_depth then None
    else
      let ps = enabled sim in
      match List.find_opt (fun p -> after_step sim p (fun () -> bivalent t sim)) ps with
      | Some p ->
        Sim.step sim p;
        walk (depth + 1)
      | None ->
        Some { sim = Sim.clone sim; depth; steps = List.filter_map (pending_step sim) ps }
  in
  walk 0

let solo_bound = 300

(* Run [p] solo (including its recovery) for at most [solo_bound] steps
   or until it has completed its operation; its response, if completed. *)
let solo_run sim p =
  let steps = ref 0 in
  while
    !steps < solo_bound
    && Sim.results sim p = []
    && (Sim.enabled sim p || Sim.can_recover sim p)
  do
    if Sim.can_recover sim p then Sim.recover sim p else Sim.step sim p;
    incr steps
  done;
  match Sim.results sim p with (_, v) :: _ -> Some v | [] -> None

type analysis = {
  initial_bivalent : bool;
  configs_explored : int;
  back_edges : int;
  critical : critical option;
  critical_steps_same : bool option;
  violation : string option;
  explored : Machine.Explore.stats;
}

let analyze ~outcome ~kind ~exhaustive sim0 =
  let t = create ~outcome in
  let sim = trailed sim0 in
  let initial_bivalent = bivalent t sim in
  let critical = if initial_bivalent then find_critical t sim else None in
  let critical_steps_same =
    Option.map
      (fun c ->
        match c.steps with
        | [ a; b ] -> a.ps_kind = kind && b.ps_kind = kind && a.ps_addr = b.ps_addr
        | _ -> false)
      critical
  in
  (* bounded exhaustive search for an NRL violation with one crash of p0 *)
  let cfg =
    {
      Machine.Explore.default_config with
      max_steps = 120;
      max_crashes = 1;
      crash_procs = [ 0 ];
    }
  in
  let violation, explored =
    if exhaustive then
      Machine.Explore.find_violation ~cfg ~check:Workload.Check.nrl_violation sim0
    else (None, Machine.Explore.zero_stats ())
  in
  {
    initial_bivalent;
    configs_explored = t.configs;
    back_edges = t.back_edges;
    critical;
    critical_steps_same;
    violation = Option.map snd violation;
    explored;
  }
