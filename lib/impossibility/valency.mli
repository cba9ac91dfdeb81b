(** The valency engine shared by Theorem 4 ({!Theorem}) and the
    recoverable-consensus analysis ({!Consensus}).

    A configuration's {e outcome mask} is supplied by the caller: the
    processes that returned 0 (Theorem 4) or whose proposal was decided
    (consensus).  A configuration is {e p-valent} if some crash-free
    execution from it reaches an outcome mask containing [p];
    {e bivalent} if p-valent for two distinct processes.  The engine
    enumerates reachable crash-free configurations with memoisation,
    backtracking on one trailed copy of the machine. *)

type entry
(** A memo entry: a finished mask, or "in progress" (on the DFS stack). *)

type t = {
  outcome : Machine.Sim.t -> int;  (** the per-configuration base mask *)
  memo : entry Machine.Fingerprint.Table.t;
  mutable configs : int;  (** distinct configurations explored *)
  mutable back_edges : int;
      (** revisits of in-progress configurations (crash-free cycles).
          Nonzero means the memoised masks may under-approximate. *)
}

val create : outcome:(Machine.Sim.t -> int) -> t

val mask : t -> Machine.Sim.t -> int
(** Bitmask of processes [p] such that some crash-free execution from
    this configuration reaches an outcome mask containing [p]. *)

type verdict = Bivalent of int list | Univalent of int | Zerovalent

val classify : t -> Machine.Sim.t -> verdict
val pp_verdict : verdict Fmt.t

(** The next step a process would take, used to verify the proof's
    critical-step claim. *)
type pending_step = {
  ps_pid : int;
  ps_kind : string;  (** "read" | "write" | "t&s" | "cas" | "faa" | "invoke" | "local" *)
  ps_addr : Nvm.Memory.addr option;
}

val pending_step : Machine.Sim.t -> int -> pending_step option

(** A critical configuration: bivalent, and every enabled step leads to
    a univalent one.  A broken consensus protocol can instead end in a
    terminal where both proposals were already decided ([steps = []]). *)
type critical = {
  sim : Machine.Sim.t;  (** the critical configuration *)
  depth : int;  (** steps from the initial configuration *)
  steps : pending_step list;  (** the processes' pending (critical) steps *)
}

val solo_run : Machine.Sim.t -> int -> Nvm.Value.t option
(** Run a process solo, recovering it when crashed, for at most 300
    steps or until its operation completes; its response, if any. *)

(** The analysis skeleton both reports are built from. *)
type analysis = {
  initial_bivalent : bool;
  configs_explored : int;
  back_edges : int;
  critical : critical option;
      (** the end of the walk inside the bivalent region *)
  critical_steps_same : bool option;
      (** both critical steps are [kind] on one base object *)
  violation : string option;  (** from the one-crash bounded search *)
  explored : Machine.Explore.stats;
}

val analyze :
  outcome:(Machine.Sim.t -> int) ->
  kind:string ->
  exhaustive:bool ->
  Machine.Sim.t ->
  analysis
(** Initial bivalence, the critical walk, the critical-step check for
    [kind], and (if [exhaustive]) a search for an NRL violation over
    schedules of at most 120 steps where process 0 crashes once
    mid-operation. *)
