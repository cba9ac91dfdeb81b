(** Scenario descriptors: the fuzzer's genotype.

    A descriptor packs {e every} parameter a fuzzed run depends on — the
    object kind, process count, operation mix, crash schedule shape, junk
    strategy, and both seeds — into a flat record of small integers and
    names.  {!run} is a pure function of the descriptor, so its printed
    form ({!to_string}) is a complete, replayable reproducer
    ([nrlsim fuzz --replay]).  Probabilities are per-mille integers to
    keep the text form exact. *)

type t = {
  kind : string;  (** base scenario kind or zoo mutant name *)
  nprocs : int;
  ops : int;  (** per-process operation count (ignored by tas workloads) *)
  mix_pm : int;  (** mutating-op ratio (write/cas/inc/run), per mille *)
  scen_seed : int;  (** machine seed: junk generator + workload rng *)
  sched_seed : int;  (** random-schedule seed *)
  crash_pm : int;  (** per-process crash probability, per mille *)
  recover_pm : int;  (** recovery probability per consideration, per mille *)
  system_pm : int;  (** full-system crash probability, per mille *)
  max_crashes : int;
  max_steps : int;
  junk : string;  (** junk strategy name ({!Machine.Junk.strategy_names}) *)
}

val base_kinds : string list
(** The object-kind catalogue's names ({!Workload.Scenarios.catalogue}):
    ["register"; "cas"; "tas"; "counter"; "mutex"; "consensus"; "pcall"]. *)

val all_kinds : string list
(** {!base_kinds} plus every zoo mutant name ({!Objects.Zoo.all}). *)

val to_string : t -> string
(** Canonical one-line form, e.g.
    ["kind=cas,n=4,ops=7,mix=700,seed=123,sched=456,crash=80,rec=500,sys=0,maxc=5,steps=1200,junk=lure"].
    [of_string (to_string d) = Ok d]. *)

val of_string : string -> (t, string) result

val sample : rng:Machine.Schedule.Prng.t -> kinds:string list -> t
(** Draw a descriptor uniformly from the generator's ranges, restricted to
    the given kinds.  The ranges deliberately exceed the exhaustive
    explorer's envelope (2-5 processes, 2-10 ops, up to 10 crashes, every
    junk strategy).  @raise Invalid_argument on an empty or unknown kind
    list. *)

val build : t -> Machine.Sim.t -> unit
(** Allocate the descriptor's object and install its per-process scripts
    (the {!Workload.Trial.scenario} build function): the kind's catalogue
    row ({!Workload.Scenarios.install}) at ratio [mix_pm / 1000] and rng
    seed [scen_seed]. *)

val scenario : t -> Workload.Trial.scenario
(** The descriptor as a {!Workload.Trial.scenario} (name = {!to_string}). *)

type verdict = {
  v_outcome : Machine.Schedule.outcome;
  v_steps : int;
  v_violation : string option;
      (** an NRL counterexample or a Definition 1 (strictness) breach;
          [None] for a clean run *)
}

val judge : Machine.Sim.t -> string option
(** The fuzzer's violation predicate on a finished machine: the NRL
    verdict, or failing that a count of unpersisted strict responses. *)

val run : ?obs:Obs.Metrics.t -> ?collect:(int -> unit) -> t -> verdict
(** Execute the descriptor: build the machine, apply the junk strategy,
    drive the seeded random schedule to completion or [max_steps], then
    {!judge}.  [collect] receives the configuration fingerprint hash
    after every applied decision — the campaign's coverage signal —
    masked to 53 bits so corpus files round-trip it exactly even
    through readers that hold JSON numbers as doubles.
    Deterministic: equal descriptors yield equal verdicts and equal
    [collect] sequences. *)
