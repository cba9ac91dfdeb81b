(** Ready-made scenarios: one per algorithm of the paper, one per
    extension, and one per naive baseline; parameterised by process and
    operation counts.  Used by tests, experiments, examples and the
    CLI.

    Every named scenario is one row of the scenario table: its name, its
    object's instance name, its default process count, operation count
    and mutating-op ratio, and one function that builds the object and
    scripts every process from one rng.  Adding a scenario means adding a
    row; the CLI's scenario list, the fuzzer's kinds and the named views
    below all read the table. *)

module Prng = Machine.Schedule.Prng

(** {1 The scenario table} *)

type kind
(** One row: a scenario's name, its object's instance name, its default
    process count, operation count and mutating-op ratio, the function
    that builds the object, passes it through an edit hook and scripts
    every process from one rng ({!install}), and, for the catalogue
    kinds, a pid-erased symmetric script ({!install_symmetric}). *)

val catalogue : kind list
(** The fuzzable object kinds — register, cas, tas, counter, mutex,
    consensus, pcall, in this order.  A row here is drawn by the fuzzer
    ([Fuzz.Gen.base_kinds]), may be the base of a zoo mutant, and carries
    a symmetric script. *)

val others : kind list
(** The named scenarios the fuzzer does not draw, in [nrlsim list] order:
    elect, faa, stack, histogram, queue, max-register, mutex-pairs, then
    the naive baselines naive-rw-optimistic, naive-rw-reexec,
    naive-cas-optimistic, naive-cas-reexec and naive-tas. *)

val name : kind -> string
(** The row's scenario name, e.g. ["register"]. *)

val kind : string -> kind
(** The row of {!catalogue} or {!others} with this name.
    @raise Invalid_argument on other names. *)

val install :
  string ->
  Machine.Sim.t ->
  nprocs:int ->
  ops:int ->
  ratio:float ->
  rng_seed:int ->
  Machine.Objdef.instance
(** Build a row's object, or a zoo mutant named by {!Objects.Zoo.find},
    into the machine and script its processes.  A row gets its instance
    name; a mutant gets its base kind's row under the name ["Z"], edited
    by {!Objects.Zoo.mutate}.
    @raise Invalid_argument on other names. *)

val install_symmetric : string -> Machine.Sim.t -> nprocs:int -> Machine.Objdef.instance
(** Like {!install}, but every process runs the row's symmetric script:
    the same operations for every process up to pid renaming (a process's
    written values are tagged with its own pid), so the explorer's
    symmetry detector can apply wherever the object's recovery allows.
    @raise Invalid_argument on names without one (rows outside
    {!catalogue}). *)

val of_kind :
  kind -> ?nprocs:int -> ?ops:int -> ?ratio:float -> ?rng_seed:int -> unit -> Trial.scenario
(** The row's scenario, named ["<name>/n<N>/ops<K>"] (["<name>/n<N>"]
    when the workload ignores [ops]); the defaults are the row's, and
    rng seed 42. *)

val mutant : Objects.Zoo.mutant -> ?nprocs:int -> ?ops:int -> unit -> Trial.scenario
(** A zoo mutant's scenario: its base kind's workload at mix 0.6 and rng
    seed 1, instance ["Z"], named like {!of_kind}'s with the mutant's
    name for the kind. *)

(** {1 Named views}

    One-line views of the table's rows ({!of_kind} of {!kind}), with the
    ratio under its workload's own name. *)

val register :
  ?nprocs:int -> ?ops:int -> ?write_ratio:float -> ?rng_seed:int -> unit -> Trial.scenario
(** Algorithm 1 under a READ/WRITE mix. *)

val cas :
  ?nprocs:int -> ?ops:int -> ?cas_ratio:float -> ?rng_seed:int -> unit -> Trial.scenario
(** Algorithm 2 under a CAS/READ mix. *)

val tas : ?nprocs:int -> unit -> Trial.scenario
(** Algorithm 3: one T&S per process. *)

val counter :
  ?nprocs:int -> ?ops:int -> ?inc_ratio:float -> ?rng_seed:int -> unit -> Trial.scenario
(** Algorithm 4 under an INC/READ mix. *)

val elect : ?nprocs:int -> unit -> Trial.scenario
(** The Elect extension: one ELECT per process. *)

val faa :
  ?nprocs:int -> ?ops:int -> ?faa_ratio:float -> ?rng_seed:int -> unit -> Trial.scenario
(** The nested-FAA extension under an FAA/READ mix (deltas in 1..3). *)

val histogram : ?nprocs:int -> ?ops:int -> ?rng_seed:int -> unit -> Trial.scenario
(** The three-level histogram (3 buckets) under a RECORD/BUCKET/TOTAL
    mix. *)

val stack :
  ?nprocs:int -> ?ops:int -> ?rng_seed:int -> unit -> Trial.scenario
(** The recoverable-stack extension under a PUSH/POP/PEEK mix. *)

val queue :
  ?nprocs:int -> ?ops:int -> ?rng_seed:int -> unit -> Trial.scenario
(** The recoverable-queue extension under an ENQ/DEQ/FRONT mix. *)

val max_register :
  ?nprocs:int -> ?ops:int -> ?rng_seed:int -> unit -> Trial.scenario
(** The recoverable max-register under a WRITE_MAX/READ mix. *)

val mutex : ?nprocs:int -> ?ops:int -> ?rng_seed:int -> unit -> Trial.scenario
(** The recoverable abortable mutex under an ACQUIRE/RELEASE
    alternation. *)

val mutex_pairs : ?nprocs:int -> unit -> Trial.scenario
(** One deterministic ACQUIRE/RELEASE pair per process (for exhaustive
    exploration). *)

val consensus : ?nprocs:int -> ?ops:int -> unit -> Trial.scenario
(** Recoverable consensus: each process proposes its own tagged
    value. *)

val pcall : ?nprocs:int -> ?ops:int -> ?run_ratio:float -> ?rng_seed:int -> unit -> Trial.scenario
(** The persistent-call-stack demonstrator under a RUN/READ mix. *)

val naive_rw :
  strategy:[ `Optimistic | `Reexecute ] ->
  ?nprocs:int -> ?ops:int -> ?write_ratio:float -> ?rng_seed:int -> unit -> Trial.scenario

val naive_cas :
  strategy:[ `Optimistic | `Reexecute ] ->
  ?nprocs:int -> ?ops:int -> ?cas_ratio:float -> ?rng_seed:int -> unit -> Trial.scenario

val naive_tas : ?nprocs:int -> unit -> Trial.scenario

val all_paper : ?nprocs:int -> unit -> Trial.scenario list
(** The four scenarios covering the paper's Algorithms 1-4. *)
