(** Ready-made scenarios: one per algorithm of the paper, one per
    extension, and one per naive baseline; parameterised by process and
    operation counts.  Used by tests, experiments, examples and the
    CLI. *)

module Prng = Machine.Schedule.Prng

(** {1 The object-kind catalogue}

    One row per fuzzable base kind: everything the scenarios, the
    fuzzer ([Fuzz.Gen]), the bug zoo's mutant scenarios and the CLI know
    about a kind.  Adding a kind means adding a row. *)

type kind
(** One row: a kind's name, its object's instance name, its default
    process count, operation count and mutating-op ratio, and one
    function that builds the object, passes it through an edit hook,
    and scripts every process from one rng ({!install}). *)

val catalogue : kind list
(** register, cas, tas, counter, mutex, consensus, pcall — in this order. *)

val name : kind -> string
(** The kind's scenario name, e.g. ["register"]. *)

val install :
  string ->
  Machine.Sim.t ->
  nprocs:int ->
  ops:int ->
  ratio:float ->
  rng_seed:int ->
  Machine.Objdef.instance
(** Build a catalogue kind, or a zoo mutant named by {!Objects.Zoo.find},
    into the machine and script its processes.  A base kind gets its
    row's instance name; a mutant gets its base kind's row under the
    name ["Z"], edited by {!Objects.Zoo.mutate}.
    @raise Invalid_argument on other names. *)

val of_kind :
  kind -> ?nprocs:int -> ?ops:int -> ?ratio:float -> ?rng_seed:int -> unit -> Trial.scenario
(** The kind's scenario, named ["<kind>/n<N>/ops<K>"] (["<kind>/n<N>"]
    when the workload ignores [ops]); the defaults are the row's, and
    rng seed 42. *)

val mutant : Objects.Zoo.mutant -> ?nprocs:int -> ?ops:int -> unit -> Trial.scenario
(** A zoo mutant's scenario: its base kind's workload at mix 0.6 and rng
    seed 1, instance ["Z"], named like {!of_kind}'s with the mutant's
    name for the kind. *)

(** {1 Named scenarios}

    The catalogue kinds' scenarios under their workload's own ratio
    name, then the scenarios the fuzzer does not draw. *)

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

val elect : ?nprocs:int -> ?k:int -> unit -> Trial.scenario
(** The Elect extension: one ELECT per process. *)

val faa :
  ?nprocs:int -> ?ops:int -> ?faa_ratio:float -> ?rng_seed:int -> unit -> Trial.scenario
(** The nested-FAA extension under an FAA/READ mix (deltas in 1..3). *)

val histogram :
  ?nprocs:int -> ?ops:int -> ?k:int -> ?rng_seed:int -> unit -> Trial.scenario
(** The three-level histogram under a RECORD/BUCKET/TOTAL mix. *)

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
