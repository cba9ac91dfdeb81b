(** Recoverable-consensus solvability on the valency explorer.

    Read/write registers have consensus number 1; CAS has [∞].  The
    analysis makes the contrast executable on a two-process instance:
    the CAS-based recoverable decide ({!Objects.Consensus_obj}) is
    bivalent initially, reaches a critical configuration whose pending
    steps are both [cas] on the same cell, keeps agreement through a
    crash at the critical configuration, and survives a bounded
    exhaustive schedule search; every read/write candidate with
    wait-free (re-executing) recovery is refuted by a concrete
    agreement violation. *)

val proposal : int -> Nvm.Value.t
(** [p]'s fixed proposal in the analysis instance (tagged [<p, 1>]). *)

val setup : (Machine.Sim.t -> name:string -> Machine.Objdef.instance) -> Machine.Sim.t
(** Two processes, each scripted to DECIDE its own proposal. *)

(** {1 Candidates and the analysis} *)

val candidates : Candidates.candidate list
(** Read/write-only candidates with wait-free recovery, each refuted by
    a concrete agreement violation. *)

type crash_extension = {
  decision_p : Nvm.Value.t option;
  decision_q : Nvm.Value.t option;
  agreement : bool;
}

type report = {
  algorithm : string;
  base_objects : string;
  initial_bivalent : bool;
  configs_explored : int;
  back_edges : int;  (** crash-free cycles met by the valency engine *)
  critical_depth : int option;
  critical_steps_are_cas_on_same_object : bool option;
  crash_extension : crash_extension option;
  violation : string option;
  explored_terminals : int;
  explored_truncated : int;
}

val analyze :
  name:string ->
  base_objects:string ->
  (Machine.Sim.t -> name:string -> Machine.Objdef.instance) ->
  report

val analyze_golab : unit -> report
val analyze_candidate : Candidates.candidate -> report
val pp_report : report Fmt.t
