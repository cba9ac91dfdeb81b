(** Executable demonstration of Theorem 4: no recoverable non-resettable
    TAS from read/write and non-recoverable TAS base objects can make
    both [T&S] and [T&S.RECOVER] wait-free.

    For an implementation, the analysis reproduces the proof's structure
    on a two-process instance: bivalent initial configuration; critical
    configuration whose pending steps are both t&s on the same base
    object; indistinguishable crash extensions; then either a concrete
    NRL-violating execution (wait-free candidates) or blocking recovery
    (the paper's Algorithm 3). *)

type crash_extension = {
  ret_after_pq : Nvm.Value.t option;
      (** p's response after [p.t&s; q.t&s; crash p; p solo]; [None] if p
          never completed (blocked) *)
  ret_after_qp : Nvm.Value.t option;
  solo_blocked : bool;
  indistinguishable : bool;
      (** both orders produced the same response — the proof's key step *)
}

type report = {
  algorithm : string;
  recovery_wait_free : bool;  (** the implementation's claimed property *)
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

val returned_zero : Machine.Sim.t -> int
(** The valency outcome: bitmask of processes whose T&S returned 0. *)

val setup : (Machine.Sim.t -> name:string -> Machine.Objdef.instance) -> Machine.Sim.t
(** Two processes, each scripted to perform a single T&S. *)

val analyze :
  ?exhaustive:bool ->
  name:string ->
  recovery_wait_free:bool ->
  (Machine.Sim.t -> name:string -> Machine.Objdef.instance) ->
  report

val analyze_paper_algorithm : ?exhaustive:bool -> unit -> report
(** Algorithm 3.  The exhaustive violation search is off by default: its
    busy-wait recovery unrolls without bound under exploration; NRL
    conformance is established by the randomized torture suite instead. *)

val analyze_candidate : Candidates.candidate -> report

val pp_report : report Fmt.t
