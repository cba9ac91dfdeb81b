(** Nesting-safe recoverable linearizability (Definition 4): a finite
    history satisfies NRL if it is recoverable well-formed (Definition 3)
    and its crash-free projection [N(H)] is linearizable. *)

type result = {
  rwf : History.Wellformed.result;
  objects : Checker.object_report list;  (** per-object verdicts on [N(H)] *)
}

val ok : result -> bool
(** The whole Definition 4 condition: recoverable well-formed {e and}
    every per-object verdict linearizable. *)

val failing_objects : result -> Checker.object_report list
(** Objects whose subhistory of [N(H)] is not linearizable. *)

val check :
  ?obs:Obs.Metrics.t ->
  spec_for:(int -> Spec.t option) ->
  nprocs:int ->
  History.t ->
  result
(** Check a full history against Definition 4: recoverable
    well-formedness first, then per-object linearizability of [N(H)]
    (skipped when well-formedness already failed).

    [obs] counts the work into a metric registry: [nrl.checks] once per
    call, plus the per-object search counters documented at
    {!Checker.check_object}. *)

val explain : result -> string
(** One line: "satisfies NRL" or which half failed and why. *)

val pp : result Fmt.t
(** Prints {!explain}. *)

(** Incremental NRL checking: Definition 4 as an automaton over history
    steps, for threading down a depth-first schedule exploration so work
    done on a shared schedule prefix is shared by every terminal below
    it.  The state is persistent — keeping an interior DFS node's state
    alive while its subtrees are explored needs no undo.

    Recoverable well-formedness is tracked per process (crash/recovery
    discipline, per-object alternation, nesting of open operations);
    linearizability of [N(H)] is tracked per object as a set of
    (speculatively linearized pending operations, specification state)
    configurations, closed at each response step under linearizing
    pending operations — memoised on {!Checker.Memo_key} — until the
    responding operation is placed with its actual response.  A violation
    is detected at the earliest step that dooms every extension and is
    sticky from then on.

    Per-object transitions are pure, so each object state memoises its
    successors (by invocation and by response): every state derived
    from one {!create} that reaches the same object state by another
    interleaving reuses them, and each distinct closure is computed once
    per root.  The memo retains one successor per distinct (object
    state, event) reached, for as long as the root is alive.  It is
    safe to share a root between domains: entries are published
    atomically and never mutated.

    The verdict at a terminal history equals {!Nrl.check}'s on the same
    sequence of steps (the test suite cross-checks the pair on every
    exploration scenario); messages may be phrased differently. *)
module Incremental : sig
  type t

  val create : spec_for:(int -> Spec.t option) -> nprocs:int -> t
  (** The empty-history automaton state.  [spec_for] resolves an object
      id to its sequential specification ([None] objects are skipped,
      as in {!Checker.check_all}). *)

  val step : ?obs:Obs.Metrics.t -> t -> History.Step.t -> t
  (** Fold one history step into the automaton.  Pure in [t]: the input
      state remains valid (and is shared structurally), which is what
      makes per-branch threading free.

      [obs] counts the work into a metric registry: [nrl.inc.steps] once
      per call, [nrl.inc.res_transitions] once per response step that
      reaches the configuration closure, and [nrl.inc.memo.hits] /
      [nrl.inc.memo.misses] for the closure's memo table.  The closure
      memo is local to each response step and a transition-memo hit
      replays the counts its closure recorded, so these depend only on
      the step sequence — identical wherever the same prefix is
      replayed.  [nrl.inc.closures] counts the closures actually
      computed (transition-memo misses); it depends on which path
      reached a state first. *)

  val steps : ?obs:Obs.Metrics.t -> t -> History.Step.t list -> t
  (** Fold a suffix of steps, in order, with [obs] applied to each. *)

  val consumed : t -> int
  (** Number of steps folded so far — callers use it to know where the
      next suffix starts (see {!Machine.Sim.history_suffix}). *)

  val violation : t -> string option
  (** [Some reason] once any folded prefix violated NRL (sticky);
      [None] means every completion of the consumed history by dropping
      still-pending operations satisfies NRL so far. *)

  val shares_object_state : t -> t -> int -> bool
  (** [shares_object_state a b obj]: [a] and [b] hold physically the
      same automaton state for object [obj] (or neither tracks it).
      Folding one event into one state twice yields shared successors;
      this observes that. *)
end

val strictness_violations : History.t -> History.Step.t list
(** Responses of operations declared strict (Definition 1) whose value
    was {e not} found in the designated persistent variable at response
    time, as stamped by the machine. *)
