(** Exhaustive bounded exploration of schedules.

    For small instances the decision tree is enumerated completely, which
    turns the paper's universally-quantified correctness lemmas into
    machine-checked facts for those bounds.

    The search backtracks {e in place} on a private clone of the
    caller's machine via {!Sim.mark}/{!Sim.undo_to} (the undo trail), so
    a branch costs the few mutations of one step instead of a
    whole-machine deep copy.  One function, {!search}, runs every
    search; {!dfs} and {!find_violation} are views of it.

    A sound partial-order reduction ([reduce_local]) fires local
    (non-shared-access) transitions eagerly, response steps first: among
    all schedules with a given shared-access interleaving this yields the
    history with the {e most} real-time constraints, so the reduced
    search finds a violation iff one exists in the full space.  Crash
    decisions are still offered at every instruction boundary.

    The engine is domain-parallel with {e work stealing}: with
    [jobs > 1] every domain owns a deque of subtree tasks, each task a
    decision path from the root plus its consumed crash budget.  Owners
    pop newest-first (their trail prefix stays hot: starting the next
    task undoes and replays only the path difference), thieves steal
    oldest-first (the shallowest, largest subtrees, amortising the
    replay).  A worker splits its task one level when the pool runs low,
    so load balance adapts to the tree shape instead of being fixed by a
    one-shot fan-out.  Replayed path prefixes are reconstruction, not
    exploration — they are never re-counted — so every node is processed
    exactly once wherever the task boundaries fall and the statistics
    are identical for every [jobs] value.

    An optional state-deduplication layer ([dedup], built on
    {!Fingerprint} extended with the consumed crash budget) prunes
    branches that reconverge on an already-visited configuration; the
    visited store is a single lock-free sharded table shared by all
    domains ({!Fingerprint.Store}).  Any violation found under [dedup]
    is real, but a clean deduplicated sweep certifies one representative
    prefix history per reachable configuration rather than all of them.
    On top of [dedup], {e process-symmetry reduction} ([symmetry], on by
    default) canonicalises fingerprints under the group of process
    permutations that provably commute with every machine step —
    detected, not assumed: see {!Fingerprint.Symmetry} and
    docs/model.md — so symmetric scenarios deduplicate whole orbits
    (up to [n!] fewer states).  [symmetry] changes [nodes]/[dup] splits
    exactly like a stronger [dedup] does, never verdicts. *)

type config = {
  max_steps : int;  (** depth bound per branch (guards busy-wait loops) *)
  max_crashes : int;  (** total crash budget across all processes *)
  crash_procs : int list;
      (** processes allowed to crash, each only while it has a pending
          operation; recovery interleaves adversarially *)
  reduce_local : bool;  (** the partial-order reduction; on by default *)
}

val default_config : config
(** 200 steps, 1 crash, no crashing processes (set [crash_procs]),
    reduction on. *)

type stats = {
  mutable terminals : int;
      (** complete executions reached (including executions in which a
          crashed process stays down for good, per Definition 3) *)
  mutable truncated : int;  (** branches cut by the depth bound *)
  mutable nodes : int;
  mutable dup : int;
      (** branches pruned because the configuration's fingerprint was
          already visited (always 0 unless [dedup] is set) *)
}

val zero_stats : unit -> stats
(** A fresh all-zero counter record. *)

val auto_jobs : unit -> int
(** A fan-out matching the host: [Domain.recommended_domain_count ()]
    (at least 1).  On a single-domain host this is 1, which makes
    {!search} skip the work-stealing pool — and its task-splitting
    overhead — entirely, unless it checkpoints or resumes.
    Passed as [~jobs] when the user asks for [auto]; explicit [~jobs]
    values are never clamped (benchmarks deliberately oversubscribe). *)

val decisions : config -> sym:bool -> crashes:int -> Sim.t -> Schedule.decision list
(** The decisions the explorer branches over at a configuration.  [sym]
    selects the equivariant local-step rule used under symmetry
    reduction (branch on {e all} lowest-ranked local candidates by a
    pid-erased hash, so isomorphic configurations explore isomorphic
    subtrees); without it the historical lowest-pid pick applies. *)

val symmetry_group : config -> Sim.t -> Fingerprint.Symmetry.group option
(** The soundness-checked process-symmetry group of [sim]'s root
    configuration under [config] (recovery obliviousness is only
    required if the config can schedule a crash); [None] when any
    soundness condition fails or only the identity qualifies.  The
    engines call this themselves when [dedup && symmetry]; exposed so
    the CLI can report whether a scenario is quotiented. *)

(** A path checker: per-path analysis state threaded down the DFS.
    [init] produces the state for the root configuration, [step] updates
    it after each applied decision (consume {!Sim.history_suffix} since
    the last known length), and [terminal] delivers the verdict at a
    complete execution.  The state must be used persistently: the same
    value is passed to several children of one node, so [step] must not
    mutate it in place.  Neither [step] nor [terminal] may retain the
    [Sim.t] they are given (it is the search's working machine). *)
type path_checker =
  | Path : {
      init : Sim.t -> 'st;
      step : 'st -> Sim.t -> 'st;
      terminal : 'st -> Sim.t -> string option;
    }
      -> path_checker

type check_mode = [ `Terminal | `Incremental of path_checker ]

(** {1 Budgets and partial verdicts}

    A budget bounds a search's resources so long-running verification
    degrades gracefully instead of dying: the visited-store cap triggers
    a degradation (the dedup store is dropped and the search continues
    unpruned), while the deadline and node budgets abort the search with
    a structured partial verdict.  Everything counted in the returned
    {!stats} was really explored and judged — a budget abort reports the
    coverage achieved, it never fabricates a clean verdict. *)

type budget = {
  deadline_s : float option;  (** wall-clock bound, seconds from the start of the call *)
  max_nodes : int option;  (** bound on nodes processed (global across domains) *)
  max_visited : int option;
      (** cap on the dedup visited store, in fingerprints; exceeding it
          drops the store (degradation, not abort) *)
}

val no_budget : budget
(** All bounds off — the historical unbounded behaviour. *)

type exhaust_reason = [ `Deadline | `Interrupted | `Nodes ]

val exhaust_reason_name : exhaust_reason -> string
(** ["deadline"], ["max-nodes"] or ["interrupted"]. *)

type exhausted = {
  ex_reason : exhaust_reason;
  ex_frontier : int;
      (** independent subtree tasks not yet completed when the search was
          cut (0 for unpartitioned searches) *)
  ex_degraded : string list;
      (** degradation steps taken before giving up, oldest first *)
}

(** Verdict of a search ({!search}). *)
type outcome =
  | Clean  (** every schedule within the bounds explored, no violation found *)
  | Violation of Sim.t * string
  | Exhausted of exhausted

type checkpoint_spec = {
  cp_path : string;  (** file to write (atomically: temp + rename) *)
  cp_interval_s : float;  (** minimum seconds between periodic saves *)
  cp_scenario : (string * string) list;
      (** printable stamp persisted into the file; a resume must present
          an equal stamp (the CLI enforces this) *)
}

val search :
  ?cfg:config ->
  ?jobs:int ->
  ?dedup:bool ->
  ?symmetry:bool ->
  ?obs:Obs.Metrics.t ->
  ?progress:Obs.Progress.t ->
  ?trace:Obs.Trace.t ->
  ?budget:budget ->
  ?should_stop:(unit -> bool) ->
  ?checkpoint:checkpoint_spec ->
  ?resume:Checkpoint.t ->
  ?check_mode:check_mode ->
  check:(Sim.t -> string option) ->
  Sim.t ->
  outcome * stats
(** Search every schedule of [sim0] within [cfg] for a terminal
    execution that fails the check.  Returns the outcome and the
    statistics of the work done, whatever the outcome.  A [Violation]
    carries its machine, an independent snapshot with the full history.
    The caller's [sim0] is never mutated.

    {b Judging.}  [check_mode] (default [`Terminal]) selects the judge:
    [`Terminal] runs [check] on each complete execution from scratch;
    [`Incremental pc] threads [pc]'s state down the path, sharing the
    work done on common schedule prefixes between all terminals below
    them ([check] is then unused).  A sound incremental checker returns
    the same verdict as its terminal counterpart on every scenario — the
    test suite cross-checks the NRL pair.

    {b Engines.}  The search runs the direct trailed DFS unless it needs
    a pending task set: [jobs > 1] (default 1), [checkpoint] or [resume]
    run the work-stealing pool on [jobs] domains.  A complete search's
    statistics depend on neither the engine nor [jobs]; with [jobs > 1]
    {e which} counterexample is returned may vary between runs, whether
    one exists does not, and the judge must tolerate concurrent calls
    from distinct domains (the NRL checkers qualify).  [dedup] (default
    false) prunes branches whose configuration fingerprint — including
    the crash budget spent on the path — was already visited, in a store
    shared lock-free across domains.  [symmetry] (default true, only
    meaningful with [dedup]) canonicalises fingerprints under the
    detected process-symmetry group; pass [false] to compare an
    unquotiented search.

    {b Accounting.}  The direct DFS counts everything it explored.  The
    pool counts a task only when it completes: a task cut or aborted
    mid-way is left out of the statistics and of the metrics, so a cut
    or violated pooled search reports only its completed tasks.

    {b Observability.}  [obs] attaches a metric registry ({!Obs.Names}
    lists what lands in it): the search's machine counters, the
    explorer's node/terminal/truncated/dup totals, the frontier task
    count and, only when [obs] is given, per-phase timers.  Pool tasks
    and workers count into private registries, merged into [obs] in a
    fixed order, so aggregated counters are exact sums and the
    engine-invariant ones (see {!Obs.Names.engine_invariant}) are
    identical for every engine.  Instrumentation adds no shared-memory
    accesses.  [progress] receives batched node ticks and
    task-completion events (throttled wall-clock, see {!Obs.Progress});
    [trace] receives span records — [explore.search], one
    [explore.worker] per pool domain — written only from the
    coordinating domain, and the events [explore.symmetry] (quotienting
    active), [explore.violation], [explore.exhausted],
    [explore.checkpoint.save] and [explore.resume].

    {b Budgets.}  [budget] bounds the search (see {!budget});
    [should_stop] is polled every few dozen processed nodes and cuts the
    search cooperatively (the hook a signal handler's flag plugs into).
    A tripped bound yields [Exhausted], a coverage statement rather than
    a clean certificate; [ex_frontier] counts the pool's pending tasks
    (0 for the direct DFS).  Exceeding [max_visited] never aborts: the
    dedup store is dropped (recorded in {!exhausted.ex_degraded}) and
    the search continues unpruned.

    {b Checkpoints.}  [checkpoint] persists the accumulator plus the
    {e pending} task set — every queued deque entry and every
    in-progress task, captured atomically at a task-completion boundary —
    once at the start, then every [cp_interval_s] seconds at a task
    completion, and finally at the outcome (a finished search writes its
    verdict into the file; {!Checkpoint.t.result}).  [resume] restores
    an unfinalized checkpoint: the persisted totals and metrics are
    adopted and the pending paths re-seed the pool round-robin across
    the workers.  The caller must rebuild the {e same} scenario machine
    and pass equal parameters (validate with {!Checkpoint.t.scenario}).
    In-flight work is discarded by a cut and re-run on resume, so the
    resumed verdict and all engine-invariant counters are byte-identical
    to an uninterrupted run's — except under [dedup], whose visited
    store restarts empty (verdicts stay sound; dup/node splits may
    shift).
    @raise Invalid_argument if [resume] is already finalized. *)

val find_violation :
  ?cfg:config ->
  ?jobs:int ->
  ?dedup:bool ->
  ?symmetry:bool ->
  ?obs:Obs.Metrics.t ->
  ?progress:Obs.Progress.t ->
  ?trace:Obs.Trace.t ->
  ?budget:budget ->
  ?should_stop:(unit -> bool) ->
  ?check_mode:check_mode ->
  check:(Sim.t -> string option) ->
  Sim.t ->
  (Sim.t * string) option * stats
(** {!search} reduced to its violation, if any, and the statistics.  A
    budget cut also returns [None]: a caller that needs to tell it from
    a clean search calls {!search}. *)

val dfs :
  ?cfg:config ->
  ?jobs:int ->
  ?dedup:bool ->
  ?symmetry:bool ->
  ?obs:Obs.Metrics.t ->
  ?progress:Obs.Progress.t ->
  ?trace:Obs.Trace.t ->
  ?budget:budget ->
  ?should_stop:(unit -> bool) ->
  ?on_step:(Sim.t -> unit) ->
  on_terminal:(Sim.t -> unit) ->
  Sim.t ->
  stats
(** Depth-first enumeration: {!search} with a path checker that never
    judges.  [on_step] (if given) is called after every applied decision
    and [on_terminal] on every complete execution; [on_terminal] may
    raise to abort the search, and the exception escapes unchanged.  The
    machine passed to the callbacks is the search's working machine,
    valid only for the duration of the call — {!Sim.clone} it to keep
    it. *)
