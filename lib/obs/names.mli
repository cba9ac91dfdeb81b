(** The metric-name catalogue: the single source of truth for every
    counter, timer and histogram the instrumented subsystems emit.

    Instrumentation sites reference these constants instead of string
    literals, so the catalogue below, the [--stats] report sections and
    the tables in [docs/observability.md] cannot drift apart silently —
    a metric that exists in code but not here shows up in tests (see
    [test_obs.ml]).

    {b Engine invariance.}  A metric is {e engine-invariant} when its
    value depends only on the explored tree — not on [--jobs], steals,
    kill-and-resume or any other engine knob: those metrics increment
    once per tree edge or per checker call, and the engines visit the
    same edges in every configuration.  The rest measure the machinery itself (task fan-out,
    undo traffic, wall time) and legitimately vary.  [--stats] prints
    the two groups in separate sections, and the invariant section is
    byte-identical across [--jobs] values — observability doubling as a
    determinism check. *)

type kind = Counter | Timer | Histogram

(** {1 Simulated machine} *)

val sim_steps : string
(** Machine steps executed ({!Machine.Sim.step}: scripted-operation
    starts and instruction executions). *)

val sim_invocations : string
(** Invocation (INV) steps recorded, nested invocations included. *)

val sim_responses : string
(** Response (RES) steps recorded, nested responses included. *)

val sim_crashes : string
(** Crash steps injected ({!Machine.Sim.crash}). *)

val sim_recoveries : string
(** Recovery steps executed ({!Machine.Sim.recover}). *)

val sim_flushes : string
(** Flush instructions executed — nonzero only under the explicit-persist
    memory model (see [docs/memory-model.md]). *)

val sim_fences : string
(** Fence instructions executed — nonzero only under the explicit-persist
    memory model. *)

(** {1 Undo trail} *)

val trail_undos : string
(** {!Machine.Sim.undo_to} calls (one per backtracked edge).
    Engine-dependent: work-stealing workers also undo when
    repositioning between tasks, so the count varies with [--jobs]. *)

val trail_undo_depth : string
(** Histogram of trail entries reverted per {!Machine.Sim.undo_to}. *)

(** {1 Explorer} *)

val explore_nodes : string
(** Tree nodes processed (after dedup pruning). *)

val explore_terminals : string
(** Complete executions reached. *)

val explore_truncated : string
(** Branches cut by the depth bound (or deadlocked). *)

val explore_dedup_pruned : string
(** Branches pruned by state deduplication (0 unless [--dedup]). *)

val explore_tasks : string
(** Subtree tasks created in the work-stealing pool, seeds included
    (0 for the plain single-domain engines). *)

val explore_ws_steals : string
(** Tasks stolen from another worker's deque (0 when [jobs = 1]). *)

val explore_time_idle : string
(** Wall time workers spent idle — own deque empty, nothing stealable. *)

val explore_store_contention : string
(** Visited-store CAS insertions lost to a racing domain (0 unless
    [--dedup] with [jobs > 1]). *)

val explore_time_step : string
(** Wall time applying decisions (clone or mark/apply/undo). *)

val explore_time_check : string
(** Wall time in checker callbacks (path-checker steps and terminal
    verdicts). *)

val explore_time_dedup : string
(** Wall time fingerprinting and probing the visited store. *)

val explore_time_total : string
(** Wall time of the whole exploration, expansion and join included. *)

(** {1 Linearizability checker (terminal mode)} *)

val nrl_checks : string
(** Full NRL verdicts computed ({!Linearize.Nrl.check} calls). *)

val durable_checks : string
(** Durable-linearizability verdicts computed
    ({!Linearize.Durable.check} calls). *)

val checker_object_checks : string
(** Per-object WGL searches run ({!Linearize.Checker.check_object}). *)

val checker_memo_hits : string
(** WGL search nodes skipped because their (linearized-set, spec-state)
    key was already visited. *)

val checker_memo_misses : string
(** WGL search nodes expanded (and, with memoisation on, added to the
    memo table). *)

(** {1 Incremental NRL automaton} *)

val nrl_inc_steps : string
(** History steps folded into {!Linearize.Nrl.Incremental}. *)

val nrl_inc_res_transitions : string
(** Response-step closures run (the automaton's only search), whether
    computed or replayed from the per-object transition memo. *)

val nrl_inc_memo_hits : string
(** Closure nodes skipped by the per-event memo table. *)

val nrl_inc_memo_misses : string
(** Closure nodes expanded. *)

val nrl_inc_closures : string
(** Response-step closures actually computed: the response transitions
    that missed the per-object transition memo.  Not engine-invariant:
    which path reaches a state first, and a lost publication race
    between domains, decide how many are computed. *)

(** {1 Scenario fuzzer} *)

val fuzz_runs : string
(** Fuzz scenarios executed — campaign runs plus shrink re-runs
    ({!Fuzz.Gen.run} invocations made by the campaign and shrinker). *)

val fuzz_new_coverage : string
(** Configuration fingerprints ({!Machine.Fingerprint}) visited for the
    first time in the campaign — the coverage-feedback signal. *)

val fuzz_violations : string
(** Fuzz runs judged NRL- or Definition 1 (strictness)-violating. *)

val fuzz_shrink_steps : string
(** Shrink candidates executed while minimising counterexamples. *)

val fuzz_corpus_entries : string
(** Seeds kept in the corpus for discovering new coverage. *)

(** {1 Sharded recoverable-object service} *)

val service_requests : string
(** Client operations issued — first attempts only; re-submissions count
    under {!service_retries}. *)

val service_ok : string
(** Successful responses observed by client sessions. *)

val service_retries : string
(** Re-submissions after an [Unavailable]/[Rejected] answer or a
    deadline timeout, paced by capped exponential backoff. *)

val service_shed : string
(** Reads shed by the degradation ladder on a saturated shard (see
    [docs/service.md]). *)

val service_rejected : string
(** Submissions rejected newest-first because the shard queue was at its
    bound. *)

val service_unavailable : string
(** Submissions refused while the target shard was killed or still
    recovering. *)

val service_timeouts : string
(** Requests whose per-request deadline elapsed before an answer. *)

val service_failures : string
(** Requests answered failed after a recovery give-up. *)

val service_crashes : string
(** Shard kills delivered by the crash adversary. *)

val service_recoveries : string
(** Shard recovery pipelines completed — the shard is healthy again. *)

val service_recovery_retries : string
(** Recovery attempts re-run because a crash hit the recovery itself. *)

val service_giveups : string
(** Recoveries abandoned by the watchdog (livelock fuse or retry
    budget exhausted). *)

val service_latency : string
(** Histogram of client-observed latency per successful request, in
    nanoseconds. *)

val service_recovery_ns : string
(** Histogram of shard recovery time — kill observation to healthy —
    in nanoseconds. *)

(** {1 Multicore torture harness} *)

val torture_ops : string
(** Operations started under {!Runtime.Torture.with_crashes}. *)

val torture_crashes : string
(** Armed crash points that fired (initial attempts and recoveries). *)

val torture_retries : string
(** Recovery attempts, crashes {e during} recovery included: every
    re-invocation of [recover] counts once, so the pinned relation is
    [crashes = retries + aborted_recoveries] (each fired crash point
    leads to either one more recovery attempt or an abandoned
    recovery). *)

val torture_livelocks : string
(** Recoveries aborted by the livelock detector: the attempt traversed
    more crash points than the watchdog's fuse allows without completing
    (see {!Runtime.Torture.watchdog}). *)

val torture_aborted_recoveries : string
(** Recoveries abandoned because the watchdog's retry budget was
    exhausted — the harness reports {!Runtime.Torture.Recovery_stuck}
    instead of retrying forever. *)

(** {1 The catalogue} *)

val all : (string * kind * string) list
(** Every metric above: name, kind, one-line description (the same text
    [docs/observability.md] tabulates). *)

val kind_of : string -> kind option
(** Catalogue lookup; [None] for names not in the catalogue. *)

val engine_invariant : string -> bool
(** Whether the metric is engine-invariant (see above).  Names outside
    the catalogue are conservatively reported as not invariant. *)
