type kind = Counter | Timer | Histogram

let sim_steps = "sim.steps"
let sim_invocations = "sim.invocations"
let sim_responses = "sim.responses"
let sim_crashes = "sim.crashes"
let sim_recoveries = "sim.recoveries"
let sim_flushes = "sim.flushes"
let sim_fences = "sim.fences"

let trail_undos = "trail.undos"
let trail_undo_depth = "trail.undo.depth"

let explore_nodes = "explore.nodes"
let explore_terminals = "explore.terminals"
let explore_truncated = "explore.truncated"
let explore_dedup_pruned = "explore.dedup.pruned"
let explore_tasks = "explore.tasks"
let explore_ws_steals = "explore.ws.steals"
let explore_time_idle = "explore.time.idle"
let explore_store_contention = "explore.store.contention"
let explore_time_step = "explore.time.step"
let explore_time_check = "explore.time.check"
let explore_time_dedup = "explore.time.dedup"
let explore_time_total = "explore.time.total"

let nrl_checks = "nrl.checks"
let durable_checks = "durable.checks"
let checker_object_checks = "checker.object_checks"
let checker_memo_hits = "checker.memo.hits"
let checker_memo_misses = "checker.memo.misses"

let nrl_inc_steps = "nrl.inc.steps"
let nrl_inc_res_transitions = "nrl.inc.res_transitions"
let nrl_inc_memo_hits = "nrl.inc.memo.hits"
let nrl_inc_memo_misses = "nrl.inc.memo.misses"
let nrl_inc_closures = "nrl.inc.closures"

let fuzz_runs = "fuzz.runs"
let fuzz_new_coverage = "fuzz.new_coverage"
let fuzz_violations = "fuzz.violations"
let fuzz_shrink_steps = "fuzz.shrink_steps"
let fuzz_corpus_entries = "fuzz.corpus_entries"

let service_requests = "service.requests"
let service_ok = "service.ok"
let service_retries = "service.retries"
let service_shed = "service.shed"
let service_rejected = "service.rejected"
let service_unavailable = "service.unavailable"
let service_timeouts = "service.timeouts"
let service_failures = "service.failures"
let service_crashes = "service.crashes"
let service_recoveries = "service.recoveries"
let service_recovery_retries = "service.recovery_retries"
let service_giveups = "service.giveups"
let service_latency = "service.latency_ns"
let service_recovery_ns = "service.recovery_ns"

let torture_ops = "torture.ops"
let torture_crashes = "torture.crashes"
let torture_retries = "torture.retries"
let torture_livelocks = "torture.livelocks"
let torture_aborted_recoveries = "torture.aborted_recoveries"

(* (name, kind, engine-invariant, description); [all] below projects the
   public triple, [engine_invariant] the flag. *)
let catalogue =
  [
    (sim_steps, Counter, true, "machine steps executed (operation starts and instructions)");
    (sim_invocations, Counter, true, "invocation (INV) steps recorded, nested included");
    (sim_responses, Counter, true, "response (RES) steps recorded, nested included");
    (sim_crashes, Counter, true, "crash steps injected");
    (sim_recoveries, Counter, true, "recovery steps executed");
    (sim_flushes, Counter, true, "flush instructions executed (explicit-persist mode)");
    (sim_fences, Counter, true, "fence instructions executed (explicit-persist mode)");
    (trail_undos, Counter, false, "Sim.undo_to calls (backtracked edges)");
    (trail_undo_depth, Histogram, false, "trail entries reverted per Sim.undo_to");
    (explore_nodes, Counter, true, "tree nodes processed (after dedup pruning)");
    (explore_terminals, Counter, true, "complete executions reached");
    (explore_truncated, Counter, true, "branches cut by the depth bound (or deadlocked)");
    (explore_dedup_pruned, Counter, true, "branches pruned by state deduplication");
    (explore_tasks, Counter, false, "subtree tasks created in the work-stealing pool");
    (explore_ws_steals, Counter, false, "tasks stolen from another worker's deque");
    (explore_time_idle, Timer, false, "wall time workers spent idle waiting to steal");
    (explore_store_contention, Counter, false, "visited-store CAS insertions lost to a racing domain");
    (explore_time_step, Timer, false, "wall time applying decisions (clone or mark/apply/undo)");
    (explore_time_check, Timer, false, "wall time in checker callbacks");
    (explore_time_dedup, Timer, false, "wall time fingerprinting and probing the visited store");
    (explore_time_total, Timer, false, "wall time of the whole exploration");
    (nrl_checks, Counter, true, "full NRL verdicts computed (Nrl.check calls)");
    (durable_checks, Counter, true, "durable-linearizability verdicts computed (Durable.check calls)");
    (checker_object_checks, Counter, true, "per-object WGL searches run");
    (checker_memo_hits, Counter, true, "WGL search nodes skipped by the memo table");
    (checker_memo_misses, Counter, true, "WGL search nodes expanded");
    (nrl_inc_steps, Counter, true, "history steps folded into the incremental automaton");
    (nrl_inc_res_transitions, Counter, true, "response-step closures run (computed or replayed from the transition memo)");
    (nrl_inc_memo_hits, Counter, false, "closure nodes skipped by the per-event memo");
    (nrl_inc_memo_misses, Counter, false, "closure nodes expanded");
    (nrl_inc_closures, Counter, false, "response-step closures computed (transition-memo misses)");
    (fuzz_runs, Counter, true, "fuzz scenarios executed (campaign runs plus shrink re-runs)");
    (fuzz_new_coverage, Counter, true, "state fingerprints visited for the first time in the campaign");
    (fuzz_violations, Counter, true, "fuzz runs judged NRL- or strictness-violating");
    (fuzz_shrink_steps, Counter, true, "shrink candidates executed while minimising counterexamples");
    (fuzz_corpus_entries, Counter, true, "seeds kept in the corpus for discovering new coverage");
    (service_requests, Counter, false, "client operations issued (first attempts, retries excluded)");
    (service_ok, Counter, false, "successful responses observed by client sessions");
    (service_retries, Counter, false, "re-submissions after Unavailable/Rejected or a deadline timeout");
    (service_shed, Counter, false, "reads shed by the degradation ladder on a saturated shard");
    (service_rejected, Counter, false, "submissions rejected newest-first by a full shard queue");
    (service_unavailable, Counter, false, "submissions refused while the shard was killed or recovering");
    (service_timeouts, Counter, false, "requests whose per-request deadline elapsed unanswered");
    (service_failures, Counter, false, "requests answered failed after a recovery give-up");
    (service_crashes, Counter, false, "shard kills delivered by the crash adversary");
    (service_recoveries, Counter, false, "shard recovery pipelines completed (healthy again)");
    (service_recovery_retries, Counter, false, "recovery attempts re-run after a crash hit the recovery itself");
    (service_giveups, Counter, false, "recoveries abandoned by the watchdog (livelock fuse or retry budget)");
    (service_latency, Histogram, false, "client-observed latency per successful request (ns)");
    (service_recovery_ns, Histogram, false, "shard recovery time from kill observation to healthy (ns)");
    (torture_ops, Counter, true, "operations started under Torture.with_crashes");
    (torture_crashes, Counter, true, "armed crash points that fired");
    (torture_retries, Counter, true, "recovery attempts (crashes = retries + aborted_recoveries)");
    (torture_livelocks, Counter, true, "recoveries aborted by the traversal-fuse livelock detector");
    (torture_aborted_recoveries, Counter, true, "recoveries abandoned after the retry budget");
  ]

let all = List.map (fun (n, k, _, d) -> (n, k, d)) catalogue

let kind_of name =
  List.find_map (fun (n, k, _, _) -> if String.equal n name then Some k else None) catalogue

let engine_invariant name =
  List.exists (fun (n, _, inv, _) -> inv && String.equal n name) catalogue
