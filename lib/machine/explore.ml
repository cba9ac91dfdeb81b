(** Exhaustive bounded exploration of schedules.

    For small instances (a few processes, a few operations each, a
    bounded crash budget) the decision tree is small enough to enumerate
    completely — this is what lets the checkers examine {e every} history
    of a bounded instance, turning the paper's universally quantified
    correctness lemmas into machine-checked facts for those bounds.

    The search backtracks in place: it mutates one private machine (a
    {!Sim.clone} of the caller's, with {!Sim.enable_trail}), taking a
    {!Sim.mark} before each decision and {!Sim.undo_to}-ing it
    afterwards, so a branch costs the few mutations of one step instead
    of a whole-machine deep copy.

    One function ({!search}) runs every search.  It walks the tree
    directly with that trailed DFS unless the search needs a pending task
    set — [jobs > 1], a checkpoint or a resume — and then hands it to the
    work-stealing pool ({!ws_run}): subtree tasks are decision paths from
    the root, each worker repositions its own trailed machine onto a task
    by undoing to the common prefix and replaying the rest, and splits a
    task one level into child tasks when the pool runs low.  A shared
    atomic flag stops every worker as soon as one finds a violation.
    Every node is processed exactly once by the same traversal code
    wherever the task boundaries fall, so [terminals]/[truncated]/[nodes]
    are identical for every [jobs] value.  [dfs] and [find_violation] are
    views of {!search}.

    Orthogonally, {e state deduplication} ([dedup]) prunes a branch when
    the machine configuration's {!Fingerprint} — extended with the crash
    budget already consumed on the current path, which determines how
    many crash decisions the future still offers — has been visited
    before: converging schedule prefixes are explored once.  Fingerprint
    equality (budget included) implies identical future subtrees, so the
    pruned subtree's behaviours are exactly the representative's — but
    the {e prefix} histories differ, so checks that depend on the full
    history (NRL does) are verified against one representative prefix
    per state.  Deduplicated search is therefore a fast
    under-approximation: any violation it reports is real, while a clean
    sweep certifies one representative history per reachable
    configuration rather than all of them.  See docs/model.md for the
    full soundness discussion. *)

type config = {
  max_steps : int;  (** depth bound per branch (guards busy-wait loops) *)
  max_crashes : int;  (** total crash budget across all processes *)
  crash_procs : int list;
      (** processes allowed to crash, each only while it has a pending
          operation; recovery interleaves adversarially *)
  reduce_local : bool;
      (** partial-order reduction: fire local (non-shared-access)
          transitions eagerly, responses first.  Sound and complete for
          violation search — see {!Sim.next_is_local} *)
}

let default_config =
  {
    max_steps = 200;
    max_crashes = 1;
    crash_procs = [];
    reduce_local = true;
  }

type stats = {
  mutable terminals : int;  (** complete executions reached *)
  mutable truncated : int;  (** branches cut by the depth bound *)
  mutable nodes : int;
  mutable dup : int;  (** branches pruned by state deduplication *)
}

let zero_stats () = { terminals = 0; truncated = 0; nodes = 0; dup = 0 }

let add_stats into s =
  into.terminals <- into.terminals + s.terminals;
  into.truncated <- into.truncated + s.truncated;
  into.nodes <- into.nodes + s.nodes;
  into.dup <- into.dup + s.dup

let auto_jobs () = max 1 (Domain.recommended_domain_count ())

let decisions cfg ~sym ~crashes sim =
  let n = Sim.nprocs sim in
  let all = List.init n Fun.id in
  let crashes_d =
    if crashes >= cfg.max_crashes then []
    else if Sim.persist_mode sim = Nvm.Memory.Explicit then
      (* Explicit-persist mode: crashes are full-system (power failure).
         An individual process crash cannot lose cache contents — the
         shared volatile cache is hardware — so only the simultaneous
         failure of every process exercises persistence nondeterminism.
         One decision per subset of the currently-dirty cells (bit i =
         the i-th dirty cell in address order reaches the medium); mask
         0 — lose every unflushed write — comes first, so violation
         searches hit the adversarial case early. *)
      if List.exists (fun p -> Sim.can_crash ~mid_op_only:true sim p) cfg.crash_procs then
        let k = List.length (Nvm.Memory.pending (Sim.mem sim)) in
        List.init (1 lsl k) (fun m -> Schedule.Dcrash_sys m)
      else []
    else
      List.filter_map
        (fun p -> if Sim.can_crash ~mid_op_only:true sim p then Some (Schedule.Dcrash p) else None)
        cfg.crash_procs
  in
  let locals =
    if cfg.reduce_local then
      List.filter (fun p -> Sim.enabled sim p && Sim.next_is_local sim p) all
    else []
  in
  match locals with
  | _ :: _ ->
    (* fire one local transition deterministically (responses first);
       crash decisions are still offered so every crash position is
       reachable *)
    let cands =
      match List.filter (fun p -> Sim.next_is_ret sim p) locals with
      | _ :: _ as rets -> rets
      | [] -> locals
    in
    if not sym then Schedule.Dstep (List.hd cands) :: crashes_d
    else begin
      (* under symmetry reduction the choice must be equivariant:
         picking the lowest pid does not commute with pid
         permutations, so two isomorphic configurations could explore
         non-isomorphic subtrees and the quotient would miss states.
         Instead rank candidates by a pid-erased hash of their local
         state — invariant under every permutation — and branch on
         {e all} ties (a sound superset of any single equivariant
         pick). *)
      let scored = List.map (fun p -> (Fingerprint.erased_proc_hash sim p, p)) cands in
      let best = List.fold_left (fun a (h, _) -> min a h) max_int scored in
      List.filter_map
        (fun (h, p) -> if h = best then Some (Schedule.Dstep p) else None)
        scored
      @ crashes_d
    end
  | [] ->
    let steps =
      List.filter_map
        (fun p -> if Sim.enabled sim p then Some (Schedule.Dstep p) else None)
        all
    in
    let recoveries =
      List.filter_map
        (fun p -> if Sim.can_recover sim p then Some (Schedule.Drecover p) else None)
        all
    in
    steps @ recoveries @ crashes_d

(* terminal: every process either completed its script or is down for
   good (a crash may be a process's last step, per Definition 3) *)
let terminal sim =
  Sim.all_done sim
  || (let n = Sim.nprocs sim in
      let rec ok p =
        p >= n
        || ((Sim.status sim p = Sim.Crashed || not (Sim.enabled sim p)) && ok (p + 1))
      in
      ok 0)

exception Found of Sim.t * string

exception Stopped
(* raised inside a worker when another worker has flipped the stop flag *)

(** A path checker: per-path state threaded down the DFS, updated after
    every applied decision and asked for a verdict at each terminal.  The
    state type is existential — the explorer only moves values of it
    around — which lets {!Checker}-level state live above this library in
    the dependency order (see [Workload.Check.nrl_incremental]). *)
type path_checker =
  | Path : {
      init : Sim.t -> 'st;
          (** state for the root configuration (folds any history the
              machine recorded during setup) *)
      step : 'st -> Sim.t -> 'st;
          (** consume the history suffix the last decision appended; must
              be pure in ['st] (the same state value is reused across
              sibling branches) and must not retain [Sim.t] *)
      terminal : 'st -> Sim.t -> string option;
          (** verdict for a complete execution, [Some reason] = violation *)
    }
      -> path_checker

type check_mode = [ `Terminal | `Incremental of path_checker ]

(** {1 Budgets}

    Resource bounds on a search.  Budgets make long-running verification
    degrade instead of dying: exceeding the visited-store cap drops the
    dedup store (a degradation — the search keeps going, unpruned) while
    exceeding the deadline or the node budget aborts with a structured
    partial verdict rather than an exception or an unbounded run. *)
type budget = {
  deadline_s : float option;  (** wall-clock bound, seconds from the start of the call *)
  max_nodes : int option;  (** bound on nodes processed (across all domains) *)
  max_visited : int option;
      (** cap on the dedup visited store, in fingerprints; past it, the
          store is dropped (degradation, not abort) *)
}

let no_budget = { deadline_s = None; max_nodes = None; max_visited = None }

type exhaust_reason = [ `Deadline | `Nodes | `Interrupted ]

let exhaust_reason_name = function
  | `Deadline -> "deadline"
  | `Nodes -> "max-nodes"
  | `Interrupted -> "interrupted"

(** A budget-exhausted partial verdict.  The coverage achieved is the
    [stats] value returned alongside: everything counted there was really
    explored and judged. *)
type exhausted = {
  ex_reason : exhaust_reason;
  ex_frontier : int;
      (** independent subtree tasks not yet completed (0 when the search
          was not partitioned) *)
  ex_degraded : string list;
      (** degradation steps taken before giving up, oldest first *)
}

(** Verdict of a search ({!search}). *)
type outcome =
  | Clean  (** every schedule within the bounds explored, no violation *)
  | Violation of Sim.t * string
  | Exhausted of exhausted

exception Out_of_budget of exhaust_reason
(* internal: unwinds workers when a budget trips; never escapes the
   public entry points *)

(* Budget enforcement state shared by every traversal of one search.
   The node count is a single atomic across domains, so [max_nodes] cuts
   at the same global count wherever the work landed; the deadline and
   the stop callback are polled every [poll_mask + 1] nodes. *)
type limits = {
  l_deadline_ns : int;  (** absolute Clock reading; [max_int] = none *)
  l_max_nodes : int;  (** [max_int] = none *)
  l_nodes : int Atomic.t;
  l_max_visited : int;  (** [max_int] = none *)
  l_dedup_on : bool Atomic.t;
  l_degraded : string list Atomic.t;
  l_should_stop : unit -> bool;
}

let poll_mask = 63

let limits_of ~budget ~should_stop =
  match (budget, should_stop) with
  | { deadline_s = None; max_nodes = None; max_visited = None }, None -> None
  | _ ->
    Some
      {
        l_deadline_ns =
          (match budget.deadline_s with
          | None -> max_int
          | Some s -> Obs.Clock.now_ns () + int_of_float (s *. 1e9));
        l_max_nodes = Option.value budget.max_nodes ~default:max_int;
        l_nodes = Atomic.make 0;
        l_max_visited = Option.value budget.max_visited ~default:max_int;
        l_dedup_on = Atomic.make true;
        l_degraded = Atomic.make [];
        l_should_stop = Option.value should_stop ~default:(fun () -> false);
      }

(* Per-processed-node budget check.  With dedup on, the visited store
   holds exactly one fingerprint per processed node, so the global node
   counter doubles as the store-size reading — no locked cardinality
   scans on the hot path. *)
let check_limits l =
  let n = Atomic.fetch_and_add l.l_nodes 1 + 1 in
  if n > l.l_max_nodes then raise (Out_of_budget `Nodes);
  if
    n > l.l_max_visited
    && Atomic.get l.l_dedup_on
    && Atomic.compare_and_set l.l_dedup_on true false
  then
    Atomic.set l.l_degraded
      (Atomic.get l.l_degraded @ [ "dedup-store-dropped:visited-cap" ]);
  if n land poll_mask = 0 then begin
    if Obs.Clock.now_ns () > l.l_deadline_ns then raise (Out_of_budget `Deadline);
    if l.l_should_stop () then raise (Out_of_budget `Interrupted)
  end

(* Pre-resolved handles for the explorer's per-phase timers, attached
   only when the caller observes the search.  Each traversal context owns
   its meters — the pool gives every task a private registry, merged
   when the task completes — so timing the hot loop never touches
   cross-domain state. *)
type meters = {
  m_step : Obs.Metrics.timer;
  m_check : Obs.Metrics.timer;
  m_dedup : Obs.Metrics.timer;
}

let meters_of reg =
  {
    m_step = Obs.Metrics.timer reg Obs.Names.explore_time_step;
    m_check = Obs.Metrics.timer reg Obs.Names.explore_time_check;
    m_dedup = Obs.Metrics.timer reg Obs.Names.explore_time_dedup;
  }

(* Timing helpers that vanish when unobserved: [now_if] reads the clock
   only when meters are attached, [lap] charges the elapsed time to the
   selected timer. *)
let now_if om = match om with Some _ -> Obs.Clock.now_ns () | None -> 0

let lap om sel t0 =
  match om with Some m -> Obs.Metrics.Timer.add (sel m) (Obs.Clock.now_ns () - t0) | None -> ()

(* Progress ticks are batched: each traversal bumps the shared atomic
   once per [tick_batch] of its own nodes, keeping the per-node cost at
   one private increment. *)
let tick_batch = 8192

(** Everything one traversal needs.  [split = Some emit] turns the
    children of the node being processed into tasks: each child edge is
    applied (so it is counted once, here) and handed to [emit] with its
    decision and crash count instead of being recursed into. *)
type 'st ctx = {
  cfg : config;
  stats : stats;
  stop : unit -> bool;
  seen : Fingerprint.Store.t option;
  step_state : 'st -> Sim.t -> 'st;
  on_terminal : 'st -> Sim.t -> unit;
  split : (Schedule.decision -> int -> unit) option;
  om : meters option;  (** this traversal's private phase timers *)
  prog : Obs.Progress.t option;  (** shared across workers; tick-batched *)
  limits : limits option;  (** budget enforcement; [None] costs nothing *)
  sym : Fingerprint.Symmetry.group option;
      (** process-symmetry group: fingerprints are canonicalised under it
          before the visited-store probe, and local-step picks switch to
          the equivariant rule (see [decisions]) *)
}

let rec go : 'st. 'st ctx -> Sim.t -> int -> int -> 'st -> unit =
 fun ctx sim depth crashes st ->
  if ctx.stop () then raise Stopped;
  let fresh =
    match ctx.seen with
    | None -> true
    | Some store
      when match ctx.limits with
           | Some l -> Atomic.get l.l_dedup_on
           | None -> true ->
      let t0 = now_if ctx.om in
      let fp = Fingerprint.of_sim ~extra:crashes sim in
      let fp =
        match ctx.sym with
        | Some g -> Fingerprint.Symmetry.canonical g fp
        | None -> fp
      in
      let r = Fingerprint.Store.add store fp in
      lap ctx.om (fun m -> m.m_dedup) t0;
      r
    | Some _ -> (* dedup store dropped by budget degradation *) true
  in
  if not fresh then
    (* an equivalent configuration (same remaining crash budget) was
       reached by another prefix: its futures have already been (or are
       being) explored *)
    ctx.stats.dup <- ctx.stats.dup + 1
  else begin
    let stats = ctx.stats in
    stats.nodes <- stats.nodes + 1;
    (match ctx.limits with Some l -> check_limits l | None -> ());
    (match ctx.prog with
    | Some p when stats.nodes land (tick_batch - 1) = 0 -> Obs.Progress.tick p ~nodes:tick_batch
    | _ -> ());
    if Sim.all_done sim then begin
      stats.terminals <- stats.terminals + 1;
      let t0 = now_if ctx.om in
      ctx.on_terminal st sim;
      lap ctx.om (fun m -> m.m_check) t0
    end
    else if terminal sim then begin
      (* some process is down with no one else runnable: this is a
         complete execution (check it), but recovery may still extend it *)
      stats.terminals <- stats.terminals + 1;
      let t0 = now_if ctx.om in
      ctx.on_terminal st sim;
      lap ctx.om (fun m -> m.m_check) t0;
      if depth < ctx.cfg.max_steps then
        List.iter
          (fun d -> branch ctx sim depth crashes st d)
          (decisions ctx.cfg ~sym:(ctx.sym <> None) ~crashes sim)
    end
    else if depth >= ctx.cfg.max_steps then stats.truncated <- stats.truncated + 1
    else begin
      let ds = decisions ctx.cfg ~sym:(ctx.sym <> None) ~crashes sim in
      match ds with
      | [] ->
        (* deadlock: crashed processes that may not recover, or empty
           scripts; count as truncated so callers notice *)
        stats.truncated <- stats.truncated + 1
      | _ ->
        List.iter
          (fun d ->
            let crashes' =
              match d with
              | Schedule.Dcrash _ | Schedule.Dcrash_sys _ -> crashes + 1
              | _ -> crashes
            in
            branch ctx sim depth crashes' st d)
          ds
    end
  end

(* One child edge: apply the decision on the shared machine, advance the
   path-checker state on the appended history suffix, then recurse (or,
   when splitting, hand the child to [emit] as a task) and revert the
   machine.  [crashes] is the child's crash count: callers charge crash
   decisions at ordinary interior nodes, while the
   terminal-but-extendable path deliberately passes its own count through
   unchanged (see [go]) to keep node accounting identical with the
   historical engine. *)
and branch : 'st. 'st ctx -> Sim.t -> int -> int -> 'st -> Schedule.decision -> unit =
 fun ctx sim depth crashes st d ->
  (* the [now_if]/[lap] pairs compile to nothing when unobserved; the
     recursive [go] call is never inside a timed interval *)
  let t0 = now_if ctx.om in
  let m = Sim.mark sim in
  Schedule.apply sim d;
  lap ctx.om (fun mt -> mt.m_step) t0;
  let t1 = now_if ctx.om in
  let st' = ctx.step_state st sim in
  lap ctx.om (fun mt -> mt.m_check) t1;
  (match ctx.split with
  | None -> go ctx sim (depth + 1) crashes st'
  | Some emit ->
    if ctx.stop () then raise Stopped;
    emit d crashes);
  let t2 = now_if ctx.om in
  Sim.undo_to sim m;
  lap ctx.om (fun mt -> mt.m_step) t2

let never_stop () = false

(* {1 The work-stealing parallel engine} *)

(** A pending subtree in the work-stealing pool, identified purely by
    its decision path from the search root (application order) and the
    crash budget consumed along it.  Carrying paths instead of machines
    is what lets a thief reconstitute the subtree root on its {e own}
    trailed machine — undo to the longest common prefix with its current
    position, replay the rest — and what lets checkpoints persist the
    exact pool contents (a path is exactly a {!Checkpoint.task}). *)
type ptask = { p_path : Schedule.decision list; p_crashes : int }

(* Growable circular deque.  Every operation runs under the owning
   worker's lock (steals are rare and the critical sections are a few
   loads), so the structure itself needs no atomics.  The owner pushes
   and pops at the back — LIFO, so it descends depth-first and its trail
   prefix stays hot — while thieves take from the front: the oldest
   entry, rooted shallowest, hence the biggest subtree to amortise the
   replay. *)
module Dq = struct
  type t = {
    mutable buf : ptask array;
    mutable head : int;  (* index of the oldest element *)
    mutable len : int;
  }

  let dummy = { p_path = []; p_crashes = 0 }
  let create () = { buf = Array.make 64 dummy; head = 0; len = 0 }

  let grow d =
    let buf = Array.make (2 * Array.length d.buf) dummy in
    for i = 0 to d.len - 1 do
      buf.(i) <- d.buf.((d.head + i) mod Array.length d.buf)
    done;
    d.buf <- buf;
    d.head <- 0

  let push_back d t =
    if d.len = Array.length d.buf then grow d;
    d.buf.((d.head + d.len) mod Array.length d.buf) <- t;
    d.len <- d.len + 1

  let pop_back d =
    if d.len = 0 then None
    else begin
      d.len <- d.len - 1;
      let i = (d.head + d.len) mod Array.length d.buf in
      let t = d.buf.(i) in
      d.buf.(i) <- dummy;
      Some t
    end

  let pop_front d =
    if d.len = 0 then None
    else begin
      let t = d.buf.(d.head) in
      d.buf.(d.head) <- dummy;
      d.head <- (d.head + 1) mod Array.length d.buf;
      d.len <- d.len - 1;
      Some t
    end

  let to_list d = List.init d.len (fun i -> d.buf.((d.head + i) mod Array.length d.buf))
end

(* One worker's share of the pool.  [in_progress] is the task the worker
   is currently running; it is only ever written by its owner thread,
   and always under {e some} slot's lock (the victim's at steal time,
   its own at pop and completion), so a snapshot holding every lock sees
   a consistent pool: each live task is in exactly one deque or one
   in-progress slot. *)
type wslot = {
  ws_lock : Mutex.t;
  ws_dq : Dq.t;
  mutable ws_in_progress : ptask option;
}

type ws_result = {
  wsr_failure : exn option;
  wsr_pending : ptask list;  (** tasks left unfinished (empty on a clean drain) *)
  wsr_created : int;  (** tasks ever created, seeds included *)
}

(** Drain [seeds] (and every task dynamically split off them) on [jobs]
    domains with per-worker deques and work stealing.

    Each worker owns a machine cloned from the pristine root.  To start
    a task it {e repositions}: trail-undo to the longest common prefix
    of its current position and the task's path, then silent replay
    (observation suspended) of the rest — replayed edges were already
    counted when the task was split off, so every tree edge lands in the
    engine-invariant counters exactly once, whatever the partition.

    A worker splits a task instead of searching it in place when the
    pool is young ([created < 32·jobs], seeding initial parallelism) or
    starving ([queued < 2·jobs]): the task's root node is then processed
    normally — counted, deduplicated, checked — through {!go} with
    [split] set, and each child edge becomes a new task.  The
    children are buffered during the traversal and only published in the
    completion critical section (accumulator mutex, then the worker's
    own deque lock), together with the task's statistics fold and the
    in-progress slot clear — so any snapshot taken under all the locks
    sees either the parent task pending or its statistics folded and its
    children pending, never half of either.  That atomicity is what
    makes mid-steal checkpoints resume byte-identically.

    One accounting rule: a task counts only when it completes.  Its
    statistics fold into [ctx.stats] and, when an accumulator registry
    [acc_reg] exists, its private registry merges into it, both in the
    completion critical section; a task cut or aborted mid-way is left
    out, so the accumulator always covers exactly the completed tasks.
    Worker registries (steal counts, and idle time when timed) merge at
    the join in worker-id order.  [on_fold] runs under the accumulator
    mutex at every task completion.

    On {!Found}, {!Out_of_budget} or any other escape the first
    exception is published, every worker stops, and the in-flight tasks
    stay in their slots — [wsr_pending] reports them (plus everything
    still queued) so callers can checkpoint or report the remaining
    frontier. *)
let ws_run : type st.
    ctx:st ctx ->
    acc_reg:Obs.Metrics.t option ->
    jobs:int ->
    trace:Obs.Trace.t option ->
    sim0:Sim.t ->
    root_state:st ->
    seeds:ptask list ->
    on_fold:(snapshot:(unit -> ptask list) -> unit) ->
    ws_result =
 fun ~ctx ~acc_reg ~jobs ~trace ~sim0 ~root_state ~seeds ~on_fold ->
  let jobs = max 1 jobs in
  let new_reg () = Option.map (fun _ -> Obs.Metrics.create ()) acc_reg in
  let acc_mutex = Mutex.create () in
  let slots =
    Array.init jobs (fun _ ->
        { ws_lock = Mutex.create (); ws_dq = Dq.create (); ws_in_progress = None })
  in
  let live = Atomic.make 0 in  (* tasks created but not yet completed *)
  let queued = Atomic.make 0 in  (* tasks sitting in deques, stealable *)
  let created = Atomic.make 0 in
  let stop_flag = Atomic.make false in
  let failure : exn option Atomic.t = Atomic.make None in
  let publish e =
    ignore (Atomic.compare_and_set failure None (Some e));
    Atomic.set stop_flag true
  in
  (* distribute seeds round-robin so a resumed multi-domain run starts
     balanced instead of making jobs-1 workers steal everything *)
  List.iteri
    (fun i t ->
      Atomic.incr live;
      Atomic.incr queued;
      Atomic.incr created;
      Dq.push_back slots.(i mod jobs).ws_dq t)
    seeds;
  (* call only while holding [acc_mutex] and no slot lock *)
  let snapshot () =
    Array.iter (fun s -> Mutex.lock s.ws_lock) slots;
    let pending =
      Array.fold_left
        (fun acc s ->
          let q = Dq.to_list s.ws_dq in
          match s.ws_in_progress with Some t -> acc @ (t :: q) | None -> acc @ q)
        [] slots
    in
    Array.iter (fun s -> Mutex.unlock s.ws_lock) slots;
    pending
  in
  let expand_initial = 32 * jobs in
  let low_water = 2 * jobs in
  let worker_regs = Array.make jobs None in
  let worker_steals = Array.make jobs 0 in
  let worker_span = Array.make jobs (0, 0) in
  let worker w () =
    let t0 = Obs.Clock.now_ns () in
    let my = slots.(w) in
    let wreg = new_reg () in
    worker_regs.(w) <- wreg;
    let msteal = Option.map (fun r -> Obs.Metrics.counter r Obs.Names.explore_ws_steals) wreg in
    let midle =
      if ctx.om = None then None
      else Option.map (fun r -> Obs.Metrics.timer r Obs.Names.explore_time_idle) wreg
    in
    (* the worker's machine, repositioned between tasks *)
    let wsim = Sim.clone sim0 in
    Sim.set_obs wsim None;
    Sim.enable_trail wsim;
    let cap = ctx.cfg.max_steps + 2 in
    let applied = ref [||] in
    let marks = Array.make cap (Sim.mark wsim) in
    (* states.(i): path-checker state after the first [i] decisions of
       [applied]; step functions are pure, so prefixes shared between
       consecutive tasks are reused, not recomputed *)
    let states = Array.make cap root_state in
    let reposition (t : ptask) =
      let target = Array.of_list t.p_path in
      let m = Array.length target in
      let n = Array.length !applied in
      let lcp = ref 0 in
      while !lcp < n && !lcp < m && !applied.(!lcp) = target.(!lcp) do
        incr lcp
      done;
      let lcp = !lcp in
      (* the undo counts as worker traffic; the replay is reconstruction,
         not exploration, so it runs unobserved *)
      Sim.set_obs wsim wreg;
      if lcp < n then Sim.undo_to wsim marks.(lcp);
      Sim.set_obs wsim None;
      for i = lcp to m - 1 do
        marks.(i) <- Sim.mark wsim;
        Schedule.apply wsim target.(i);
        states.(i + 1) <- ctx.step_state states.(i) wsim
      done;
      applied := target;
      (m, states.(m))
    in
    let run_task (t : ptask) =
      let depth, st0 = reposition t in
      let treg = new_reg () in
      Sim.set_obs wsim treg;
      let wstats = zero_stats () in
      let buf = ref [] in
      let split = Atomic.get created < expand_initial || Atomic.get queued < low_water in
      let emit d crashes = buf := { p_path = t.p_path @ [ d ]; p_crashes = crashes } :: !buf in
      let wctx =
        {
          ctx with
          stats = wstats;
          stop = (fun () -> Atomic.get stop_flag);
          om = (match (ctx.om, treg) with Some _, Some r -> Some (meters_of r) | _ -> None);
          split = (if split then Some emit else None);
        }
      in
      go wctx wsim depth t.p_crashes st0;
      (* ---- completion: fold + publish children + clear slot ---- *)
      Mutex.lock acc_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock acc_mutex)
        (fun () ->
          Mutex.lock my.ws_lock;
          (* [buf] is in reverse decision order; pushing it back-to-front
             makes the owner's LIFO pops follow decision order while
             thieves steal from the other end *)
          List.iter
            (fun c ->
              Atomic.incr live;
              Atomic.incr queued;
              Atomic.incr created;
              Dq.push_back my.ws_dq c)
            !buf;
          my.ws_in_progress <- None;
          Mutex.unlock my.ws_lock;
          Atomic.decr live;
          add_stats ctx.stats wstats;
          (match (acc_reg, treg) with
          | Some a, Some r -> Obs.Metrics.merge ~into:a r
          | _ -> ());
          on_fold ~snapshot);
      match ctx.prog with
      | Some p ->
        Obs.Progress.task_done p;
        Obs.Progress.set_tasks p (Atomic.get created)
      | None -> ()
    in
    let try_pop_own () =
      Mutex.lock my.ws_lock;
      let r = Dq.pop_back my.ws_dq in
      (match r with
      | Some t ->
        my.ws_in_progress <- Some t;
        Atomic.decr queued
      | None -> ());
      Mutex.unlock my.ws_lock;
      r
    in
    let try_steal () =
      let r = ref None in
      let v = ref 1 in
      while !r = None && !v < jobs do
        let s = slots.((w + !v) mod jobs) in
        Mutex.lock s.ws_lock;
        (match Dq.pop_front s.ws_dq with
        | Some t ->
          (* claiming into [my] slot under the victim's lock keeps the
             move atomic for snapshots, which hold every lock *)
          my.ws_in_progress <- Some t;
          Atomic.decr queued;
          r := Some t
        | None -> ());
        Mutex.unlock s.ws_lock;
        incr v
      done;
      !r
    in
    let idle_since = ref 0 in
    let end_idle () =
      if !idle_since <> 0 then begin
        (match midle with
        | Some tm -> Obs.Metrics.Timer.add tm (Obs.Clock.now_ns () - !idle_since)
        | None -> ());
        idle_since := 0
      end
    in
    (* spin briefly, then sleep with exponential backoff (capped at 1ms):
       pure spinning starves the working domains when the host has fewer
       cores than workers, and a capped sleep bounds steal latency when it
       doesn't *)
    let misses = ref 0 in
    let back_off () =
      incr misses;
      if !misses <= 64 then Domain.cpu_relax ()
      else
        Unix.sleepf (Float.min 0.001 (1e-6 *. float_of_int (1 lsl Int.min 10 (!misses - 64))))
    in
    (try
       let running = ref true in
       while !running do
         if Atomic.get stop_flag then running := false
         else
           match try_pop_own () with
           | Some t ->
             end_idle ();
             misses := 0;
             run_task t
           | None -> (
             match try_steal () with
             | Some t ->
               end_idle ();
               misses := 0;
               worker_steals.(w) <- worker_steals.(w) + 1;
               (match msteal with Some c -> Obs.Metrics.Counter.incr c | None -> ());
               run_task t
             | None ->
               if Atomic.get live = 0 then running := false
               else begin
                 if !idle_since = 0 && midle <> None then
                   idle_since := Obs.Clock.now_ns ();
                 back_off ()
               end)
       done;
       end_idle ()
     with
    | Stopped -> end_idle ()
    | e ->
      end_idle ();
      publish e);
    worker_span.(w) <- (t0, Obs.Clock.now_ns ())
  in
  let domains = List.init (jobs - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  List.iter Domain.join domains;
  (* deterministic join: registries merge sorted by worker id, not in
     whatever order the domains finished *)
  Option.iter
    (fun into -> Array.iter (Option.iter (Obs.Metrics.merge ~into)) worker_regs)
    acc_reg;
  (match trace with
  | Some tr ->
    Array.iteri
      (fun w (s0, s1) ->
        Obs.Trace.span tr ~name:"explore.worker" ~start_ns:s0 ~dur_ns:(s1 - s0)
          [
            ("worker", Obs.Trace.Int w);
            ("steals", Obs.Trace.Int worker_steals.(w));
          ])
      worker_span
  | None -> ());
  {
    wsr_failure = Atomic.get failure;
    wsr_pending = snapshot ();
    wsr_created = Atomic.get created;
  }

(** The soundness-checked process-symmetry group of [sim]'s root
    configuration under [cfg], if any: recovery obliviousness is only
    required when [cfg] can actually schedule a crash.  Exposed so the
    CLI can report whether a scenario is being quotiented. *)
let symmetry_group cfg sim =
  if Sim.persist_mode sim = Nvm.Memory.Explicit then None
    (* pid-symmetry quotienting is disabled under the explicit-persist
       model: dirty-cell ownership is pid-attributed state the canonical
       form does not permute, so the quotient would conflate
       configurations with different persistence futures *)
  else
  let crashes_possible = cfg.max_crashes > 0 && cfg.crash_procs <> [] in
  (* when no crash can be scheduled the crash set is inert: don't let it
     constrain the permutations *)
  Fingerprint.Symmetry.detect ~crashes_possible
    ~crash_procs:(if crashes_possible then cfg.crash_procs else [])
    sim

(** Where and how often to checkpoint; see {!search}. *)
type checkpoint_spec = {
  cp_path : string;
  cp_interval_s : float;  (** minimum seconds between periodic saves *)
  cp_scenario : (string * string) list;
      (** stamp persisted into the checkpoint; a resume must present an
          equal stamp (the CLI enforces this) *)
}

(** The one search behind every public entry point.  It picks the
    engine from its inputs, builds the traversal context, runs the
    search, maps how it ended to an {!outcome}, and reports the totals
    (registry counters, the [explore.search] span, outcome events, the
    final progress line) in one place.

    Only [jobs > 1], a [checkpoint] or a [resume] needs a pending task
    set, so only they run the work-stealing pool; every other search is
    the direct trailed DFS.  The pool counts a task when it completes
    (see {!ws_run}), so its statistics and the accumulator cover exactly
    the completed tasks, which is what a checkpoint persists and a resume
    adopts.  The direct DFS counts everything it explored.

    The search counts into a private accumulator registry, created
    whenever anyone will read metrics — the caller ([obs]) or a
    checkpoint file — and merged into [obs] at the end.  The phase
    timers read the clock only when [obs] is given. *)
let search ?(cfg = default_config) ?(jobs = 1) ?(dedup = false) ?(symmetry = true) ?obs
    ?progress ?trace ?(budget = no_budget) ?should_stop ?checkpoint ?resume
    ?(check_mode = `Terminal) ~check sim0 =
  let jobs = max 1 jobs in
  (match resume with
  | Some ck when ck.Checkpoint.result <> None ->
    invalid_arg "Explore.search: checkpoint is already finalized (it carries a verdict)"
  | _ -> ());
  let pc =
    match (check_mode : check_mode) with
    | `Terminal ->
      Path { init = (fun _ -> ()); step = (fun () _ -> ()); terminal = (fun () sim -> check sim) }
    | `Incremental pc -> pc
  in
  match pc with
  | Path p ->
    let t_start = Obs.Clock.now_ns () in
    let limits = limits_of ~budget ~should_stop in
    let acc_reg =
      if obs <> None || checkpoint <> None || resume <> None then Some (Obs.Metrics.create ())
      else None
    in
    let ctx =
      {
        cfg;
        stats = zero_stats ();
        stop = never_stop;
        seen = (if dedup then Some (Fingerprint.Store.create ()) else None);
        step_state = p.step;
        on_terminal =
          (fun st sim ->
            match p.terminal st sim with
            | Some reason ->
              (* the machine at a terminal is the search's working machine,
                 about to be rewound: capture an independent snapshot *)
              raise (Found (Sim.clone sim, reason))
            | None -> ());
        split = None;
        om = (match (obs, acc_reg) with Some _, Some r -> Some (meters_of r) | _ -> None);
        prog = progress;
        limits;
        (* the quotient only matters where fingerprints are compared *)
        sym = (if dedup && symmetry then symmetry_group cfg sim0 else None);
      }
    in
    let acc = ctx.stats in
    (match (ctx.sym, trace) with
    | Some g, Some tr ->
      Obs.Trace.event tr ~name:"explore.symmetry"
        [ ("degree", Obs.Trace.Int (Fingerprint.Symmetry.degree g)) ]
    | _ -> ());
    (* ---- seeds: the root task, or the checkpointed pending set ---- *)
    let seeds =
      match resume with
      | Some ck ->
        (* adopt the persisted accumulations: totals and metrics cover
           exactly the tasks already completed *)
        acc.nodes <- ck.Checkpoint.totals.Checkpoint.ck_nodes;
        acc.terminals <- ck.Checkpoint.totals.Checkpoint.ck_terminals;
        acc.truncated <- ck.Checkpoint.totals.Checkpoint.ck_truncated;
        acc.dup <- ck.Checkpoint.totals.Checkpoint.ck_dup;
        (match acc_reg with
        | Some reg ->
          List.iter (fun (n, v) -> Obs.Metrics.absorb ~into:reg n v) ck.Checkpoint.metrics
        | None -> ());
        let pending =
          Array.to_list ck.Checkpoint.tasks
          |> List.filter_map (fun t ->
                 if t.Checkpoint.ck_done then None
                 else
                   Some
                     { p_path = t.Checkpoint.ck_path; p_crashes = t.Checkpoint.ck_crashes })
        in
        (match trace with
        | Some tr ->
          Obs.Trace.event tr ~name:"explore.resume"
            [
              ("tasks", Obs.Trace.Int (Array.length ck.Checkpoint.tasks));
              ("pending", Obs.Trace.Int (List.length pending));
            ]
        | None -> ());
        pending
      | None -> [ { p_path = []; p_crashes = 0 } ]
    in
    (* persist the {e pending} task set: a resume re-seeds the pool with
       exactly these paths, and the adopted totals/metrics cover exactly
       the completed tasks — nothing is counted twice, nothing is lost *)
    let save_ck ~pending ~result =
      match checkpoint with
      | None -> ()
      | Some spec ->
        let tasks =
          Array.of_list
            (List.map
               (fun t ->
                 { Checkpoint.ck_path = t.p_path; ck_crashes = t.p_crashes; ck_done = false })
               pending)
        in
        Checkpoint.save ~path:spec.cp_path
          {
            Checkpoint.scenario = spec.cp_scenario;
            tasks;
            totals =
              {
                Checkpoint.ck_nodes = acc.nodes;
                ck_terminals = acc.terminals;
                ck_truncated = acc.truncated;
                ck_dup = acc.dup;
              };
            metrics = (match acc_reg with Some r -> Obs.Metrics.to_list r | None -> []);
            result;
          };
        (match trace with
        | Some tr ->
          Obs.Trace.event tr ~name:"explore.checkpoint.save"
            [
              ("pending", Obs.Trace.Int (Array.length tasks));
              ("final", Obs.Trace.Bool (result <> None));
            ]
        | None -> ())
    in
    (* an initial save right away: a kill during early processing can
       already resume *)
    save_ck ~pending:seeds ~result:None;
    let pooled = jobs > 1 || checkpoint <> None || resume <> None in
    (match progress with
    | Some p when pooled -> Obs.Progress.set_tasks p (List.length seeds)
    | _ -> ());
    let last_save = ref (Obs.Clock.now_ns ()) in
    (* runs under the accumulator mutex at every task completion;
       [snapshot] walks every deque and in-progress slot under their
       locks, so the saved pending set is exactly the live pool at a fold
       boundary *)
    let on_fold ~snapshot =
      match checkpoint with
      | Some spec ->
        let now = Obs.Clock.now_ns () in
        if float_of_int (now - !last_save) >= spec.cp_interval_s *. 1e9 then begin
          last_save := now;
          save_ck ~pending:(snapshot ()) ~result:None
        end
      | None -> ()
    in
    (* the root: one private trailed clone whose [init] runs exactly once,
       its counters landing on the accumulator — except on resume, where
       they were absorbed from the checkpoint already.  The direct DFS
       mutates it in place (an abort-by-exception skips the pending
       undos, so the caller's machine must never be the one searched);
       pool workers clone it and re-point their observation *)
    let root = Sim.clone sim0 in
    Sim.enable_trail root;
    Sim.set_obs root (if resume = None then acc_reg else None);
    let st0 = p.init root in
    let failure, pending =
      if not pooled then
        match go ctx root 0 0 st0 with () -> (None, []) | exception e -> (Some e, [])
      else begin
        let r = ws_run ~ctx ~acc_reg ~jobs ~trace ~sim0:root ~root_state:st0 ~seeds ~on_fold in
        Option.iter
          (fun reg ->
            Obs.Metrics.Counter.add (Obs.Metrics.counter reg Obs.Names.explore_tasks) r.wsr_created)
          acc_reg;
        (r.wsr_failure, r.wsr_pending)
      end
    in
    (match (acc_reg, ctx.seen) with
    | Some reg, Some store ->
      Obs.Metrics.Counter.add
        (Obs.Metrics.counter reg Obs.Names.explore_store_contention)
        (Fingerprint.Store.contention store)
    | _ -> ());
    (* reached on every outcome and on abort-by-exception, so the totals,
       the trace span and the final progress line reflect whatever was
       actually explored *)
    let finish () =
      (match obs with
      | Some reg ->
        Option.iter (Obs.Metrics.merge ~into:reg) acc_reg;
        let c name v = Obs.Metrics.Counter.add (Obs.Metrics.counter reg name) v in
        c Obs.Names.explore_nodes acc.nodes;
        c Obs.Names.explore_terminals acc.terminals;
        c Obs.Names.explore_truncated acc.truncated;
        c Obs.Names.explore_dedup_pruned acc.dup;
        Obs.Metrics.Timer.add
          (Obs.Metrics.timer reg Obs.Names.explore_time_total)
          (Obs.Clock.now_ns () - t_start)
      | None -> ());
      (match trace with
      | Some tr ->
        Obs.Trace.span tr ~name:"explore.search" ~start_ns:t_start
          ~dur_ns:(Obs.Clock.now_ns () - t_start)
          [
            ("jobs", Obs.Trace.Int jobs);
            ("nodes", Obs.Trace.Int acc.nodes);
            ("terminals", Obs.Trace.Int acc.terminals);
            ("truncated", Obs.Trace.Int acc.truncated);
            ("dup", Obs.Trace.Int acc.dup);
          ]
      | None -> ());
      match progress with Some p -> Obs.Progress.finish p ~nodes:acc.nodes | None -> ()
    in
    let outcome =
      match failure with
      | None ->
        save_ck ~pending:[] ~result:(Some ("clean", ""));
        Clean
      | Some (Found (sim, reason)) ->
        (match trace with
        | Some tr ->
          Obs.Trace.event tr ~name:"explore.violation" [ ("reason", Obs.Trace.Str reason) ]
        | None -> ());
        save_ck ~pending ~result:(Some ("violation", reason));
        Violation (sim, reason)
      | Some (Out_of_budget reason) ->
        (* budget aborts are verdicts, not failures: the stats accumulated
           so far describe real coverage *)
        save_ck ~pending ~result:None;
        let ex =
          {
            ex_reason = reason;
            ex_frontier = List.length pending;
            ex_degraded = (match limits with Some l -> Atomic.get l.l_degraded | None -> []);
          }
        in
        (match trace with
        | Some tr ->
          Obs.Trace.event tr ~name:"explore.exhausted"
            [
              ("reason", Obs.Trace.Str (exhaust_reason_name reason));
              ("frontier", Obs.Trace.Int ex.ex_frontier);
            ]
        | None -> ());
        Exhausted ex
      | Some e ->
        finish ();
        raise e
    in
    finish ();
    (outcome, acc)

(** {!search} reduced to the violation it found, if any. *)
let find_violation ?cfg ?jobs ?dedup ?symmetry ?obs ?progress ?trace ?budget ?should_stop
    ?check_mode ~check sim0 =
  match
    search ?cfg ?jobs ?dedup ?symmetry ?obs ?progress ?trace ?budget ?should_stop ?check_mode
      ~check sim0
  with
  | Violation (sim, reason), stats -> (Some (sim, reason), stats)
  | (Clean | Exhausted _), stats -> (None, stats)

(** {!search} with a path checker that only calls back and never judges:
    [on_step] after every applied decision, [on_terminal] on every
    complete execution.  [on_terminal] may raise to abort the search;
    the exception escapes unchanged. *)
let dfs ?cfg ?jobs ?dedup ?symmetry ?obs ?progress ?trace ?budget ?should_stop ?on_step
    ~on_terminal sim0 =
  let step = match on_step with None -> fun () _ -> () | Some f -> fun () sim -> f sim in
  let terminal () sim =
    on_terminal sim;
    None
  in
  snd
    (search ?cfg ?jobs ?dedup ?symmetry ?obs ?progress ?trace ?budget ?should_stop
       ~check_mode:(`Incremental (Path { init = (fun _ -> ()); step; terminal }))
       ~check:(fun _ -> None)
       sim0)
