(** The crash-recovery machine: executes recoverable-object programs under
    an external schedule, injecting crash and recovery steps, and records
    the resulting history.

    This is the executable form of the paper's individual-process
    crash-recovery model (Section 2):

    - shared variables live in simulated NVRAM ({!Nvm.Memory}) and survive
      crashes;
    - local variables are volatile ({!Env}) and are scrambled to arbitrary
      values by a crash;
    - each process runs a stack of frames, one per pending (possibly
      nested) recoverable operation; the stack structure, the operations'
      arguments and the program counters are system metadata and persist;
    - a recovery step resurrects a process by invoking [Op.Recover] of the
      inner-most pending operation, with [Op]'s original arguments and the
      persistent instruction index [LI_p];
    - a crash during recovery leaves the crashed operation unchanged, so
      the next recovery step re-invokes the same recovery function. *)

type phase = Body | Recovery

type frame = {
  f_obj : Objdef.instance;
  f_op : Objdef.op_def;
  f_args : Nvm.Value.t array;
  mutable f_phase : phase;
  mutable f_pc : int;  (** pc within the current program; persists (system metadata) *)
  mutable f_li : int;
      (** [LI_p]: paper line of the last instruction of the operation's
          {e body} that started executing; -1 before any did.  Updated as
          the body runs (an [Invoke] line stays current while the nested
          call is pending), frozen while the recovery function runs. *)
  mutable f_interrupted : bool;
      (** set by a crash for {e every} pending frame: when the inner
          operation's recovery completes, an interrupted parent runs its
          own recovery function instead of resuming normally (its locals
          were scrambled too) — this is what makes recovery cascade
          outward through the nesting, as the paper's counter requires *)
  mutable f_env : Env.t;  (** volatile locals *)
  f_dst : string option;  (** parent's local receiving the response *)
  f_call_id : int;
  f_ctx : Program.ctx;
      (** the context the frame's expressions read, built when the frame
          is pushed; its [li_line] is refreshed before each instruction *)
  f_opref : History.Step.opref;  (** the operation, as history steps name it *)
  f_strict : Nvm.Memory.addr array option;
      (** the operation's per-process response cells if it is strict
          (Definition 1), looked up once at push *)
}

type status = Ready | Crashed

(** Arguments of a scripted operation: fixed values, or computed when the
    operation is invoked (a client that, e.g., CASes from the value it just
    observed).  Computation must be deterministic and must not mutate the
    machine. *)
type arg_spec = Args of Nvm.Value.t array | Compute of (Nvm.Memory.t -> Nvm.Value.t array)

type proc = {
  pid : int;
  mutable stack : frame list;  (** inner-most first *)
  mutable script : (Objdef.instance * string * arg_spec) list;
  mutable status : status;
  mutable results : (string * Nvm.Value.t) list;  (** completed top-level ops, newest first *)
  mutable crashes : int;
}

(** Pre-resolved metric handles for the machine's own counters: resolved
    once in {!set_obs}, so the hot paths below pay one [option] match and
    one field bump per event.  The counters are monotone and are {e not}
    rolled back by {!undo_to} — they count work performed, and an
    explorer visiting each tree edge exactly once therefore reads
    engine-invariant totals from them (see {!Obs.Names}). *)
type meters = {
  sm_reg : Obs.Metrics.t;
  sm_steps : Obs.Metrics.counter;
  sm_invs : Obs.Metrics.counter;
  sm_ress : Obs.Metrics.counter;
  sm_crashes : Obs.Metrics.counter;
  sm_recoveries : Obs.Metrics.counter;
  sm_flushes : Obs.Metrics.counter;
  sm_fences : Obs.Metrics.counter;
  sm_undos : Obs.Metrics.counter;
  sm_undo_depth : Obs.Metrics.histogram;
}

(** A process's cached part of the configuration key (see
    {!key_segment}): its bytes, the view they encode, and the
    junk-generator state they embed when some frame's environment is
    scrambled ([-1] when none is: junk states are non-negative). *)
type segment = { seg_key : string; seg_view : Procview.proc; seg_junk : int }

type t = {
  mem : Nvm.Memory.t;
  reg : Objdef.registry;
  procs : proc array;
  junk : Junk.t;
  annotate : bool;
      (** objects should emit flush/fence annotations when built on an
          explicit-persist heap; [false] builds the paper's bare
          transcriptions even in {!Nvm.Memory.Explicit} mode (the
          "unannotated algorithms are violated" demonstration) *)
  mutable hist_rev : History.Step.t list;
  mutable hist_len : int;  (** [List.length hist_rev], maintained incrementally *)
  mutable next_call : int;
  mutable total_steps : int;
  mutable trail : Nvm.Trail.t option;
      (** when set, every machine mutation below logs an undo thunk (or is
          covered by a {!mark} snapshot), enabling in-place backtracking *)
  mutable obs_m : meters option;
  mutable keyed : bool;  (** [segs] is maintained *)
  segs : segment option array;
      (** per process: its key segment for the current state, if kept;
          state; dropped when the process steps, crashes or recovers *)
}

let create ?(seed = 1) ?(persist = Nvm.Memory.Instant) ?(annotate = true) ~nprocs () =
  {
    mem = Nvm.Memory.create ~mode:persist ();
    reg = Objdef.create_registry ();
    procs =
      Array.init nprocs (fun pid ->
          { pid; stack = []; script = []; status = Ready; results = []; crashes = 0 });
    junk = Junk.create seed;
    annotate;
    hist_rev = [];
    hist_len = 0;
    next_call = 0;
    total_steps = 0;
    trail = None;
    obs_m = None;
    keyed = false;
    segs = Array.make nprocs None;
  }

let persist_mode t = Nvm.Memory.mode t.mem

(** Objects consult this at build time: annotate with flush points iff the
    heap is explicit-persist and annotations were not suppressed. *)
let persist_annotations t = Nvm.Memory.mode t.mem = Nvm.Memory.Explicit && t.annotate

let set_obs t o =
  t.obs_m <-
    Option.map
      (fun reg ->
        {
          sm_reg = reg;
          sm_steps = Obs.Metrics.counter reg Obs.Names.sim_steps;
          sm_invs = Obs.Metrics.counter reg Obs.Names.sim_invocations;
          sm_ress = Obs.Metrics.counter reg Obs.Names.sim_responses;
          sm_crashes = Obs.Metrics.counter reg Obs.Names.sim_crashes;
          sm_recoveries = Obs.Metrics.counter reg Obs.Names.sim_recoveries;
          sm_flushes = Obs.Metrics.counter reg Obs.Names.sim_flushes;
          sm_fences = Obs.Metrics.counter reg Obs.Names.sim_fences;
          sm_undos = Obs.Metrics.counter reg Obs.Names.trail_undos;
          sm_undo_depth = Obs.Metrics.histogram reg Obs.Names.trail_undo_depth;
        })
      o

let obs t = Option.map (fun m -> m.sm_reg) t.obs_m

let mem t = t.mem
let registry t = t.reg
let nprocs t = Array.length t.procs
let total_steps t = t.total_steps
let history t = History.of_list (List.rev t.hist_rev)
let history_length t = t.hist_len

let history_suffix t n =
  if n < 0 || n > t.hist_len then
    invalid_arg
      (Printf.sprintf "Sim.history_suffix: index %d out of range (length %d)" n t.hist_len);
  let rec take k l acc =
    if k = 0 then acc
    else
      match l with
      | s :: rest -> take (k - 1) rest (s :: acc)
      | [] -> assert false
  in
  take (t.hist_len - n) t.hist_rev []

let junk_state t = Junk.state t.junk
let junk_strategy t = Junk.strategy t.junk
let set_junk_strategy t s = Junk.set_strategy t.junk s

(** The distinct values currently stored in NVRAM, sorted — the pool a
    [Junk.Lure] adversary draws from.  Take it after scenario setup so
    initial object state is represented. *)
let lure_pool t =
  Nvm.Memory.snapshot t.mem |> Array.to_list |> List.sort_uniq compare |> Array.of_list

let apply_junk_strategy t name =
  match name with
  | "lure" -> set_junk_strategy t (Junk.Lure (lure_pool t))
  | _ -> (
    match List.assoc_opt name Junk.constant_strategies with
    | Some s -> set_junk_strategy t s
    | None ->
      invalid_arg
        (Printf.sprintf "Sim.apply_junk_strategy: unknown strategy %S (expected one of %s)"
           name
           (String.concat ", " Junk.strategy_names)))

let proc t p = t.procs.(p)
let status t p = t.procs.(p).status
let results t p = List.rev t.procs.(p).results
let crash_count t p = t.procs.(p).crashes

let frame_view (f : frame) : Procview.frame =
  {
    ff_obj = f.f_obj.Objdef.id;
    ff_op = f.f_op.Objdef.op_name;
    ff_recovery = (match f.f_phase with Body -> false | Recovery -> true);
    ff_pc = f.f_pc;
    ff_li = f.f_li;
    ff_interrupted = f.f_interrupted;
    ff_env = Env.bindings f.f_env;
    ff_env_junk = Env.junk_state f.f_env;
    ff_args = f.f_args;
  }

let proc_view t p : Procview.proc =
  let pr = t.procs.(p) in
  {
    pf_crashed = (match pr.status with Ready -> false | Crashed -> true);
    pf_script = List.length pr.script;
    pf_results = pr.results;
    pf_stack = List.map frame_view pr.stack;
  }

(* {1 Key segments}

   Nothing here runs before the first [set_key_segment]: a step then
   pays one test of [keyed].  Once keyed, a trailed machine logs the
   segment each drop replaces, so undo puts it back. *)

let key_segment t p =
  match t.segs.(p) with
  | Some s as kept when s.seg_junk < 0 || s.seg_junk = Junk.state t.junk -> kept
  | _ -> None

(* Segments set before the trail records their drops would survive an
   undo past the keying point: the thunk pushed here drops them all. *)
let set_key_segment t p key view =
  if not t.keyed then begin
    t.keyed <- true;
    match t.trail with
    | Some tr -> Nvm.Trail.push tr (fun () -> Array.fill t.segs 0 (Array.length t.segs) None)
    | None -> ()
  end;
  let seg_junk = if Procview.scrambled view then Junk.state t.junk else -1 in
  t.segs.(p) <- Some { seg_key = key; seg_view = view; seg_junk }

let[@inline never] drop_kept_segment t p =
  (match t.trail with
  | Some tr ->
    let old = Array.unsafe_get t.segs p in
    Nvm.Trail.push tr (fun () -> Array.unsafe_set t.segs p old)
  | None -> ());
  Array.unsafe_set t.segs p None

let[@inline] drop_segment t p = if t.keyed then drop_kept_segment t p

let set_script t p ops =
  drop_segment t p;
  t.procs.(p).script <- ops

let append_script t p ops =
  drop_segment t p;
  t.procs.(p).script <- t.procs.(p).script @ ops

(** A process is enabled for a normal step if it is alive and has work:
    either a pending operation or a script entry to start. *)
let enabled t p =
  let pr = t.procs.(p) in
  pr.status = Ready && (pr.stack <> [] || pr.script <> [])

(** A crash step is allowed for any live process.  [mid_op_only] restricts
    to processes with a pending operation (the interesting case). *)
let can_crash ?(mid_op_only = false) t p =
  let pr = t.procs.(p) in
  pr.status = Ready && ((not mid_op_only) || pr.stack <> [])

let can_recover t p = t.procs.(p).status = Crashed

(** The process's next transition is "local": it touches no shared memory
    and can be fired eagerly by a partial-order-reduced exploration.
    Invocation and response steps are included: firing an invocation as
    early as possible and a response as soon as it is enabled yields the
    history with the {e most} real-time constraints among all schedules
    with the same shared-access interleaving, so a reduced search that
    only checks these histories is complete for violation finding. *)
let next_is_local t p =
  let pr = t.procs.(p) in
  pr.status = Ready
  &&
  match pr.stack with
  | [] -> pr.script <> []  (* starting a scripted operation records only INV *)
  | f :: _ -> (
    let prog = match f.f_phase with Body -> f.f_op.Objdef.body | Recovery -> f.f_op.Objdef.recover in
    f.f_pc >= 0 && f.f_pc < Program.length prog
    &&
    match Program.instr prog f.f_pc with
    | Program.Assign _ | Program.Branch_if _ | Program.Jump _ | Program.Ret _
    | Program.Resume _ | Program.Invoke _ ->
      true
    | Program.Read _ | Program.Write _ | Program.Cas_prim _ | Program.Tas_prim _
    | Program.Faa_prim _ | Program.Flush _ | Program.Fence ->
      (* Flush/Fence are shared accesses: a flush does not commute with
         another process's write to the same cell (it decides which value
         a crash can lose), so the reduced search must branch on them *)
      false)

(** The process's next transition is a response step (operation return). *)
let next_is_ret t p =
  let pr = t.procs.(p) in
  pr.status = Ready
  &&
  match pr.stack with
  | [] -> false
  | f :: _ -> (
    let prog = match f.f_phase with Body -> f.f_op.Objdef.body | Recovery -> f.f_op.Objdef.recover in
    f.f_pc >= 0 && f.f_pc < Program.length prog
    && match Program.instr prog f.f_pc with Program.Ret _ -> true | _ -> false)

let all_done t =
  Array.for_all (fun pr -> pr.status = Ready && pr.stack = [] && pr.script = []) t.procs

(* History length, call counter, step counter, junk-generator state and
   memory access statistics are NOT trailed per mutation: they are scalar
   monotone counters, so a {!mark} snapshots them and {!undo_to} restores
   them wholesale.  Everything structural (heap cells, environments,
   stacks, frame fields, statuses) is trailed at its mutation site. *)
let record t s =
  t.hist_rev <- s :: t.hist_rev;
  t.hist_len <- t.hist_len + 1

let fresh_call t =
  let id = t.next_call in
  t.next_call <- id + 1;
  id

let current_program (f : frame) =
  match f.f_phase with Body -> f.f_op.Objdef.body | Recovery -> f.f_op.Objdef.recover

let ctx_of t (f : frame) p : Program.ctx =
  { pid = p; nprocs = Array.length t.procs; args = f.f_args; li_line = f.f_li }

let push_frame t pr (inst : Objdef.instance) opname args dst =
  let opdef = Objdef.find_op inst opname in
  let call_id = fresh_call t in
  let opref = Objdef.opref inst opname in
  let f =
    {
      f_obj = inst;
      f_op = opdef;
      f_args = args;
      f_phase = Body;
      f_pc = 0;
      f_li = -1;
      f_interrupted = false;
      f_env = Env.create ();
      f_dst = dst;
      f_call_id = call_id;
      f_ctx = { pid = pr.pid; nprocs = Array.length t.procs; args; li_line = -1 };
      f_opref = opref;
      f_strict = List.assoc_opt opdef.Objdef.op_name inst.Objdef.strict_cells;
    }
  in
  (match t.trail with
  | None -> ()
  | Some tr ->
    Env.set_trail f.f_env t.trail;
    let old_stack = pr.stack in
    Nvm.Trail.push tr (fun () -> pr.stack <- old_stack));
  pr.stack <- f :: pr.stack;
  (match t.obs_m with Some m -> Obs.Metrics.Counter.incr m.sm_invs | None -> ());
  record t (Inv { pid = pr.pid; opref; args; call_id })

(* Check Definition 1 instrumentation: did the operation persist its
   response in its designated per-process cell before responding?  The
   cell may hold the response directly, or tagged with an invocation
   sequence number as [<seq, ret>] (the refinement strict objects use so
   a caller's recovery can tell *which* invocation the persisted response
   belongs to). *)
let persisted_flag t pr (f : frame) ret =
  match f.f_strict with
  | None -> None
  | Some cells ->
    (* Definition 1 demands the response be *persisted* before the
       operation responds: under the explicit-persist model this consults
       the medium, not the cache (identical in instant mode) *)
    let stored = Nvm.Memory.peek_persisted t.mem cells.(pr.pid) in
    let matches =
      Nvm.Value.equal stored ret
      || (match stored with Nvm.Value.Pair (_, r) -> Nvm.Value.equal r ret | _ -> false)
    in
    Some matches

let complete_op t pr (f : frame) ret =
  (match t.trail with
  | None -> ()
  | Some tr -> (
    let old_stack = pr.stack and old_results = pr.results in
    match pr.stack with
    | _ :: parent :: _ ->
      let old_phase = parent.f_phase
      and old_pc = parent.f_pc
      and old_env = parent.f_env
      and old_intr = parent.f_interrupted in
      Nvm.Trail.push tr (fun () ->
          pr.stack <- old_stack;
          pr.results <- old_results;
          parent.f_phase <- old_phase;
          parent.f_pc <- old_pc;
          parent.f_env <- old_env;
          parent.f_interrupted <- old_intr)
    | _ ->
      Nvm.Trail.push tr (fun () ->
          pr.stack <- old_stack;
          pr.results <- old_results)));
  (match t.obs_m with Some m -> Obs.Metrics.Counter.incr m.sm_ress | None -> ());
  record t
    (Res
       {
         pid = pr.pid;
         opref = f.f_opref;
         ret;
         call_id = f.f_call_id;
         persisted = persisted_flag t pr f ret;
       });
  (match pr.stack with
  | [] -> assert false
  | _ :: rest ->
    pr.stack <- rest;
    (match rest with
    | parent :: _ ->
      (* the response is stored into a local variable of the parent *)
      (match f.f_dst with Some dst -> Env.set parent.f_env dst ret | None -> ());
      if parent.f_interrupted then begin
        (* the parent was pending during a crash: its locals are scrambled,
           so instead of resuming it the system invokes its recovery
           function — recovery cascades outward through the nesting *)
        parent.f_phase <- Recovery;
        parent.f_pc <- 0;
        let env = Env.create_post_crash t.junk in
        Env.set_trail env t.trail;
        parent.f_env <- env;
        parent.f_interrupted <- false
      end
      else parent.f_pc <- parent.f_pc + 1
    | [] -> pr.results <- (f.f_op.Objdef.op_name, ret) :: pr.results))

exception Stuck of string

let exec_instr t pr (f : frame) =
  let prog = current_program f in
  if f.f_pc < 0 || f.f_pc >= Program.length prog then
    raise
      (Stuck
         (Printf.sprintf "p%d: pc %d out of range in %s" pr.pid f.f_pc (Program.name prog)));
  let ctx = f.f_ctx in
  (* expressions see LI_p as it was before this instruction *)
  ctx.li_line <- f.f_li;
  let env = f.f_env in
  (* one combined thunk covers every control-field write this instruction
     can make (pc, LI_p, phase — including [Resume]'s phase switch);
     heap, environment and stack effects are trailed at their own sites *)
  (match t.trail with
  | None -> ()
  | Some tr ->
    let old_pc = f.f_pc and old_li = f.f_li and old_phase = f.f_phase in
    Nvm.Trail.push tr (fun () ->
        f.f_pc <- old_pc;
        f.f_li <- old_li;
        f.f_phase <- old_phase));
  (* LI_p tracks the last body instruction that started executing *)
  (match f.f_phase with
  | Body -> f.f_li <- Program.line_of_pc prog f.f_pc
  | Recovery -> ());
  match Program.instr prog f.f_pc with
  | Assign (x, e) ->
    Env.set env x (e ctx env);
    f.f_pc <- f.f_pc + 1
  | Read (x, a) ->
    Env.set env x (Nvm.Memory.read t.mem (a ctx env));
    f.f_pc <- f.f_pc + 1
  | Write (a, e) ->
    Nvm.Memory.write t.mem (a ctx env) (e ctx env);
    f.f_pc <- f.f_pc + 1
  | Cas_prim (x, a, old_e, new_e) ->
    let ok =
      Nvm.Memory.cas t.mem (a ctx env) ~expected:(old_e ctx env) ~desired:(new_e ctx env)
    in
    Env.set env x (Nvm.Value.Bool ok);
    f.f_pc <- f.f_pc + 1
  | Tas_prim (x, a) ->
    Env.set env x (Nvm.Memory.tas t.mem (a ctx env));
    f.f_pc <- f.f_pc + 1
  | Faa_prim (x, a, d) ->
    let d = Nvm.Value.as_int (d ctx env) in
    Env.set env x (Nvm.Memory.fetch_and_add t.mem (a ctx env) d);
    f.f_pc <- f.f_pc + 1
  | Invoke (dst, oid, opname, arg_es) ->
    let inst = Objdef.find t.reg (oid ctx env) in
    let args = Array.map (fun e -> e ctx env) arg_es in
    (* the parent's pc stays at the Invoke; it advances when the child
       completes, so a crash in between leaves the nesting intact *)
    push_frame t pr inst opname args (Some dst)
  | Branch_if (c, line) ->
    f.f_pc <- (if c ctx env then Program.pc_of_line prog line else f.f_pc + 1)
  | Jump line -> f.f_pc <- Program.pc_of_line prog line
  | Ret e -> complete_op t pr f (e ctx env)
  | Resume line ->
    (* "proceed from line k": recovery continues executing the operation's
       own code; locals carry over (the resumed code re-establishes any it
       needs) *)
    f.f_phase <- Body;
    f.f_pc <- Program.pc_of_line f.f_op.Objdef.body line
  | Flush a ->
    Nvm.Memory.flush t.mem (a ctx env);
    (match t.obs_m with Some m -> Obs.Metrics.Counter.incr m.sm_flushes | None -> ());
    f.f_pc <- f.f_pc + 1
  | Fence ->
    Nvm.Memory.fence t.mem;
    (match t.obs_m with Some m -> Obs.Metrics.Counter.incr m.sm_fences | None -> ());
    f.f_pc <- f.f_pc + 1

(** Execute one step of process [p]: start the next scripted operation if
    idle, otherwise execute one instruction of the inner-most frame. *)
let step t p =
  let pr = t.procs.(p) in
  if pr.status <> Ready then invalid_arg (Printf.sprintf "Sim.step: p%d is not ready" p);
  (* writer attribution for the explicit-persist model (no-op semantics in
     instant mode): dirty cells belong to the process that last wrote them *)
  Nvm.Memory.set_current_pid t.mem p;
  drop_segment t p;
  t.total_steps <- t.total_steps + 1;
  (match t.obs_m with Some m -> Obs.Metrics.Counter.incr m.sm_steps | None -> ());
  match pr.stack with
  | f :: _ -> exec_instr t pr f
  | [] -> (
    match pr.script with
    | [] -> invalid_arg (Printf.sprintf "Sim.step: p%d has no work" p)
    | (inst, opname, spec) :: rest ->
      (match t.trail with
      | None -> ()
      | Some tr ->
        let old_script = pr.script in
        Nvm.Trail.push tr (fun () -> pr.script <- old_script));
      pr.script <- rest;
      let args =
        match spec with Args a -> a | Compute f -> f t.mem
      in
      push_frame t pr inst opname args None)

(* Per-process crash effects: locals scrambled, pending frames marked
   interrupted, Crash recorded, status flipped.  Shared by the individual
   {!crash} step and the full-system {!crash_all} step. *)
let crash_proc t (pr : proc) =
  drop_segment t pr.pid;
  (match t.obs_m with Some m -> Obs.Metrics.Counter.incr m.sm_crashes | None -> ());
  (match t.trail with
  | None -> ()
  | Some tr ->
    let old_crashes = pr.crashes and old_status = pr.status in
    let old_intr = List.map (fun f -> (f, f.f_interrupted)) pr.stack in
    Nvm.Trail.push tr (fun () ->
        pr.crashes <- old_crashes;
        pr.status <- old_status;
        List.iter (fun (f, i) -> f.f_interrupted <- i) old_intr));
  pr.crashes <- pr.crashes + 1;
  List.iter
    (fun f ->
      (* [scramble] logs its own undo (old bindings + generator state) *)
      Env.scramble f.f_env t.junk;
      f.f_interrupted <- true)
    pr.stack;
  let crashed =
    match pr.stack with
    | [] -> None
    | f :: _ -> Some (f.f_opref, f.f_call_id)
  in
  record t (Crash { pid = pr.pid; crashed });
  pr.status <- Crashed

(** Crash-failure of process [p]: all local variables become arbitrary; the
    crashed operation is the inner-most pending recoverable operation.
    Under the explicit-persist model an {e individual} process crash loses
    nothing from the heap — the shared volatile cache is hardware and
    survives; only {!crash_all} (power failure) can lose unflushed
    writes. *)
let crash t p =
  let pr = t.procs.(p) in
  if pr.status <> Ready then invalid_arg (Printf.sprintf "Sim.crash: p%d is not ready" p);
  t.total_steps <- t.total_steps + 1;
  crash_proc t pr

(** Full-system crash (power failure): every live process crashes at the
    same instant, and — under the explicit-persist model — each dirty
    cell independently either reaches the medium or reverts to its
    persisted value, as chosen by [mask] (bit [i] = the [i]-th dirty cell
    in address order persists; see {!Nvm.Memory.crash_lose}).  [mask]
    defaults to losing every unflushed write.  In instant mode this is
    just a simultaneous crash of all live processes. *)
let crash_all ?(mask = 0) t =
  if not (Array.exists (fun pr -> pr.status = Ready) t.procs) then
    invalid_arg "Sim.crash_all: no live process";
  t.total_steps <- t.total_steps + 1;
  Nvm.Memory.crash_lose t.mem ~mask;
  Array.iter (fun pr -> if pr.status = Ready then crash_proc t pr) t.procs

(** Recovery step: the system resurrects [p], invoking [Op.Recover] of the
    crashed operation with fresh volatile locals. *)
let recover t p =
  let pr = t.procs.(p) in
  if pr.status <> Crashed then
    invalid_arg (Printf.sprintf "Sim.recover: p%d has not crashed" p);
  t.total_steps <- t.total_steps + 1;
  drop_segment t p;
  (match t.obs_m with Some m -> Obs.Metrics.Counter.incr m.sm_recoveries | None -> ());
  (match t.trail with
  | None -> ()
  | Some tr -> (
    let old_status = pr.status in
    match pr.stack with
    | [] -> Nvm.Trail.push tr (fun () -> pr.status <- old_status)
    | f :: _ ->
      let old_phase = f.f_phase
      and old_pc = f.f_pc
      and old_env = f.f_env
      and old_intr = f.f_interrupted in
      Nvm.Trail.push tr (fun () ->
          pr.status <- old_status;
          f.f_phase <- old_phase;
          f.f_pc <- old_pc;
          f.f_env <- old_env;
          f.f_interrupted <- old_intr)));
  record t (Rec { pid = p });
  (match pr.stack with
  | [] -> ()  (* no pending operation: the process simply resumes its script *)
  | f :: _ ->
    f.f_phase <- Recovery;
    f.f_pc <- 0;
    let env = Env.create_post_crash t.junk in
    Env.set_trail env t.trail;
    f.f_env <- env;
    f.f_interrupted <- false);
  pr.status <- Ready

(* ------------------------------------------------------------------ *)
(* Trail-based backtracking                                            *)

type mark = {
  mk_trail : Nvm.Trail.mark;
  mk_hist : History.Step.t list;  (* persistent list: sharing the old spine is the snapshot *)
  mk_hist_len : int;
  mk_next_call : int;
  mk_total_steps : int;
  mk_junk : int;
  mk_reads : int;
  mk_writes : int;
  mk_rmws : int;
  mk_flushes : int;
  mk_fences : int;
}

let trail_enabled t = t.trail <> None

let enable_trail t =
  match t.trail with
  | Some _ -> ()
  | None ->
    let tr = Nvm.Trail.create () in
    t.trail <- Some tr;
    Nvm.Memory.set_trail t.mem (Some tr);
    (* frames created from here on attach the trail at creation; existing
       frames (machine set up before enabling) are adopted here *)
    Array.iter
      (fun pr -> List.iter (fun f -> Env.set_trail f.f_env (Some tr)) pr.stack)
      t.procs

let mark t =
  match t.trail with
  | None -> invalid_arg "Sim.mark: trail not enabled (call Sim.enable_trail first)"
  | Some tr ->
    let st = Nvm.Memory.stats t.mem in
    {
      mk_trail = Nvm.Trail.mark tr;
      mk_hist = t.hist_rev;
      mk_hist_len = t.hist_len;
      mk_next_call = t.next_call;
      mk_total_steps = t.total_steps;
      mk_junk = Junk.state t.junk;
      mk_reads = st.reads;
      mk_writes = st.writes;
      mk_rmws = st.rmws;
      mk_flushes = st.flushes;
      mk_fences = st.fences;
    }

let undo_to t m =
  match t.trail with
  | None -> invalid_arg "Sim.undo_to: trail not enabled"
  | Some tr ->
    (* structural state first (thunks may also rewind env junk draws),
       then the counters snapshotted by [mark] *)
    let reverted = Nvm.Trail.undo_to tr m.mk_trail in
    (match t.obs_m with
    | Some om ->
      Obs.Metrics.Counter.incr om.sm_undos;
      Obs.Metrics.Histogram.observe om.sm_undo_depth reverted
    | None -> ());
    t.hist_rev <- m.mk_hist;
    t.hist_len <- m.mk_hist_len;
    t.next_call <- m.mk_next_call;
    t.total_steps <- m.mk_total_steps;
    Junk.set_state t.junk m.mk_junk;
    let st = Nvm.Memory.stats t.mem in
    st.reads <- m.mk_reads;
    st.writes <- m.mk_writes;
    st.rmws <- m.mk_rmws;
    st.flushes <- m.mk_flushes;
    st.fences <- m.mk_fences

let clone t =
  (* one copy of the generator, shared by the clone's scrambled
     environments exactly as the original's share [t.junk] *)
  let junk = Junk.copy t.junk in
  let copy_frame (f : frame) =
    {
      f_obj = f.f_obj;
      f_op = f.f_op;
      f_args = f.f_args;
      f_phase = f.f_phase;
      f_pc = f.f_pc;
      f_li = f.f_li;
      f_interrupted = f.f_interrupted;
      f_env = Env.copy ~junk f.f_env;
      f_dst = f.f_dst;
      f_call_id = f.f_call_id;
      (* a clone may step on another domain: it gets its own context *)
      f_ctx = { f.f_ctx with li_line = f.f_ctx.li_line };
      f_opref = f.f_opref;
      f_strict = f.f_strict;
    }
  in
  {
    mem = Nvm.Memory.copy t.mem;
    reg = t.reg;  (* instances are immutable; cell addresses coincide in the copied heap *)
    procs =
      Array.map
        (fun pr ->
          {
            pid = pr.pid;
            stack = List.map copy_frame pr.stack;
            script = pr.script;
            status = pr.status;
            results = pr.results;
            crashes = pr.crashes;
          })
        t.procs;
    junk;
    annotate = t.annotate;
    hist_rev = t.hist_rev;
    hist_len = t.hist_len;
    next_call = t.next_call;
    total_steps = t.total_steps;
    (* a clone is an independent snapshot: it never shares (or inherits) a
       trail — the explorer enables one on every machine it clones *)
    trail = None;
    (* metric handles ARE shared: a clone's work lands in the same
       registry.  Parallel explorers re-point each task's machine at the
       claiming worker's private registry via [set_obs]. *)
    obs_m = t.obs_m;
    (* the clone computes its own segments: none is shared *)
    keyed = false;
    segs = Array.make (Array.length t.procs) None;
  }

(** Short description of a process state, for debugging and error reports. *)
let pp_proc ppf (pr : proc) =
  let pp_frame ppf f =
    Fmt.pf ppf "%s.%s@@%s:%d"
      f.f_obj.Objdef.obj_name f.f_op.Objdef.op_name
      (match f.f_phase with Body -> "body" | Recovery -> "recover")
      (Program.line_of_pc (current_program f) f.f_pc)
  in
  Fmt.pf ppf "p%d[%s; stack=%a; script=%d]" pr.pid
    (match pr.status with Ready -> "ready" | Crashed -> "crashed")
    Fmt.(list ~sep:comma pp_frame)
    pr.stack (List.length pr.script)
