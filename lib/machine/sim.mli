(** The crash-recovery machine — the executable form of the paper's
    individual-process crash-recovery model (Section 2).

    - Shared variables live in simulated NVRAM and survive crashes.
    - Local variables are volatile and are scrambled to arbitrary values
      by a crash.
    - Each process runs a stack of frames, one per pending (possibly
      nested) recoverable operation; the stack structure, operation
      arguments, program counters and [LI_p] persist as system metadata.
    - A recovery step resurrects a process by invoking the recovery
      function of the inner-most pending operation with fresh locals;
      when it completes, recovery cascades outward through interrupted
      parents.
    - A crash during recovery leaves the crashed operation unchanged, so
      the next recovery step re-invokes the same recovery function. *)

type phase = Body | Recovery

type frame = {
  f_obj : Objdef.instance;
  f_op : Objdef.op_def;
  f_args : Nvm.Value.t array;
  mutable f_phase : phase;
  mutable f_pc : int;  (** pc in the current program; system metadata, persists *)
  mutable f_li : int;
      (** [LI_p]: last line of the operation's {e body} that started
          executing; frozen while the recovery function runs *)
  mutable f_interrupted : bool;
      (** set by a crash for every pending frame; an interrupted parent
          runs its own recovery function when its child completes *)
  mutable f_env : Env.t;  (** volatile locals *)
  f_dst : string option;  (** parent's local receiving the response *)
  f_call_id : int;
  f_ctx : Program.ctx;
      (** the context the frame's expressions read, built at push; its
          [li_line] is refreshed before each instruction *)
  f_opref : History.Step.opref;  (** the operation, as history steps name it *)
  f_strict : Nvm.Memory.addr array option;
      (** the operation's per-process response cells if it is strict
          (Definition 1) *)
}

type status = Ready | Crashed

(** Arguments of a scripted operation: fixed, or computed at invocation
    time (deterministically, without mutating the machine). *)
type arg_spec = Args of Nvm.Value.t array | Compute of (Nvm.Memory.t -> Nvm.Value.t array)

type proc = {
  pid : int;
  mutable stack : frame list;  (** inner-most first *)
  mutable script : (Objdef.instance * string * arg_spec) list;
  mutable status : status;
  mutable results : (string * Nvm.Value.t) list;
      (** completed top-level operations, newest first *)
  mutable crashes : int;
}

type t

exception Stuck of string
(** A program ran off the end of its instruction array — an object bug. *)

val create :
  ?seed:int -> ?persist:Nvm.Memory.mode -> ?annotate:bool -> nprocs:int -> unit -> t
(** A fresh machine; [seed] drives the junk used to scramble locals.
    [persist] selects the heap's persistency mode (default
    {!Nvm.Memory.Instant}); [annotate] (default [true]) tells objects
    built on this machine to emit flush/fence annotations when the heap
    is explicit-persist — pass [false] for the bare paper transcriptions
    (see {!persist_annotations}). *)

val persist_mode : t -> Nvm.Memory.mode
(** The heap's persistency mode. *)

val persist_annotations : t -> bool
(** [true] iff objects built on this machine should insert flush/fence
    annotations: the heap is {!Nvm.Memory.Explicit} and [annotate] was
    not suppressed at creation. *)

val mem : t -> Nvm.Memory.t
(** The machine's simulated NVRAM. *)

val registry : t -> Objdef.registry
(** The object registry instances are allocated in. *)

val nprocs : t -> int
(** Number of processes the machine was created with. *)

val total_steps : t -> int
(** Machine steps executed so far — normal steps, crashes and
    recoveries included; restored by {!undo_to}. *)

val set_obs : t -> Obs.Metrics.t option -> unit
(** Attach (or detach, with [None]) a metric registry: from now on the
    machine counts its steps, invocations, responses, crashes,
    recoveries and trail undos into it (names in {!Obs.Names}).  The
    counters are monotone work counters — {!undo_to} does {e not} roll
    them back — and instrumentation touches no memory shared between
    domains, so attaching a registry never changes machine behaviour.
    Handles are resolved here once; the per-event cost is one [option]
    match and one field increment.  {!clone} shares the attachment
    (clones count into the same registry until re-pointed). *)

val obs : t -> Obs.Metrics.t option
(** The registry attached with {!set_obs}, if any — how checker glue
    (e.g. [Workload.Check]) finds where to count without new
    parameters. *)

val junk_state : t -> int
(** State of the machine's junk generator (the source that scrambles
    locals on a crash); included in configuration fingerprints because it
    determines the values future crashes produce. *)

val junk_strategy : t -> Junk.strategy
(** The adversarial junk strategy in force (default {!Junk.Scramble}). *)

val set_junk_strategy : t -> Junk.strategy -> unit
(** Choose how crashed locals are scrambled (see {!Junk.strategy}).  Set
    after scenario setup and before exploration; the choice survives
    {!clone} but is {e not} part of the fingerprint (a run uses one
    strategy throughout). *)

val lure_pool : t -> Nvm.Value.t array
(** The distinct values currently stored in the machine's NVRAM, sorted —
    a ready-made pool for {!Junk.Lure}: junk indistinguishable from
    legitimate persistent data. *)

val apply_junk_strategy : t -> string -> unit
(** Set the strategy by its {!Junk.strategy_name}; ["lure"] builds its
    pool from {!lure_pool} at call time.
    @raise Invalid_argument on an unknown name. *)

val history : t -> History.t
(** The history recorded so far (invocation, response, crash and recovery
    steps, in order). *)

val history_length : t -> int
(** Number of steps recorded so far — O(1); lets an incremental checker
    remember how much of the history it has already consumed. *)

val history_suffix : t -> int -> History.Step.t list
(** [history_suffix t n] is the steps from index [n] (inclusive) to the
    end, in chronological order — the part of the history recorded since
    {!history_length} returned [n].  O(length of the suffix). *)

val proc : t -> int -> proc
(** The process record of pid [p] (shared mutable state — read-only use
    intended). *)

val status : t -> int -> status
(** Whether the process is alive ([Ready]) or down ([Crashed]). *)

val results : t -> int -> (string * Nvm.Value.t) list
(** Completed top-level operations of a process, oldest first. *)

val crash_count : t -> int -> int
(** Number of crash steps injected into the process so far. *)

val set_script : t -> int -> (Objdef.instance * string * arg_spec) list -> unit
(** Install the process's script: top-level operations it will invoke in
    order, each starting when the scheduler next steps an idle process. *)

val append_script : t -> int -> (Objdef.instance * string * arg_spec) list -> unit
(** Append operations to the process's remaining script. *)

(** {1 Key segments}

    The machine keeps, for {!Fingerprint}, each process's part of the
    configuration key.  A segment is dropped when its process steps,
    crashes or recovers or its script is set; a trailed machine puts the
    dropped segment back on undo.  A segment that embeds the junk
    generator's state (some frame's environment is scrambled, and every
    scrambled environment draws from the machine's one generator) is
    valid only while that state is unchanged. *)

val proc_view : t -> int -> Procview.proc
(** Process [p]'s control state as a fingerprint compares it: a fresh,
    immutable copy. *)

type segment = private {
  seg_key : string;  (** the key bytes *)
  seg_view : Procview.proc;  (** what they encode *)
  seg_junk : int;  (** the junk state they embed, or [-1] *)
}

val key_segment : t -> int -> segment option
(** Process [p]'s segment, if one is kept and still valid. *)

val set_key_segment : t -> int -> string -> Procview.proc -> unit
(** Keep [key] and the view it encodes as process [p]'s segment for the
    current state.  It embeds the junk state when the view has a
    scrambled environment ({!Procview.scrambled}). *)

val enabled : t -> int -> bool
(** The process is alive and has work (a pending operation or a script
    entry to start). *)

val can_crash : ?mid_op_only:bool -> t -> int -> bool
(** A crash step is allowed: the process is alive, and — with
    [mid_op_only] — has a pending operation. *)

val can_recover : t -> int -> bool
(** A recovery step is allowed: the process is crashed. *)

val next_is_local : t -> int -> bool
(** The process's next transition touches no shared memory (including
    invocation and response steps); used by the partial-order-reduced
    exploration — see {!Explore}. *)

val next_is_ret : t -> int -> bool
(** The process's next transition is a response step. *)

val all_done : t -> bool
(** Every process is alive with an empty stack and an empty script. *)

val step : t -> int -> unit
(** Execute one step of a process: start the next scripted operation, or
    execute one instruction of the inner-most frame.
    @raise Invalid_argument if the process is not {!enabled}. *)

val crash : t -> int -> unit
(** Crash-failure: scramble every pending frame's locals, mark frames
    interrupted, record the crash step (with the inner-most pending
    operation as the crashed operation).  Under the explicit-persist
    model an individual crash loses nothing from the heap — the shared
    volatile cache survives; only {!crash_all} can lose unflushed writes.
    @raise Invalid_argument if the process is not alive. *)

val crash_all : ?mask:int -> t -> unit
(** Full-system crash (power failure): every live process crashes at the
    same instant.  Under the explicit-persist model each dirty heap cell
    independently either reaches the medium or reverts to its persisted
    value, as chosen by [mask] (bit [i] = the [i]-th dirty cell in
    address order persists; default: every unflushed write is lost) —
    see {!Nvm.Memory.crash_lose}.  Records one crash step per live
    process, in pid order.
    @raise Invalid_argument if no process is alive. *)

val recover : t -> int -> unit
(** Recovery step: resurrect the process, switching its inner-most frame
    to the recovery program with fresh locals.
    @raise Invalid_argument if the process has not crashed. *)

val clone : t -> t
(** Independent deep copy sharing only immutable structure (programs,
    instance definitions); used by the exhaustive explorer and the
    valency analysis.  The clone's scrambled environments share one copy
    of the junk generator, as the original's share its generator, so the
    clone replays any continuation exactly as the original would.  The
    clone carries no trail (see {!enable_trail}). *)

(** {1 Trail-based backtracking}

    Instead of cloning the machine at every branch point, a depth-first
    exploration can {!enable_trail} once, take a {!mark} before applying a
    decision, and {!undo_to} it afterwards: every mutation between the two
    calls — NVRAM cells and allocations, volatile environments and their
    junk draws, frame control fields, process stacks / scripts / statuses,
    recorded history, and all counters — is reverted in place.  What is
    {e not} restored: the identity of [Env.t] values replaced wholesale by
    recovery (the original environment object is re-installed, which is
    observationally equivalent), and the object registry (immutable after
    setup by construction).  Marks obey stack discipline: undo to marks in
    reverse order of taking them. *)

type mark
(** A position in the machine's undo trail plus a snapshot of its scalar
    counters. *)

val enable_trail : t -> unit
(** Switch the machine into trailed mode (idempotent).  Call after setup
    (registration, allocation, scripting) and before exploration; existing
    frames are adopted.  There is no [disable]: {!clone} yields a
    trail-free machine. *)

val trail_enabled : t -> bool
(** Whether {!enable_trail} has been called on this machine. *)

val mark : t -> mark
(** O(1).  @raise Invalid_argument if the trail is not enabled. *)

val undo_to : t -> mark -> unit
(** Revert every mutation made since the mark was taken, newest first.
    Cost is proportional to the number of mutations reverted.
    @raise Invalid_argument if the trail is not enabled, or on a mark
    already undone past (marks are not re-usable across [undo_to] of an
    earlier mark). *)

val current_program : frame -> Program.t
(** The program the frame is executing: the operation's body, or its
    recovery function while the frame is in the [Recovery] phase. *)

val ctx_of : t -> frame -> int -> Program.ctx
(** The evaluation context ([pid], [nprocs], arguments, [LI_p]) that
    expressions of the frame's program are evaluated in. *)

val pp_proc : proc Fmt.t
(** Short description of a process state, for debugging and error
    reports. *)
