(** Schedules: who takes the next step, and when crash and recovery steps
    occur.  The machine is driven by a policy that inspects the simulator
    and picks the next decision; this module provides the standard
    policies (round-robin, seeded random with crash injection, scripted)
    and the driver loop. *)

type decision =
  | Dstep of int
  | Dcrash of int
  | Dcrash_sys of int
      (** full-system crash (power failure): every live process fails at
          the same instant; the argument is the persist mask passed to
          {!Sim.crash_all} — bit [i] = the [i]-th dirty cell (in address
          order) reaches the medium, clear bits are lost.  [0] loses every
          unflushed write; always [0] in instant mode, where the heap has
          nothing to lose. *)
  | Drecover of int
  | Dhalt

let pp_decision ppf = function
  | Dstep p -> Fmt.pf ppf "step p%d" p
  | Dcrash p -> Fmt.pf ppf "crash p%d" p
  | Dcrash_sys mask -> Fmt.pf ppf "crash sys mask=%d" mask
  | Drecover p -> Fmt.pf ppf "recover p%d" p
  | Dhalt -> Fmt.string ppf "halt"

type policy = Sim.t -> decision

(* step-level tracing: enable with a Logs reporter and
   [Logs.Src.set_level src (Some Debug)]; see bin/nrlsim's --verbose *)
let src = Logs.Src.create "nrl.machine" ~doc:"NRL machine decisions"

module Log = (val Logs.src_log src)

(** Apply one decision.  Raises [Invalid_argument] on an inapplicable
    decision, which indicates a policy bug. *)
let apply sim d =
  (* the message closure is built only when it will be printed *)
  (match Logs.Src.level src with
  | Some Logs.Debug ->
    Log.debug (fun m ->
        m "%a | %a" pp_decision d
          Fmt.(array ~sep:sp Sim.pp_proc)
          (Array.init (Sim.nprocs sim) (Sim.proc sim)))
  | _ -> ());
  match d with
  | Dstep p -> Sim.step sim p
  | Dcrash p -> Sim.crash sim p
  | Dcrash_sys mask -> Sim.crash_all ~mask sim
  | Drecover p -> Sim.recover sim p
  | Dhalt -> invalid_arg "Schedule.apply: halt"

type outcome = Completed | Halted | Out_of_steps

(** Drive [sim] with [policy] until every process has completed its script,
    the policy halts, or [max_steps] machine steps have been taken. *)
let run ?(max_steps = 100_000) sim policy =
  let rec loop steps =
    if Sim.all_done sim then Completed
    else if steps >= max_steps then Out_of_steps
    else
      match policy sim with
      | Dhalt -> Halted
      | d ->
        apply sim d;
        loop (steps + 1)
  in
  loop 0

(** Round-robin over live processes; a crashed process is recovered as soon
    as its turn comes. *)
let round_robin () : policy =
  let cursor = ref 0 in
  fun sim ->
    let n = Sim.nprocs sim in
    let rec find k =
      if k >= n then Dhalt
      else
        let p = (!cursor + k) mod n in
        if Sim.can_recover sim p then begin
          cursor := (p + 1) mod n;
          Drecover p
        end
        else if Sim.enabled sim p then begin
          cursor := (p + 1) mod n;
          Dstep p
        end
        else find (k + 1)
    in
    find 0

(* A tiny self-contained PRNG so schedules are reproducible and independent
   of the global [Random] state. *)
module Prng = struct
  type t = { mutable s : int }

  let create seed = { s = (if seed = 0 then 0x2545f491 else seed land max_int) }

  let bits t =
    let s = t.s in
    let s = s lxor (s lsl 13) in
    let s = s lxor (s lsr 7) in
    let s = s lxor (s lsl 17) in
    t.s <- s land max_int;
    t.s

  let int t n = if n <= 0 then 0 else bits t mod n
  let float t = float_of_int (bits t land 0xFFFFFF) /. 16777216.0
  let pick t l = List.nth l (int t (List.length l))
end

(* a uniform draw among the first [k] entries of [a]: the same one
   [Prng.int] draw that [Prng.pick] makes on a [k]-element list *)
let pick rng a k = a.(Prng.int rng k)

(** Seeded uniform-random schedule with crash injection.

    - With probability [crash_prob], and while fewer than [max_crashes]
      crashes have been injected, crash a random live process that has a
      pending operation (crashes in the middle of operations are the
      interesting adversarial case; idle crashes are exercised separately).
    - A crashed process is recovered with probability [recover_prob] each
      time it is considered; otherwise other processes keep running first,
      modelling a slow resurrection. *)
let random ?(crash_prob = 0.0) ?(recover_prob = 0.5) ?(max_crashes = max_int)
    ?(system_crash_prob = 0.0) ~seed () : policy =
  let rng = Prng.create seed in
  let crashes = ref 0 in
  (* decisions queued by a system-wide crash: every live process fails at
     the same point, as in the full-system failure model *)
  let pending = ref [] in
  (* the four candidate sets, each the prefix of a reused array in
     ascending pid order; sized on the first decision *)
  let mid_op = ref [||] and live = ref [||] and crashed = ref [||] and enabled = ref [||] in
  fun sim ->
    match !pending with
    | d :: rest ->
      pending := rest;
      d
    | [] ->
      let n = Sim.nprocs sim in
      if Array.length !live <> n then begin
        mid_op := Array.make n 0;
        live := Array.make n 0;
        crashed := Array.make n 0;
        enabled := Array.make n 0
      end;
      let mid_op = !mid_op and live = !live and crashed = !crashed and enabled = !enabled in
      let n_mid = ref 0 and n_live = ref 0 and n_crashed = ref 0 and n_enabled = ref 0 in
      for p = 0 to n - 1 do
        if Sim.can_crash ~mid_op_only:true sim p then begin
          mid_op.(!n_mid) <- p;
          incr n_mid
        end;
        if Sim.can_crash sim p then begin
          live.(!n_live) <- p;
          incr n_live
        end;
        if Sim.can_recover sim p then begin
          crashed.(!n_crashed) <- p;
          incr n_crashed
        end;
        if Sim.enabled sim p then begin
          enabled.(!n_enabled) <- p;
          incr n_enabled
        end
      done;
      if !crashes < max_crashes && !n_mid > 0 && Prng.float rng < system_crash_prob then begin
        incr crashes;
        if Sim.persist_mode sim = Nvm.Memory.Explicit then
          (* power failure proper: one atomic decision, losing every
             unflushed write (the deterministic adversarial choice —
             exhaustive mask enumeration is the explorer's job) *)
          Dcrash_sys 0
        else begin
          pending := List.init (!n_live - 1) (fun i -> Dcrash live.(i + 1));
          Dcrash live.(0)
        end
      end
      else if !crashes < max_crashes && !n_mid > 0 && Prng.float rng < crash_prob then begin
        incr crashes;
        Dcrash (pick rng mid_op !n_mid)
      end
      else if !n_crashed > 0 && (!n_enabled = 0 || Prng.float rng < recover_prob) then
        Drecover (pick rng crashed !n_crashed)
      else if !n_enabled > 0 then Dstep (pick rng enabled !n_enabled)
      else if !n_crashed > 0 then Drecover (pick rng crashed !n_crashed)
      else Dhalt

(** Replay an explicit decision list, then halt. *)
let scripted decisions : policy =
  let rest = ref decisions in
  fun _ ->
    match !rest with
    | [] -> Dhalt
    | d :: tl ->
      rest := tl;
      d
