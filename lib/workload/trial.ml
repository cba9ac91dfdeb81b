(** Randomized crash-torture trials: build a scenario, run it under a
    seeded random schedule with crash injection, and check NRL.  The
    experiment suites and the property-based tests are built on this. *)

type scenario = {
  scen_name : string;
  nprocs : int;
  build : Machine.Sim.t -> unit;
      (** allocate the scenario's objects and install per-process scripts *)
}

type result = {
  outcome : Machine.Schedule.outcome;
  steps : int;
  crashes : int;
  nrl_ok : bool;
  nrl_reason : string option;
  strict_violations : int;
  history_len : int;
}

let run ?(max_steps = 200_000) ?(crash_prob = 0.02) ?(recover_prob = 0.5)
    ?(max_crashes = 8) ?(system_crash_prob = 0.0) ?(persist = Nvm.Memory.Instant) ?junk
    ?obs ~seed scenario =
  let sim = Machine.Sim.create ~seed ~persist ~nprocs:scenario.nprocs () in
  Machine.Sim.set_obs sim obs;
  scenario.build sim;
  (* after [build]: the lure strategy draws its pool from the NVRAM the
     scenario just initialised *)
  Option.iter (Machine.Sim.apply_junk_strategy sim) junk;
  let policy =
    Machine.Schedule.random ~crash_prob ~recover_prob ~max_crashes ~system_crash_prob
      ~seed:(seed * 7919 + 13) ()
  in
  let outcome = Machine.Schedule.run ~max_steps sim policy in
  let r = Check.nrl sim in
  (* every recorded Crash step bumps its process's crash count *)
  let crashes = ref 0 in
  for p = 0 to scenario.nprocs - 1 do
    crashes := !crashes + Machine.Sim.crash_count sim p
  done;
  ( sim,
    {
      outcome;
      steps = Machine.Sim.total_steps sim;
      crashes = !crashes;
      nrl_ok = Linearize.Nrl.ok r;
      nrl_reason = (if Linearize.Nrl.ok r then None else Some (Linearize.Nrl.explain r));
      strict_violations = List.length (Check.strictness_violations sim);
      history_len = Machine.Sim.history_length sim;
    } )

type summary = {
  trials : int;
  completed : int;
  passed : int;
  failed : int;
  total_crashes : int;
  total_ops : int;
  first_failure : (int * string) option;  (** seed and reason *)
}

(** Run [trials] independent trials with seeds [base_seed .. base_seed +
    trials - 1] and summarise. *)
let batch ?(max_steps = 200_000) ?(crash_prob = 0.02) ?(recover_prob = 0.5)
    ?(max_crashes = 8) ?(system_crash_prob = 0.0) ?(persist = Nvm.Memory.Instant)
    ?(base_seed = 1) ?junk ?obs ~trials scenario =
  let summary =
    ref
      {
        trials;
        completed = 0;
        passed = 0;
        failed = 0;
        total_crashes = 0;
        total_ops = 0;
        first_failure = None;
      }
  in
  for i = 0 to trials - 1 do
    let seed = base_seed + i in
    let _, r =
      run ~max_steps ~crash_prob ~recover_prob ~max_crashes ~system_crash_prob ~persist
        ?junk ?obs ~seed scenario
    in
    let s = !summary in
    summary :=
      {
        s with
        completed = (s.completed + if r.outcome = Machine.Schedule.Completed then 1 else 0);
        passed = (s.passed + if r.nrl_ok then 1 else 0);
        failed = (s.failed + if r.nrl_ok then 0 else 1);
        total_crashes = s.total_crashes + r.crashes;
        total_ops = s.total_ops + (r.history_len / 2);
        first_failure =
          (match s.first_failure, r.nrl_reason with
          | None, Some reason -> Some (seed, reason)
          | ff, _ -> ff);
      }
  done;
  !summary

let pp_summary ppf s =
  Fmt.pf ppf "%d/%d passed NRL (%d completed, %d crashes, ~%d ops)%a" s.passed s.trials
    s.completed s.total_crashes s.total_ops
    Fmt.(
      option (fun ppf (seed, reason) ->
          Fmt.pf ppf "; first failure seed=%d: %s" seed reason))
    s.first_failure
