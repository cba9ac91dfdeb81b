(* Golden draw streams of Machine.Schedule.random.

   The random policy's decisions are a replay contract: the e2e torture
   pin, every fuzz descriptor and corpus entry, and every printed failure
   seed replay through them.  schedules.expected records, per run, the
   number of decisions and an MD5 digest of the whole decision stream
   (one Checkpoint token per decision), so any change to the order or
   number of [Prng] draws the policy makes, or to the machine states it
   draws from, shows up as a changed line.

   The runs: each torture scenario (register, cas, counter, faa, stack at
   3 procs x 64 ops) at seeds 1-3 with the e2e torture policy; one
   explicit-persist run with full-system crashes; and one run whose
   crash injection is capped by [max_crashes]. *)

open Machine
module S = Workload.Scenarios

let torture_scenarios () =
  let nprocs = 3 and ops = 64 in
  [
    S.register ~nprocs ~ops ();
    S.cas ~nprocs ~ops ();
    S.counter ~nprocs ~ops ();
    S.faa ~nprocs ~ops ();
    S.stack ~nprocs ~ops ();
  ]

let outcome_name = function
  | Schedule.Completed -> "completed"
  | Schedule.Halted -> "halted"
  | Schedule.Out_of_steps -> "out-of-steps"

(* one line: the run's label, its decision count, crash steps, outcome
   and the digest of its decision tokens *)
let stream ?(persist = Nvm.Memory.Instant) ?(crash_prob = 0.02) ?(max_crashes = 8)
    ?(system_crash_prob = 0.0) ~label ~seed (scen : Workload.Trial.scenario) =
  let sim = Sim.create ~seed ~persist ~nprocs:scen.nprocs () in
  scen.build sim;
  let policy =
    Schedule.random ~crash_prob ~recover_prob:0.5 ~max_crashes ~system_crash_prob ~seed ()
  in
  let b = Buffer.create 4096 and n = ref 0 and crashes = ref 0 in
  let recording sim =
    let d = policy sim in
    (match d with
    | Schedule.Dhalt -> ()
    | Schedule.Dcrash _ | Schedule.Dcrash_sys _ ->
      incr crashes;
      incr n
    | Schedule.Dstep _ | Schedule.Drecover _ -> incr n);
    Buffer.add_string b (Checkpoint.decision_token d);
    Buffer.add_char b ' ';
    d
  in
  let outcome = Schedule.run ~max_steps:200_000 sim recording in
  Printf.sprintf "%s seed=%d decisions=%d crashes=%d outcome=%s digest=%s\n" label seed !n
    !crashes (outcome_name outcome)
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let golden () =
  let torture =
    List.concat_map
      (fun (scen : Workload.Trial.scenario) ->
        List.map (fun seed -> stream ~label:scen.scen_name ~seed scen) [ 1; 2; 3 ])
      (torture_scenarios ())
  in
  let register = S.register ~nprocs:3 ~ops:16 () in
  torture
  @ [
      stream ~persist:Nvm.Memory.Explicit ~system_crash_prob:0.01
        ~label:(register.scen_name ^ " explicit system-crash") ~seed:4 register;
      stream ~crash_prob:0.3 ~max_crashes:3
        ~label:(register.scen_name ^ " capped max_crashes=3") ~seed:5 register;
    ]

let test_schedules_golden () =
  let expected = In_channel.with_open_bin "schedules.expected" In_channel.input_all in
  Alcotest.(check (list string))
    "decision streams match schedules.expected"
    (String.split_on_char '\n' expected)
    (String.split_on_char '\n' (String.concat "" (golden ())))

(* A torture step allocates little: the policy fills reused candidate
   arrays, a frame keeps one expression context, and no log message is
   built while logging is off.  Before these, a step took 114 minor
   words on these scenarios; the bound leaves room for the environment
   and value allocation the step itself does. *)
let words_per_step_bound = 40.

let test_words_per_step () =
  List.iter
    (fun (scen : Workload.Trial.scenario) ->
      let sim = Sim.create ~seed:1 ~nprocs:scen.nprocs () in
      scen.build sim;
      let policy = Schedule.random ~crash_prob:0.02 ~recover_prob:0.5 ~max_crashes:8 ~seed:1 () in
      let w0 = Gc.minor_words () in
      ignore (Schedule.run ~max_steps:200_000 sim policy : Schedule.outcome);
      let per_step = (Gc.minor_words () -. w0) /. float_of_int (Sim.total_steps sim) in
      if per_step > words_per_step_bound then
        Alcotest.failf "%s: %.1f minor words per step (bound %.0f)" scen.scen_name per_step
          words_per_step_bound)
    (torture_scenarios ())

let suite =
  [
    Alcotest.test_case "random policy draw streams match golden" `Quick test_schedules_golden;
    Alcotest.test_case "torture steps allocate few words" `Quick test_words_per_step;
  ]
