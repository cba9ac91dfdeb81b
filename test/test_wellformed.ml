(* Golden verdicts of the well-formedness checkers on mutated machine
   histories.

   Each source history is a seeded run of a scenario on the machine; each
   mutation drops a step, duplicates one, swaps two adjacent steps (in the
   whole history, or in one process's subhistory), inserts a stray crash
   or recovery step, or gives a response another call id.
   wellformed.expected records, per mutant, the verdict and exact message
   of [check_recoverable_well_formed] on it, of [check_well_formed] on
   it, and of [check_well_formed] on its [N(H)].
   The checkers' first-violation order (which process, which object,
   which step is blamed) is part of what a failing run prints, so it is
   pinned byte for byte; the test also asserts that every violation
   message kind occurs. *)

open Machine
module S = Workload.Scenarios
module W = History.Wellformed
module Prng = Schedule.Prng

let sources () =
  let n = 3 and ops = 6 in
  [
    ("counter", S.counter ~nprocs:n ~ops (), 0.1, [ 1; 2; 3; 4 ]);
    ("register", S.register ~nprocs:n ~ops (), 0.0, [ 1; 2 ]);
    ("register-crashy", S.register ~nprocs:n ~ops (), 0.1, [ 3 ]);
    ("stack", S.stack ~nprocs:n ~ops (), 0.1, [ 1; 2 ]);
    ("pcall", S.pcall ~nprocs:n ~ops (), 0.1, [ 1; 2 ]);
  ]

let machine_history (scen : Workload.Trial.scenario) ~crash_prob ~seed =
  let sim = Sim.create ~seed ~nprocs:scen.nprocs () in
  scen.build sim;
  let policy = Schedule.random ~crash_prob ~recover_prob:0.5 ~max_crashes:4 ~seed () in
  ignore (Schedule.run ~max_steps:20_000 sim policy : Schedule.outcome);
  History.to_list (Sim.history sim)

let rec drop i = function [] -> [] | s :: r -> if i = 0 then r else s :: drop (i - 1) r

let rec insert i x = function
  | l when i = 0 -> x :: l
  | [] -> [ x ]
  | s :: r -> s :: insert (i - 1) x r

let swap i j l =
  let a = Array.of_list l in
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t;
  Array.to_list a

(* the next step after [i] by the same process, if any *)
let next_of_proc a i =
  let p = History.Step.pid a.(i) in
  let rec go j =
    if j >= Array.length a then None
    else if History.Step.pid a.(j) = p then Some j
    else go (j + 1)
  in
  go (i + 1)

let mutate rng h =
  let len = List.length h in
  let i = Prng.int rng len in
  let a = Array.of_list h in
  let pid = History.Step.pid a.(i) in
  match Prng.int rng 7 with
  | 0 -> (Printf.sprintf "drop %d" i, drop i h)
  | 1 -> (Printf.sprintf "dup %d" i, insert (i + 1) a.(i) h)
  | 2 when i + 1 < len -> (Printf.sprintf "swap %d %d" i (i + 1), swap i (i + 1) h)
  | 3 ->
    let s = History.Step.Crash { pid; crashed = None } in
    (Printf.sprintf "crash p%d at %d" pid i, insert i s h)
  | 4 -> (Printf.sprintf "rec p%d at %d" pid i, insert i (History.Step.Rec { pid }) h)
  | 5 -> (
    match a.(i) with
    | History.Step.Res r ->
      let s = History.Step.Res { r with call_id = r.call_id + 1000 } in
      (Printf.sprintf "retag %d" i, insert i s (drop i h))
    | _ -> (Printf.sprintf "drop %d" i, drop i h))
  | _ -> (
    match next_of_proc a i with
    | Some j -> (Printf.sprintf "swap-proc %d %d" i j, swap i j h)
    | None -> (Printf.sprintf "drop %d" i, drop i h))

let verdicts h =
  let h = History.of_list h in
  Fmt.str "rwf %a; wf %a; wf(N) %a" W.pp_result (W.check_recoverable_well_formed h)
    W.pp_result (W.check_well_formed h) W.pp_result
    (W.check_well_formed (History.n_of h))

let mutants_per_history = 16

(* mutants with three stacked mutations, which often break several
   processes or pairs at once: they pin which violation is reported
   first *)
let stacked_per_history = 8

let golden () =
  List.concat_map
    (fun (label, scen, crash_prob, seeds) ->
      List.concat_map
        (fun seed ->
          let h = machine_history scen ~crash_prob ~seed in
          let rng = Prng.create (seed * 101) in
          Printf.sprintf "%s seed=%d len=%d: %s\n" label seed (List.length h) (verdicts h)
          :: List.init mutants_per_history (fun k ->
                 let what, h' = mutate rng h in
                 Printf.sprintf "%s seed=%d #%d %s: %s\n" label seed k what (verdicts h'))
          @ List.init stacked_per_history (fun k ->
                let w1, h1 = mutate rng h in
                let w2, h2 = mutate rng h1 in
                let w3, h3 = mutate rng h2 in
                Printf.sprintf "%s seed=%d #%d %s + %s + %s: %s\n" label seed
                  (mutants_per_history + k) w1 w2 w3 (verdicts h3)))
        seeds)
    (sources ())

(* the printf formats of every violation message the checkers emit *)
let message_kinds =
  [
    "history contains crash/recovery steps";
    "invoked a second operation on object";
    "response does not match pending invocation";
    "response without invocation";
    "responds after it";
    "crash step not followed by a matching recovery step";
    "recovery step without preceding crash";
  ]

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_wellformed_golden () =
  let lines = golden () in
  let expected = In_channel.with_open_bin "wellformed.expected" In_channel.input_all in
  Alcotest.(check (list string))
    "verdicts match wellformed.expected"
    (String.split_on_char '\n' expected)
    (String.split_on_char '\n' (String.concat "" lines));
  List.iter
    (fun k ->
      if not (List.exists (contains ~needle:k) lines) then
        Alcotest.failf "no mutant reports a %S violation" k)
    message_kinds

let suite =
  [ Alcotest.test_case "mutated histories: verdicts match golden" `Quick test_wellformed_golden ]
