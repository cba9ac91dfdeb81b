(* Tests for the crash-recovery machine: environments, programs, the step
   engine, crash/recovery semantics, LI tracking and cloning. *)

open Machine

let value = Alcotest.testable Nvm.Value.pp Nvm.Value.equal

(* {2 Env} *)

let test_env_basics () =
  let e = Env.create () in
  Env.set e "x" (Nvm.Value.Int 1);
  Alcotest.check value "get" (Int 1) (Env.get e "x");
  Alcotest.(check bool) "mem" true (Env.mem e "x");
  Alcotest.check_raises "unbound raises before scramble" (Env.Unbound_local "y") (fun () ->
      ignore (Env.get e "y"))

let test_env_scramble () =
  let e = Env.create () in
  Env.set e "x" (Nvm.Value.Int 1);
  Env.scramble e (Junk.create 3);
  (* after a crash, any lookup succeeds but yields arbitrary junk *)
  let _ = Env.get e "x" in
  let _ = Env.get e "never_bound" in
  Alcotest.(check bool) "scrambled env answers everything" true true

let test_env_copy_isolated () =
  let e = Env.create () in
  Env.set e "x" (Nvm.Value.Int 1);
  let e2 = Env.copy ~junk:(Junk.create 0) e in
  Env.set e2 "x" (Nvm.Value.Int 2);
  Alcotest.check value "original unchanged" (Int 1) (Env.get e "x")

let test_junk_copy () =
  let j = Junk.create 5 in
  ignore (Junk.next j);
  let j2 = Junk.copy j in
  Alcotest.check value "copied stream continues identically" (Junk.next j) (Junk.next j2)

(* {2 Program} *)

let test_program_lines () =
  let open Program in
  let p =
    make ~name:"t" [ (2, Assign ("x", int 1)); (3, Jump 5); (5, Ret (local "x")) ]
  in
  Alcotest.(check int) "length" 3 (length p);
  Alcotest.(check int) "pc_of_line 5" 2 (pc_of_line p 5);
  Alcotest.(check int) "line_of_pc 1" 3 (line_of_pc p 1);
  Alcotest.check_raises "duplicate lines rejected"
    (Invalid_argument "Program.make(d): duplicate line number 2") (fun () ->
      ignore (make ~name:"d" [ (2, Jump 2); (2, Jump 2) ]))

(* {2 Program.edit} *)

let lines_of p = List.init (Program.length p) (Program.line_of_pc p)
let printed p pc = Fmt.str "%a" Program.pp_instr (Program.instr p pc)

(* an object whose SET branches to line 4 and whose recovery resumes at
   line 4; dropping line 4 must land both on line 5 *)
let test_edit_drop_lands_on_next_kept () =
  let open Program in
  let body =
    make ~name:"SET"
      [
        (2, Branch_if ((fun _ _ -> true), 4));
        (3, Ret (int 3));
        (4, Ret (int 4));
        (5, Ret (int 5));
      ]
  in
  let recover = make ~name:"SET.RECOVER" [ (10, Resume 4) ] in
  let body = edit body [ Drop [ 4 ] ] in
  Alcotest.(check (list int)) "line dropped" [ 2; 3; 5 ] (lines_of body);
  Alcotest.(check int) "dropped line resolves to the next kept" 2 (pc_of_line body 4);
  let jumpy =
    edit (make ~name:"J" [ (1, Jump 3); (2, Ret (int 2)); (3, Ret (int 3)) ]) [ Drop [ 2 ] ]
  in
  Alcotest.(check int) "kept targets unmoved" 1 (pc_of_line jumpy 3);
  let run ~crash =
    let sim = Sim.create ~nprocs:1 () in
    let inst =
      Objdef.register (Sim.registry sim) ~otype:"toy" ~name:"toy"
        [ ("SET", { Objdef.op_name = "SET"; body; recover }) ]
    in
    Sim.set_script sim 0 [ (inst, "SET", Sim.Args [||]) ];
    if crash then begin
      Sim.step sim 0 (* INV *);
      Sim.crash sim 0;
      Sim.recover sim 0
    end;
    (match Schedule.run sim (Schedule.round_robin ()) with
    | Schedule.Completed -> ()
    | _ -> Alcotest.fail "run did not complete");
    match Sim.results sim 0 with
    | [ ("SET", v) ] -> v
    | _ -> Alcotest.fail "expected one result"
  in
  Alcotest.check value "Branch_if into a dropped line" (Int 5) (run ~crash:false);
  Alcotest.check value "Resume into a dropped line" (Int 5) (run ~crash:true)

let test_edit_insert_takes_anchor_branches () =
  let open Program in
  let p = make ~name:"t" [ (1, Jump 3); (2, Ret (int 2)); (3, Ret (int 3)) ] in
  let q = edit p [ Insert_before (3, 25, Assign ("x", int 1)) ] in
  Alcotest.(check (list int)) "inserted before the anchor" [ 1; 2; 25; 3 ] (lines_of q);
  Alcotest.(check int) "branches to the anchor reach the insert" 2 (pc_of_line q 3);
  Alcotest.(check int) "the insert's own line" 2 (pc_of_line q 25);
  Alcotest.(check string) "anchor instruction kept after it" "return <expr>" (printed q 3);
  Alcotest.check_raises "a taken line is refused"
    (Invalid_argument "Program.edit(t): line 2 already taken") (fun () ->
      ignore (edit p [ Insert_before (3, 2, Fence) ]))

let test_edit_swap_keeps_labels () =
  let open Program in
  let p = make ~name:"t" [ (1, Assign ("x", int 1)); (2, Jump 1); (3, Ret (local "x")) ] in
  let q = edit p [ Swap (1, 3) ] in
  Alcotest.(check (list int)) "labels in place" [ 1; 2; 3 ] (lines_of q);
  Alcotest.(check int) "line 1 still the first pc" 0 (pc_of_line q 1);
  Alcotest.(check string) "line 1 now holds line 3's instruction" (printed p 2) (printed q 0);
  Alcotest.(check string) "line 3 now holds line 1's instruction" (printed p 0) (printed q 2);
  let r = edit p [ Replace (2, Fence) ] in
  Alcotest.(check string) "replace" "fence" (printed r 1)

let test_edit_unknown_line_raises () =
  let open Program in
  let p = make ~name:"t" [ (1, Assign ("x", int 1)); (2, Ret (local "x")) ] in
  let no_line edits =
    Alcotest.check_raises "unknown line"
      (Invalid_argument "Program.edit(t): no instruction at line 7") (fun () ->
        ignore (edit p edits))
  in
  no_line [ Drop [ 7 ] ];
  no_line [ Replace (7, Fence) ];
  no_line [ Swap (1, 7) ];
  no_line [ Insert_before (7, 8, Fence) ];
  Alcotest.check_raises "a dropped line is gone for later edits"
    (Invalid_argument "Program.edit(t): no instruction at line 1") (fun () ->
      ignore (edit p [ Drop [ 1 ]; Replace (1, Fence) ]))

(* {2 A tiny recoverable object for machine-level tests: a write-once cell
   with a deliberately trivial recovery that re-executes. } *)

let toy_obj sim =
  let open Program in
  let mem = Sim.mem sim in
  let cell = Nvm.Memory.alloc ~name:"toy" mem Nvm.Value.Null in
  let body =
    make ~name:"SET"
      [ (2, Assign ("v", arg 0)); (3, Write (at cell, local "v")); (4, Ret (local "v")) ]
  in
  let recover = make ~name:"SET.RECOVER" [ (10, Resume 2) ] in
  let get_body = make ~name:"GET" [ (2, Read ("v", at cell)); (3, Ret (local "v")) ] in
  let get_rec = make ~name:"GET.RECOVER" [ (10, Resume 2) ] in
  ( Objdef.register (Sim.registry sim) ~otype:"toy" ~name:"toy"
      [
        ("SET", { Objdef.op_name = "SET"; body; recover });
        ("GET", { Objdef.op_name = "GET"; body = get_body; recover = get_rec });
      ],
    cell )

let test_step_runs_op () =
  let sim = Sim.create ~nprocs:1 () in
  let inst, cell = toy_obj sim in
  Sim.set_script sim 0 [ (inst, "SET", Sim.Args [| Nvm.Value.Int 9 |]) ];
  let out = Schedule.run sim (Schedule.round_robin ()) in
  Alcotest.(check bool) "completed" true (out = Schedule.Completed);
  Alcotest.check value "cell written" (Int 9) (Nvm.Memory.peek (Sim.mem sim) cell);
  (match Sim.results sim 0 with
  | [ ("SET", v) ] -> Alcotest.check value "result" (Int 9) v
  | _ -> Alcotest.fail "expected one result");
  let h = Sim.history sim in
  Alcotest.(check int) "history: inv + res" 2 (History.length h)

let test_crash_scrambles_and_recovers () =
  let sim = Sim.create ~seed:11 ~nprocs:1 () in
  let inst, cell = toy_obj sim in
  Sim.set_script sim 0 [ (inst, "SET", Sim.Args [| Nvm.Value.Int 5 |]) ];
  (* start the op, execute the Assign, crash before the Write *)
  Sim.step sim 0;
  (* INV *)
  Sim.step sim 0;
  (* Assign *)
  Sim.crash sim 0;
  Alcotest.(check bool) "crashed" true (Sim.status sim 0 = Sim.Crashed);
  Alcotest.check value "cell still null after crash" Null (Nvm.Memory.peek (Sim.mem sim) cell);
  Sim.recover sim 0;
  let out = Schedule.run sim (Schedule.round_robin ()) in
  Alcotest.(check bool) "completed after recovery" true (out = Schedule.Completed);
  Alcotest.check value "write re-executed" (Int 5) (Nvm.Memory.peek (Sim.mem sim) cell);
  let h = Sim.history sim in
  let kinds =
    List.map
      (function
        | History.Step.Inv _ -> "inv"
        | History.Step.Res _ -> "res"
        | History.Step.Crash _ -> "crash"
        | History.Step.Rec _ -> "rec")
      (History.to_list h)
  in
  Alcotest.(check (list string)) "history shape" [ "inv"; "crash"; "rec"; "res" ] kinds

let test_crash_with_no_pending_op () =
  let sim = Sim.create ~nprocs:1 () in
  let inst, _ = toy_obj sim in
  Sim.set_script sim 0 [ (inst, "SET", Sim.Args [| Nvm.Value.Int 1 |]) ];
  Sim.crash sim 0;
  (match History.to_list (Sim.history sim) with
  | [ History.Step.Crash { crashed = None; _ } ] -> ()
  | _ -> Alcotest.fail "expected idle crash step");
  Sim.recover sim 0;
  let out = Schedule.run sim (Schedule.round_robin ()) in
  Alcotest.(check bool) "script completes after idle crash" true (out = Schedule.Completed)

let test_li_tracks_last_started_line () =
  let sim = Sim.create ~nprocs:1 () in
  let inst, _ = toy_obj sim in
  Sim.set_script sim 0 [ (inst, "SET", Sim.Args [| Nvm.Value.Int 1 |]) ];
  Sim.step sim 0 (* INV *);
  let f = List.hd (Sim.proc sim 0).Sim.stack in
  Alcotest.(check int) "li before any instruction" (-1) f.Sim.f_li;
  Sim.step sim 0 (* line 2 *);
  Alcotest.(check int) "li after line 2" 2 f.Sim.f_li;
  Sim.step sim 0 (* line 3 *);
  Alcotest.(check int) "li after line 3" 3 f.Sim.f_li

let test_invalid_transitions_rejected () =
  let sim = Sim.create ~nprocs:1 () in
  let inst, _ = toy_obj sim in
  Sim.set_script sim 0 [ (inst, "SET", Sim.Args [| Nvm.Value.Int 1 |]) ];
  Alcotest.check_raises "recover when not crashed"
    (Invalid_argument "Sim.recover: p0 has not crashed") (fun () -> Sim.recover sim 0);
  Sim.crash sim 0;
  Alcotest.check_raises "step while crashed" (Invalid_argument "Sim.step: p0 is not ready")
    (fun () -> Sim.step sim 0);
  Alcotest.check_raises "crash while crashed" (Invalid_argument "Sim.crash: p0 is not ready")
    (fun () -> Sim.crash sim 0)

let test_clone_isolation () =
  let sim = Sim.create ~nprocs:1 () in
  let inst, cell = toy_obj sim in
  Sim.set_script sim 0 [ (inst, "SET", Sim.Args [| Nvm.Value.Int 3 |]) ];
  Sim.step sim 0;
  let c = Sim.clone sim in
  let out = Schedule.run c (Schedule.round_robin ()) in
  Alcotest.(check bool) "clone completed" true (out = Schedule.Completed);
  Alcotest.check value "clone wrote" (Int 3) (Nvm.Memory.peek (Sim.mem c) cell);
  Alcotest.check value "original untouched" Null (Nvm.Memory.peek (Sim.mem sim) cell);
  Alcotest.(check int) "original history unchanged" 1 (History.length (Sim.history sim))

let test_determinism_same_seed () =
  let run () =
    let scen = Workload.Scenarios.counter ~nprocs:2 ~ops:3 () in
    let sim, r = Workload.Trial.run ~seed:5 ~crash_prob:0.05 scen in
    (r, Fmt.str "%a" History.pp (Sim.history sim))
  in
  let r1, h1 = run () in
  let r2, h2 = run () in
  Alcotest.(check bool) "same outcome" true (r1 = r2);
  Alcotest.(check string) "same history" h1 h2

let test_round_robin_completes_multi () =
  let sim = Sim.create ~nprocs:3 () in
  let inst, _ = toy_obj sim in
  for p = 0 to 2 do
    Sim.set_script sim p [ (inst, "SET", Sim.Args [| Nvm.Value.Int p |]) ]
  done;
  let out = Schedule.run sim (Schedule.round_robin ()) in
  Alcotest.(check bool) "all done" true (out = Schedule.Completed && Sim.all_done sim)

let test_compute_args () =
  let sim = Sim.create ~nprocs:1 () in
  let inst, cell = toy_obj sim in
  Sim.set_script sim 0
    [
      (inst, "SET", Sim.Args [| Nvm.Value.Int 7 |]);
      (inst, "SET", Sim.Compute (fun mem ->
           [| Nvm.Value.Int (Nvm.Value.as_int (Nvm.Memory.peek mem cell) + 1) |]));
    ];
  let out = Schedule.run sim (Schedule.round_robin ()) in
  Alcotest.(check bool) "completed" true (out = Schedule.Completed);
  Alcotest.check value "computed from current state" (Int 8) (Nvm.Memory.peek (Sim.mem sim) cell)

let test_next_is_local () =
  let sim = Sim.create ~nprocs:1 () in
  let inst, _ = toy_obj sim in
  Sim.set_script sim 0 [ (inst, "SET", Sim.Args [| Nvm.Value.Int 1 |]) ];
  Alcotest.(check bool) "script start is local (INV)" true (Sim.next_is_local sim 0);
  Sim.step sim 0 (* INV; next = Assign *);
  Alcotest.(check bool) "assign is local" true (Sim.next_is_local sim 0);
  Sim.step sim 0 (* next = Write *);
  Alcotest.(check bool) "write is shared" false (Sim.next_is_local sim 0);
  Sim.step sim 0 (* next = Ret *);
  Alcotest.(check bool) "ret is local" true (Sim.next_is_local sim 0);
  Alcotest.(check bool) "ret detected" true (Sim.next_is_ret sim 0)

let test_stuck_on_fallthrough () =
  (* a body that ends without Ret is an object bug: the machine reports it *)
  let sim = Sim.create ~nprocs:1 () in
  let open Program in
  let body = make ~name:"BAD" [ (2, Assign ("x", int 1)) ] in
  let recover = make ~name:"BAD.RECOVER" [ (10, Resume 2) ] in
  let inst =
    Objdef.register (Sim.registry sim) ~otype:"toy" ~name:"bad"
      [ ("BAD", { Objdef.op_name = "BAD"; body; recover }) ]
  in
  Sim.set_script sim 0 [ (inst, "BAD", Sim.Args [||]) ];
  Sim.step sim 0 (* INV *);
  Sim.step sim 0 (* the Assign *);
  Alcotest.check_raises "fallthrough detected"
    (Sim.Stuck "p0: pc 1 out of range in BAD") (fun () -> Sim.step sim 0)

let test_scrambled_locals_are_junk_not_crash () =
  (* after a crash, even never-bound locals read as junk: an algorithm
     that uses them misbehaves but the machine itself keeps going *)
  let sim = Sim.create ~seed:3 ~nprocs:1 () in
  let open Program in
  let body =
    make ~name:"USES_JUNK"
      [ (2, Assign ("x", int 1)); (3, Ret (local "never_set_after_crash")) ]
  in
  let recover = make ~name:"R" [ (10, Resume 3) ] in
  let inst =
    Objdef.register (Sim.registry sim) ~otype:"toy" ~name:"j"
      [ ("USES_JUNK", { Objdef.op_name = "USES_JUNK"; body; recover }) ]
  in
  Sim.set_script sim 0 [ (inst, "USES_JUNK", Sim.Args [||]) ];
  Sim.step sim 0;
  Sim.step sim 0 (* Assign; about to Ret an unbound local *);
  Sim.crash sim 0;
  Sim.recover sim 0;
  Sim.step sim 0 (* Resume 3 *);
  Sim.step sim 0 (* Ret of a junk value: must not raise *);
  Alcotest.(check int) "op completed with junk" 1 (List.length (Sim.results sim 0))

let test_explore_immediate_recovery_smaller () =
  let build () =
    let sim = Sim.create ~nprocs:2 () in
    let inst = Objects.Rw_obj.make sim ~name:"R" in
    for p = 0 to 1 do
      Sim.set_script sim p [ (inst, "WRITE", Sim.Args [| Nvm.Value.Int p |]) ]
    done;
    sim
  in
  let run cfg = (Explore.dfs ~cfg ~on_terminal:(fun _ -> ()) (build ())).Explore.terminals in
  let adversarial =
    run { Explore.default_config with max_steps = 80; max_crashes = 1; crash_procs = [ 0 ] }
  in
  let immediate =
    run
      {
        Explore.default_config with
        max_steps = 80;
        max_crashes = 1;
        crash_procs = [ 0 ];
        immediate_recovery = true;
      }
  in
  Alcotest.(check bool) "immediate recovery explores fewer executions" true
    (immediate < adversarial);
  Alcotest.(check bool) "both nontrivial" true (immediate > 0)

let test_explore_crash_budget_zero () =
  let build () =
    let sim = Sim.create ~nprocs:1 () in
    let inst = Objects.Rw_obj.make sim ~name:"R" in
    Sim.set_script sim 0 [ (inst, "WRITE", Sim.Args [| Nvm.Value.Int 1 |]) ];
    sim
  in
  let cfg =
    { Explore.default_config with max_steps = 40; max_crashes = 0; crash_procs = [ 0 ] }
  in
  let saw_crash = ref false in
  let _ =
    Explore.dfs ~cfg
      ~on_terminal:(fun sim ->
        if Machine.Sim.crash_count sim 0 > 0 then saw_crash := true)
      (build ())
  in
  Alcotest.(check bool) "no crashes with zero budget" false !saw_crash

(* random schedule policy sanity: crash budget respected *)
let test_random_policy_budget () =
  let scen = Workload.Scenarios.register ~nprocs:2 ~ops:4 () in
  let sim, r = Workload.Trial.run ~seed:3 ~crash_prob:0.9 ~max_crashes:2 scen in
  ignore sim;
  Alcotest.(check bool) "crash budget respected" true (r.Workload.Trial.crashes <= 2)

let suite =
  [
    Alcotest.test_case "env basics" `Quick test_env_basics;
    Alcotest.test_case "env scramble" `Quick test_env_scramble;
    Alcotest.test_case "env copy isolation" `Quick test_env_copy_isolated;
    Alcotest.test_case "junk copy" `Quick test_junk_copy;
    Alcotest.test_case "program lines" `Quick test_program_lines;
    Alcotest.test_case "edit: drop lands on the next kept line" `Quick
      test_edit_drop_lands_on_next_kept;
    Alcotest.test_case "edit: insert takes the anchor's branches" `Quick
      test_edit_insert_takes_anchor_branches;
    Alcotest.test_case "edit: swap keeps labels" `Quick test_edit_swap_keeps_labels;
    Alcotest.test_case "edit: unknown line raises" `Quick test_edit_unknown_line_raises;
    Alcotest.test_case "step runs an operation" `Quick test_step_runs_op;
    Alcotest.test_case "crash scrambles, recovery completes" `Quick test_crash_scrambles_and_recovers;
    Alcotest.test_case "idle crash" `Quick test_crash_with_no_pending_op;
    Alcotest.test_case "LI tracks last started line" `Quick test_li_tracks_last_started_line;
    Alcotest.test_case "invalid transitions rejected" `Quick test_invalid_transitions_rejected;
    Alcotest.test_case "clone isolation" `Quick test_clone_isolation;
    Alcotest.test_case "determinism with same seed" `Quick test_determinism_same_seed;
    Alcotest.test_case "round robin completes" `Quick test_round_robin_completes_multi;
    Alcotest.test_case "computed script args" `Quick test_compute_args;
    Alcotest.test_case "next_is_local classification" `Quick test_next_is_local;
    Alcotest.test_case "random policy crash budget" `Quick test_random_policy_budget;
    Alcotest.test_case "stuck on fallthrough" `Quick test_stuck_on_fallthrough;
    Alcotest.test_case "junk locals don't kill the machine" `Quick test_scrambled_locals_are_junk_not_crash;
    Alcotest.test_case "explore: immediate recovery smaller" `Quick test_explore_immediate_recovery_smaller;
    Alcotest.test_case "explore: zero crash budget" `Quick test_explore_crash_budget_zero;
  ]
