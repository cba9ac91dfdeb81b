(* Correctness tests for the paper's four algorithms: crash-free sanity,
   targeted crash schedules for every interesting window, randomized crash
   torture (NRL must always hold), and bounded-exhaustive verification of
   the paper's lemmas on small instances. *)

open Machine

let value = Alcotest.testable Nvm.Value.pp Nvm.Value.equal

let nrl_ok sim =
  match Workload.Check.nrl_violation sim with
  | None -> ()
  | Some reason ->
    Fmt.epr "history:@.%a@." History.pp (Sim.history sim);
    Alcotest.failf "NRL violation: %s" reason

let run_rr sim =
  match Schedule.run sim (Schedule.round_robin ()) with
  | Schedule.Completed -> ()
  | _ -> Alcotest.fail "execution did not complete"

(* step process p exactly n times *)
let steps sim p n =
  for _ = 1 to n do
    Sim.step sim p
  done

(* run process p alone until it has no more work (other processes,
   including crashed ones, are left untouched) *)
let drain sim p =
  while Sim.enabled sim p do
    Sim.step sim p
  done

(* {2 Algorithm 1: recoverable read/write register} *)

let test_rw_crash_free () =
  let sim = Sim.create ~nprocs:2 () in
  let inst = Objects.Rw_obj.make sim ~name:"R" in
  Sim.set_script sim 0
    [ (inst, "WRITE", Sim.Args [| Nvm.Value.Int 1 |]); (inst, "READ", Sim.Args [||]) ];
  Sim.set_script sim 1 [ (inst, "READ", Sim.Args [||]) ];
  run_rr sim;
  nrl_ok sim;
  match Sim.results sim 0 with
  | [ ("WRITE", ack); ("READ", v) ] ->
    Alcotest.check value "ack" Nvm.Value.ack ack;
    Alcotest.check value "read own write" (Int 1) v
  | _ -> Alcotest.fail "unexpected results"

(* crash at every position inside WRITE, then recover and complete *)
let test_rw_crash_every_position () =
  (* WRITE body: INV + 4 instructions; crash after k steps for k=1..4 *)
  for k = 1 to 4 do
    let sim = Sim.create ~seed:(100 + k) ~nprocs:2 () in
    let inst, cells = Objects.Rw_obj.make_ex sim ~name:"R" in
    Sim.set_script sim 0 [ (inst, "WRITE", Sim.Args [| Nvm.Value.Int 42 |]) ];
    Sim.set_script sim 1 [ (inst, "READ", Sim.Args [||]) ];
    steps sim 0 k;
    Sim.crash sim 0;
    Sim.recover sim 0;
    run_rr sim;
    nrl_ok sim;
    Alcotest.check value
      (Printf.sprintf "value written (crash after %d steps)" k)
      (Int 42)
      (Nvm.Memory.peek (Sim.mem sim) cells.Objects.Rw_obj.r)
  done

(* the subtle window: p crashes between lines 3 and 5 while q overwrites —
   WRITE.RECOVER must NOT re-execute (p's write is linearized before q's) *)
let test_rw_interleaved_crash_no_reexecution () =
  let sim = Sim.create ~seed:7 ~nprocs:2 () in
  let inst, cells = Objects.Rw_obj.make_ex sim ~name:"R" in
  Sim.set_script sim 0 [ (inst, "WRITE", Sim.Args [| Nvm.Value.Int 10 |]) ];
  Sim.set_script sim 1 [ (inst, "WRITE", Sim.Args [| Nvm.Value.Int 20 |]) ];
  steps sim 0 4 (* p: INV, line 2, line 3, line 4 (R := 10) *);
  Sim.crash sim 0;
  drain sim 1 (* q writes 20 while p is down *);
  Alcotest.check value "q's value in R" (Int 20)
    (Nvm.Memory.peek (Sim.mem sim) cells.Objects.Rw_obj.r);
  Sim.recover sim 0;
  run_rr sim;
  nrl_ok sim;
  (* p must not clobber q's later write by re-executing *)
  Alcotest.check value "R still holds q's value" (Int 20)
    (Nvm.Memory.peek (Sim.mem sim) cells.Objects.Rw_obj.r)

(* crash before line 3: S_p untouched, recovery must re-execute *)
let test_rw_crash_before_s_update_reexecutes () =
  let sim = Sim.create ~seed:8 ~nprocs:1 () in
  let inst, cells = Objects.Rw_obj.make_ex sim ~name:"R" in
  ignore inst;
  Sim.set_script sim 0 [ (inst, "WRITE", Sim.Args [| Nvm.Value.Int 5 |]) ];
  steps sim 0 2 (* INV + line 2 *);
  Sim.crash sim 0;
  Sim.recover sim 0;
  run_rr sim;
  nrl_ok sim;
  Alcotest.check value "write happened on recovery" (Int 5)
    (Nvm.Memory.peek (Sim.mem sim) cells.Objects.Rw_obj.r)

(* repeated crashes during recovery *)
let test_rw_repeated_crashes () =
  let sim = Sim.create ~seed:9 ~nprocs:1 () in
  let inst, cells = Objects.Rw_obj.make_ex sim ~name:"R" in
  Sim.set_script sim 0 [ (inst, "WRITE", Sim.Args [| Nvm.Value.Int 5 |]) ];
  steps sim 0 3;
  Sim.crash sim 0;
  Sim.recover sim 0;
  Sim.step sim 0;
  Sim.crash sim 0;
  Sim.recover sim 0;
  Sim.step sim 0;
  Sim.crash sim 0;
  Sim.recover sim 0;
  run_rr sim;
  nrl_ok sim;
  Alcotest.check value "value eventually written exactly right" (Int 5)
    (Nvm.Memory.peek (Sim.mem sim) cells.Objects.Rw_obj.r)

let test_rw_torture () =
  let scen = Workload.Scenarios.register ~nprocs:3 ~ops:6 () in
  let s = Workload.Trial.batch ~crash_prob:0.08 ~max_crashes:6 ~trials:120 scen in
  Alcotest.(check int) "all trials pass NRL" s.Workload.Trial.trials s.Workload.Trial.passed;
  Alcotest.(check bool) "crashes actually injected" true (s.Workload.Trial.total_crashes > 50)

(* Lemma 2, exhaustively on a small instance *)
let test_rw_exhaustive_lemma2 () =
  let build () =
    let sim = Sim.create ~nprocs:2 () in
    let inst = Objects.Rw_obj.make sim ~name:"R" in
    Sim.set_script sim 0
      [ (inst, "WRITE", Sim.Args [| Nvm.Value.Int 10 |]); (inst, "READ", Sim.Args [||]) ];
    Sim.set_script sim 1
      [ (inst, "WRITE", Sim.Args [| Nvm.Value.Int 20 |]); (inst, "READ", Sim.Args [||]) ];
    sim
  in
  let cfg =
    { Explore.default_config with max_steps = 100; max_crashes = 1; crash_procs = [ 0 ] }
  in
  let viol, stats =
    Explore.find_violation ~cfg ~check:Workload.Check.nrl_violation (build ())
  in
  (match viol with
  | Some (sim, reason) ->
    Fmt.epr "violating history:@.%a@." History.pp (Sim.history sim);
    Alcotest.failf "Lemma 2 violated: %s" reason
  | None -> ());
  Alcotest.(check bool) "nothing truncated" true (stats.Explore.truncated = 0);
  Alcotest.(check bool) "search nontrivial" true (stats.Explore.terminals > 1000)

(* {2 Algorithm 2: recoverable CAS} *)

let test_cas_crash_free () =
  let sim = Sim.create ~nprocs:2 () in
  let inst = Objects.Cas_obj.make sim ~name:"C" in
  Sim.set_script sim 0
    [
      Workload.Opgen.cas_fixed ~pid:0 inst ~old:Nvm.Value.Null ~seq:1;
      (inst, "READ", Sim.Args [||]);
    ];
  Sim.set_script sim 1 [ Workload.Opgen.cas_fixed ~pid:1 inst ~old:Nvm.Value.Null ~seq:1 ];
  run_rr sim;
  nrl_ok sim;
  (* exactly one of the two CASes from null succeeded *)
  let wins =
    List.length
      (List.concat_map
         (fun p ->
           List.filter (fun (op, v) -> op = "CAS" && Nvm.Value.equal v (Bool true))
             (Sim.results sim p))
         [ 0; 1 ])
  in
  Alcotest.(check int) "exactly one winner" 1 wins

(* the paper's introductory scenario: crash right after a successful cas;
   recovery must report true even after another process overwrites C *)
let test_cas_crash_after_success_reports_true () =
  let sim = Sim.create ~seed:21 ~nprocs:2 () in
  let inst, cells = Objects.Cas_obj.make_ex sim ~name:"C" in
  Sim.set_script sim 0 [ Workload.Opgen.cas_fixed ~pid:0 inst ~old:Nvm.Value.Null ~seq:1 ];
  Sim.set_script sim 1
    [
      ( inst,
        "CAS",
        Sim.Compute
          (fun mem ->
            (* q CASes from whatever it would read *)
            let c = Nvm.Memory.peek mem cells.Objects.Cas_obj.c in
            [| Nvm.Value.snd c; Workload.Opgen.tagged 1 1 |]) );
    ];
  (* p runs through its successful cas (INV, line 2, line 3, line 5, line 7) *)
  steps sim 0 5;
  Sim.crash sim 0;
  (* q's CAS executes fully while p is down: it must help p by writing to
     R[p][q] *)
  drain sim 1;
  Sim.recover sim 0;
  run_rr sim;
  nrl_ok sim;
  match List.assoc_opt "CAS" (Sim.results sim 0) with
  | Some v -> Alcotest.check value "p learns its CAS succeeded" (Bool true) v
  | None -> Alcotest.fail "p's CAS did not complete"

let test_cas_crash_before_cas_reexecutes () =
  let sim = Sim.create ~seed:22 ~nprocs:2 () in
  let inst = Objects.Cas_obj.make sim ~name:"C" in
  Sim.set_script sim 0 [ Workload.Opgen.cas_fixed ~pid:0 inst ~old:Nvm.Value.Null ~seq:1 ];
  steps sim 0 2 (* INV + line 2 (read) *);
  Sim.crash sim 0;
  Sim.recover sim 0;
  run_rr sim;
  nrl_ok sim;
  match List.assoc_opt "CAS" (Sim.results sim 0) with
  | Some v -> Alcotest.check value "solo CAS eventually succeeds" (Bool true) v
  | None -> Alcotest.fail "p's CAS did not complete"

let test_cas_torture () =
  let scen = Workload.Scenarios.cas ~nprocs:3 ~ops:6 () in
  let s = Workload.Trial.batch ~crash_prob:0.08 ~max_crashes:6 ~trials:120 scen in
  Alcotest.(check int) "all trials pass NRL" s.Workload.Trial.trials s.Workload.Trial.passed

(* Lemma 3, exhaustively on a small instance *)
let test_cas_exhaustive_lemma3 () =
  let build () =
    let sim = Sim.create ~nprocs:2 () in
    let inst = Objects.Cas_obj.make sim ~name:"C" in
    Sim.set_script sim 0
      [
        Workload.Opgen.cas_fixed ~pid:0 inst ~old:Nvm.Value.Null ~seq:1;
        (inst, "READ", Sim.Args [||]);
      ];
    Sim.set_script sim 1
      [
        Workload.Opgen.cas_fixed ~pid:1 inst ~old:Nvm.Value.Null ~seq:1;
        (inst, "READ", Sim.Args [||]);
      ];
    sim
  in
  let cfg =
    { Explore.default_config with max_steps = 100; max_crashes = 1; crash_procs = [ 0 ] }
  in
  let viol, stats =
    Explore.find_violation ~cfg ~check:Workload.Check.nrl_violation (build ())
  in
  (match viol with
  | Some (sim, reason) ->
    Fmt.epr "violating history:@.%a@." History.pp (Sim.history sim);
    Alcotest.failf "Lemma 3 violated: %s" reason
  | None -> ());
  Alcotest.(check bool) "nothing truncated" true (stats.Explore.truncated = 0)

(* {2 Algorithm 3: recoverable TAS} *)

let test_tas_crash_free_unique_winner () =
  let sim = Sim.create ~nprocs:4 () in
  let inst = Objects.Tas_obj.make sim ~name:"T" in
  for p = 0 to 3 do
    Sim.set_script sim p [ (inst, "T&S", Sim.Args [||]) ]
  done;
  run_rr sim;
  nrl_ok sim;
  let zeros =
    List.length
      (List.filter
         (fun p -> List.exists (fun (_, v) -> Nvm.Value.equal v (Int 0)) (Sim.results sim p))
         [ 0; 1; 2; 3 ])
  in
  Alcotest.(check int) "exactly one winner" 1 zeros

let test_tas_strictness () =
  let sim = Sim.create ~nprocs:2 () in
  let inst = Objects.Tas_obj.make sim ~name:"T" in
  for p = 0 to 1 do
    Sim.set_script sim p [ (inst, "T&S", Sim.Args [||]) ]
  done;
  run_rr sim;
  Alcotest.(check int) "T&S responses all persisted before returning" 0
    (List.length (Workload.Check.strictness_violations sim))

(* winner crashes right after the base t&s, before announcing: the
   recovering process must still conclude it won (via the awaits and the
   Winner protocol) *)
let test_tas_winner_crash_before_announce () =
  let sim = Sim.create ~seed:31 ~nprocs:2 () in
  let inst = Objects.Tas_obj.make sim ~name:"T" in
  for p = 0 to 1 do
    Sim.set_script sim p [ (inst, "T&S", Sim.Args [||]) ]
  done;
  (* p0: INV, line 2, line 3 read doorway, branch, line 6, line 7, line 8 t&s *)
  steps sim 0 7;
  Sim.crash sim 0;
  (* q completes its T&S while p is down (loses: doorway closed) *)
  drain sim 1;
  Sim.recover sim 0;
  run_rr sim;
  nrl_ok sim;
  let v0 = List.assoc "T&S" (Sim.results sim 0) in
  let v1 = List.assoc "T&S" (Sim.results sim 1) in
  Alcotest.check value "p0 won" (Int 0) v0;
  Alcotest.check value "p1 lost" (Int 1) v1

(* Algorithm 3's recovery busy-waits: p0 crashes after its base t&s
   while every other process has taken [doorway] steps of its own T&S,
   and p0's solo recovery cannot finish within [budget] steps until the
   others do *)
let tas_recovery_blocks ~seed ~nprocs ~doorway ~budget =
  let sim = Sim.create ~seed ~nprocs () in
  let inst = Objects.Tas_obj.make sim ~name:"T" in
  for p = 0 to nprocs - 1 do
    Sim.set_script sim p [ (inst, "T&S", Sim.Args [||]) ]
  done;
  steps sim 0 7 (* p0 through its base t&s *);
  for q = 1 to nprocs - 1 do
    steps sim q doorway
  done;
  Sim.crash sim 0;
  Sim.recover sim 0;
  let stepped = ref 0 in
  (try
     while !stepped < budget && Sim.results sim 0 = [] do
       Sim.step sim 0;
       incr stepped
     done
   with _ -> ());
  Alcotest.(check bool)
    (Printf.sprintf "n=%d: recovery is blocked on the others" nprocs)
    true (Sim.results sim 0 = []);
  (* letting the others finish unblocks p0 *)
  run_rr sim;
  nrl_ok sim;
  Alcotest.(check bool)
    (Printf.sprintf "n=%d: p0 completed after the others" nprocs)
    true (Sim.results sim 0 <> [])

let test_tas_recovery_blocks () =
  (* p1 through line 2 (R[1] := 1): p0's recovery awaits R[1] \in {0, >2} *)
  tas_recovery_blocks ~seed:32 ~nprocs:2 ~doorway:3 ~budget:500;
  (* F4's configurations: every other process 4 steps into the doorway *)
  List.iter
    (fun nprocs -> tas_recovery_blocks ~seed:5 ~nprocs ~doorway:4 ~budget:2000)
    [ 2; 3; 4; 6 ]

let test_tas_torture () =
  let scen = Workload.Scenarios.tas ~nprocs:4 () in
  let s = Workload.Trial.batch ~crash_prob:0.1 ~max_crashes:4 ~trials:150 scen in
  Alcotest.(check int) "all trials pass NRL" s.Workload.Trial.trials s.Workload.Trial.passed

(* footnote 3: the readable-base variant must behave identically *)
let test_tas_readable_base_variant () =
  (* unique winner, crash-free *)
  let sim = Sim.create ~nprocs:4 () in
  let inst = Objects.Tas_obj.make ~readable_base:true sim ~name:"T" in
  for p = 0 to 3 do
    Sim.set_script sim p [ (inst, "T&S", Sim.Args [||]) ]
  done;
  run_rr sim;
  nrl_ok sim;
  let zeros =
    List.length
      (List.filter
         (fun p -> List.exists (fun (_, v) -> Nvm.Value.equal v (Int 0)) (Sim.results sim p))
         [ 0; 1; 2; 3 ])
  in
  Alcotest.(check int) "readable variant: exactly one winner" 1 zeros;
  (* randomized torture *)
  let scen =
    {
      Workload.Trial.scen_name = "tas-readable";
      nprocs = 4;
      build =
        (fun sim ->
          let inst = Objects.Tas_obj.make ~readable_base:true sim ~name:"T" in
          for p = 0 to 3 do
            Sim.set_script sim p [ (inst, "T&S", Sim.Args [||]) ]
          done);
    }
  in
  let s = Workload.Trial.batch ~crash_prob:0.1 ~max_crashes:4 ~trials:150 scen in
  Alcotest.(check int) "readable variant: torture" s.Workload.Trial.trials
    s.Workload.Trial.passed

(* {2 Algorithm 4: recoverable counter} *)

let test_counter_crash_free () =
  let sim = Sim.create ~nprocs:3 () in
  let inst = Objects.Counter_obj.make sim ~name:"CTR" in
  for p = 0 to 2 do
    Sim.set_script sim p [ (inst, "INC", Sim.Args [||]); (inst, "INC", Sim.Args [||]) ]
  done;
  Sim.append_script sim 0 [ (inst, "READ", Sim.Args [||]) ];
  run_rr sim;
  nrl_ok sim;
  match List.assoc_opt "READ" (Sim.results sim 0) with
  | Some v -> Alcotest.check value "six increments" (Int 6) v
  | None -> Alcotest.fail "READ did not complete"

(* crash inside the nested WRITE: WRITE.RECOVER runs, then INC.RECOVER sees
   LI = 4 and returns without double-incrementing *)
let test_counter_no_double_increment () =
  (* INC: INV, line 2 = invoke READ (INV, 8, 9/Ret), line 3, line 4 = invoke
     WRITE (INV, 2, 3, 4, 5/Ret), line 5/Ret.  Crash at every prefix length
     and check the final count is exactly 1. *)
  for k = 1 to 10 do
    let sim = Sim.create ~seed:(400 + k) ~nprocs:1 () in
    let inst = Objects.Counter_obj.make sim ~name:"CTR" in
    Sim.set_script sim 0 [ (inst, "INC", Sim.Args [||]); (inst, "READ", Sim.Args [||]) ];
    (try steps sim 0 k with Invalid_argument _ -> ());
    if Sim.status sim 0 = Sim.Ready && (Sim.proc sim 0).Sim.stack <> [] then begin
      Sim.crash sim 0;
      Sim.recover sim 0
    end;
    run_rr sim;
    nrl_ok sim;
    match List.assoc_opt "READ" (Sim.results sim 0) with
    | Some v ->
      Alcotest.check value (Printf.sprintf "count after crash at %d" k) (Int 1) v
    | None -> Alcotest.fail "READ did not complete"
  done

let test_counter_strict_read () =
  let sim = Sim.create ~nprocs:2 () in
  let inst = Objects.Counter_obj.make sim ~name:"CTR" in
  Sim.set_script sim 0 [ (inst, "INC", Sim.Args [||]); (inst, "READ", Sim.Args [||]) ];
  Sim.set_script sim 1 [ (inst, "READ", Sim.Args [||]) ];
  run_rr sim;
  Alcotest.(check int) "READ responses persisted (strict)" 0
    (List.length (Workload.Check.strictness_violations sim))

let test_counter_torture () =
  let scen = Workload.Scenarios.counter ~nprocs:3 ~ops:4 () in
  let s = Workload.Trial.batch ~crash_prob:0.05 ~max_crashes:6 ~trials:80 scen in
  Alcotest.(check int) "all trials pass NRL" s.Workload.Trial.trials s.Workload.Trial.passed

(* conservation: when every process completes, the persistent registers sum
   to exactly the number of INCs — each INC linearized exactly once *)
let prop_counter_conservation =
  QCheck2.Test.make ~name:"counter: sum of registers = completed INCs" ~count:40
    (QCheck2.Gen.int_range 1 100_000) (fun seed ->
      let nprocs = 2 in
      let incs = 3 in
      let sim = Sim.create ~seed ~nprocs () in
      let inst = Objects.Counter_obj.make sim ~name:"CTR" in
      for p = 0 to nprocs - 1 do
        Sim.set_script sim p (List.init incs (fun _ -> (inst, "INC", Sim.Args [||])))
      done;
      let policy =
        Schedule.random ~crash_prob:0.08 ~max_crashes:5 ~seed:(seed * 31 + 7) ()
      in
      match Schedule.run ~max_steps:100_000 sim policy with
      | Schedule.Completed ->
        (* final READ via a fresh quiescent run *)
        Sim.append_script sim 0 [ (inst, "READ", Sim.Args [||]) ];
        (match Schedule.run sim (Schedule.round_robin ()) with
        | Schedule.Completed -> (
          match List.assoc_opt "READ" (Sim.results sim 0) with
          | Some (Nvm.Value.Int n) -> n = nprocs * incs
          | _ -> false)
        | _ -> false)
      | _ -> QCheck2.assume_fail ())

(* property: NRL holds under randomized torture for all four algorithms *)
let prop_nrl_torture =
  QCheck2.Test.make ~name:"NRL holds under random crash schedules (all algorithms)"
    ~count:60
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 0 3))
    (fun (seed, which) ->
      let scen =
        match which with
        | 0 -> Workload.Scenarios.register ~nprocs:2 ~ops:4 ()
        | 1 -> Workload.Scenarios.cas ~nprocs:2 ~ops:4 ()
        | 2 -> Workload.Scenarios.tas ~nprocs:3 ()
        | _ -> Workload.Scenarios.counter ~nprocs:2 ~ops:3 ()
      in
      let _, r = Workload.Trial.run ~seed ~crash_prob:0.1 ~max_crashes:5 scen in
      r.Workload.Trial.nrl_ok)

(* {2 The bug zoo: every mutant is its sound object plus its declared edits} *)

(* a program as (line, printed instruction) pairs; branch targets are
   printed, and an edit never rewrites them *)
let listing p =
  List.init (Program.length p) (fun pc ->
      (Program.line_of_pc p pc, Fmt.str "%a" Program.pp_instr (Program.instr p pc)))

(* the declared edits applied to a listing, independently of
   [Program.edit] *)
let edit_listing l edits =
  let pp i = Fmt.str "%a" Program.pp_instr i in
  List.fold_left
    (fun l -> function
      | Program.Drop lines -> List.filter (fun (line, _) -> not (List.mem line lines)) l
      | Program.Replace (line, i) ->
        List.map (fun (l', s) -> if l' = line then (l', pp i) else (l', s)) l
      | Program.Swap (a, b) ->
        let sa = List.assoc a l and sb = List.assoc b l in
        List.map (fun (l', s) -> (l', if l' = a then sb else if l' = b then sa else s)) l
      | Program.Insert_before (anchor, line, i) ->
        List.concat_map
          (fun (l', s) -> if l' = anchor then [ (line, pp i); (l', s) ] else [ (l', s) ])
          l)
    l edits

(* Built on an instant machine and on an annotated explicit one, each
   mutant's programs are the sound object's with exactly the declared
   edits (none for a persistency mutant off an annotated machine), the
   registry resolves its id to the edited programs, and seeded crash
   trials run to a verdict.  An edit that
   names a line the sound program lacks raises, so a renumbered sound
   program fails here instead of silently making its mutant sound. *)
let test_zoo_mutants_are_edited_sound_objects () =
  List.iter
    (fun (persist, annotated) ->
      List.iter
        (fun (m : Objects.Zoo.mutant) ->
          let build kind sim =
            Workload.Scenarios.install kind sim ~nprocs:2 ~ops:2 ~ratio:0.6 ~rng_seed:1
          in
          let sound = build m.m_algo (Sim.create ~persist ~nprocs:2 ()) in
          let msim = Sim.create ~persist ~nprocs:2 () in
          let mutant = build m.m_name msim in
          let applies = annotated || not m.m_persist in
          let edits = if applies then m.m_edits ~annotated mutant else [] in
          List.iter2
            (fun (op, (s : Objdef.op_def)) (op', (d : Objdef.op_def)) ->
              Alcotest.(check string) (m.m_name ^ ": same operations") op op';
              List.iter2
                (fun sp mp ->
                  let name = Program.name sp in
                  let expected =
                    match List.assoc_opt name edits with
                    | Some es -> edit_listing (listing sp) es
                    | None -> listing sp
                  in
                  Alcotest.(check (list (pair int string)))
                    (Printf.sprintf "%s (annotated %b): %s" m.m_name annotated name)
                    expected (listing mp))
                [ s.body; s.recover ] [ d.body; d.recover ])
            sound.Objdef.ops mutant.Objdef.ops;
          Alcotest.(check bool)
            (Printf.sprintf "%s (annotated %b): edits declared where they apply" m.m_name
               annotated)
            applies (edits <> []);
          Alcotest.(check bool)
            (m.m_name ^ ": the registry resolves the edited programs")
            true
            ((Objdef.find (Sim.registry msim) mutant.Objdef.id).Objdef.ops == mutant.Objdef.ops);
          (* and it runs: no instruction an edit left behind may fault
             (a kept flush of a dropped write's cell once did) *)
          for seed = 1 to 10 do
            let d =
              {
                Fuzz.Gen.kind = m.m_name;
                nprocs = 2;
                ops = 2;
                mix_pm = 600;
                scen_seed = seed;
                sched_seed = seed;
                crash_pm = 0;
                recover_pm = 500;
                system_pm = 0;
                max_crashes = 0;
                max_steps = 1;
                junk = "scramble";
              }
            in
            ignore (Workload.Trial.run ~persist ~crash_prob:0.1 ~seed (Fuzz.Gen.scenario d))
          done)
        Objects.Zoo.all)
    [ (Nvm.Memory.Instant, false); (Nvm.Memory.Explicit, true) ]

let suite =
  [
    Alcotest.test_case "rw: crash-free" `Quick test_rw_crash_free;
    Alcotest.test_case "rw: crash at every position" `Quick test_rw_crash_every_position;
    Alcotest.test_case "rw: no re-execution after overwrite" `Quick test_rw_interleaved_crash_no_reexecution;
    Alcotest.test_case "rw: early crash re-executes" `Quick test_rw_crash_before_s_update_reexecutes;
    Alcotest.test_case "rw: repeated crashes" `Quick test_rw_repeated_crashes;
    Alcotest.test_case "rw: randomized torture" `Slow test_rw_torture;
    Alcotest.test_case "rw: Lemma 2 exhaustive (2 procs, 1 crash)" `Slow test_rw_exhaustive_lemma2;
    Alcotest.test_case "cas: crash-free, one winner" `Quick test_cas_crash_free;
    Alcotest.test_case "cas: intro scenario (crash after success)" `Quick test_cas_crash_after_success_reports_true;
    Alcotest.test_case "cas: crash before cas re-executes" `Quick test_cas_crash_before_cas_reexecutes;
    Alcotest.test_case "cas: randomized torture" `Slow test_cas_torture;
    Alcotest.test_case "cas: Lemma 3 exhaustive (2 procs, 1 crash)" `Slow test_cas_exhaustive_lemma3;
    Alcotest.test_case "tas: unique winner" `Quick test_tas_crash_free_unique_winner;
    Alcotest.test_case "tas: strictness" `Quick test_tas_strictness;
    Alcotest.test_case "tas: winner crash before announce" `Quick test_tas_winner_crash_before_announce;
    Alcotest.test_case "tas: recovery blocks on active process" `Quick test_tas_recovery_blocks;
    Alcotest.test_case "tas: randomized torture" `Slow test_tas_torture;
    Alcotest.test_case "tas: readable-base variant (footnote 3)" `Slow test_tas_readable_base_variant;
    Alcotest.test_case "counter: crash-free" `Quick test_counter_crash_free;
    Alcotest.test_case "counter: no double increment" `Quick test_counter_no_double_increment;
    Alcotest.test_case "counter: strict READ" `Quick test_counter_strict_read;
    Alcotest.test_case "counter: randomized torture" `Slow test_counter_torture;
    Alcotest.test_case "zoo: mutants are sound objects plus their edits" `Quick
      test_zoo_mutants_are_edited_sound_objects;
    QCheck_alcotest.to_alcotest prop_counter_conservation;
    QCheck_alcotest.to_alcotest prop_nrl_torture;
  ]
