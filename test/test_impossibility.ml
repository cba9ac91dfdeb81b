(* Tests for the Theorem 4 machinery: valency analysis, critical
   configurations, the crash-extension experiment and candidate
   refutation. *)

open Impossibility

let test_initial_bivalent_paper () =
  let r = Theorem.analyze_paper_algorithm () in
  Alcotest.(check bool) "bivalent initial" true r.Theorem.initial_bivalent

let test_critical_config_paper () =
  let r = Theorem.analyze_paper_algorithm () in
  Alcotest.(check bool) "critical configuration exists" true (r.Theorem.critical_depth <> None);
  Alcotest.(check (option bool))
    "critical steps are t&s on the same base object" (Some true)
    r.Theorem.critical_steps_are_tas_on_same_object;
  Alcotest.(check int) "no crash-free cycles" 0 r.Theorem.back_edges

let test_paper_recovery_blocks () =
  let r = Theorem.analyze_paper_algorithm () in
  match r.Theorem.crash_extension with
  | Some e ->
    Alcotest.(check bool) "recovery blocks after the crash extension" true
      e.Theorem.solo_blocked
  | None -> Alcotest.fail "no crash extension performed"

let test_candidates_refuted () =
  List.iter
    (fun c ->
      let r = Theorem.analyze_candidate c in
      Alcotest.(check bool)
        (c.Candidates.cand_name ^ ": initial bivalent")
        true r.Theorem.initial_bivalent;
      Alcotest.(check int)
        (c.Candidates.cand_name ^ ": no crash-free cycles")
        0 r.Theorem.back_edges;
      (match r.Theorem.crash_extension with
      | Some e ->
        Alcotest.(check bool)
          (c.Candidates.cand_name ^ ": recovery did not block (wait-free)")
          false e.Theorem.solo_blocked;
        Alcotest.(check bool)
          (c.Candidates.cand_name ^ ": crash extensions indistinguishable")
          true e.Theorem.indistinguishable
      | None -> Alcotest.fail "no crash extension");
      Alcotest.(check bool)
        (c.Candidates.cand_name ^ ": concrete NRL violation found")
        true
        (r.Theorem.violation <> None))
    Candidates.all

(* {2 Recoverable consensus: CAS decide solves it, read/write cannot} *)

let test_consensus_golab_clean () =
  let r = Consensus.analyze_golab () in
  Alcotest.(check bool) "initial bivalent" true r.Consensus.initial_bivalent;
  Alcotest.(check int) "no crash-free cycles" 0 r.Consensus.back_edges;
  Alcotest.(check bool) "critical configuration exists" true
    (r.Consensus.critical_depth <> None);
  Alcotest.(check (option bool))
    "critical steps are cas on the same base object" (Some true)
    r.Consensus.critical_steps_are_cas_on_same_object;
  (match r.Consensus.crash_extension with
  | Some e -> Alcotest.(check bool) "agreement through the crash" true e.Consensus.agreement
  | None -> Alcotest.fail "no crash extension performed");
  Alcotest.(check (option string)) "no NRL violation in bounded search" None
    r.Consensus.violation;
  Alcotest.(check bool) "bounded search reached terminals" true
    (r.Consensus.explored_terminals > 0);
  Alcotest.(check int) "bounded search not truncated" 0 r.Consensus.explored_truncated

let test_consensus_rw_candidates_refuted () =
  List.iter
    (fun c ->
      let r = Consensus.analyze_candidate c in
      Alcotest.(check bool)
        (c.Candidates.cand_name ^ ": initial bivalent")
        true r.Consensus.initial_bivalent;
      Alcotest.(check int)
        (c.Candidates.cand_name ^ ": no crash-free cycles")
        0 r.Consensus.back_edges;
      Alcotest.(check (option bool))
        (c.Candidates.cand_name ^ ": critical steps are not a cas pair")
        (Some false) r.Consensus.critical_steps_are_cas_on_same_object;
      Alcotest.(check bool)
        (c.Candidates.cand_name ^ ": concrete NRL violation found")
        true
        (r.Consensus.violation <> None))
    Consensus.candidates

let test_valency_zero_mask_solo () =
  (* a single process doing T&S on the paper's algorithm: only it can
     return 0 *)
  let sim = Machine.Sim.create ~nprocs:1 () in
  let inst = Objects.Tas_obj.make sim ~name:"T" in
  Machine.Sim.set_script sim 0 [ (inst, "T&S", Machine.Sim.Args [||]) ];
  let v = Valency.create ~outcome:Theorem.returned_zero in
  (match Valency.classify v sim with
  | Valency.Univalent 0 -> ()
  | other -> Alcotest.failf "expected p0-valent, got %a" Valency.pp_verdict other);
  Alcotest.(check bool) "explored some configs" true (v.Valency.configs > 0)

let test_statekey_distinguishes () =
  let mk () =
    let sim = Machine.Sim.create ~nprocs:2 () in
    let inst = Objects.Tas_obj.make sim ~name:"T" in
    for p = 0 to 1 do
      Machine.Sim.set_script sim p [ (inst, "T&S", Machine.Sim.Args [||]) ]
    done;
    sim
  in
  let a = mk () in
  let b = mk () in
  let key = Machine.Fingerprint.of_sim in
  Alcotest.(check string) "identical configs, identical keys"
    (Machine.Fingerprint.to_string (key a))
    (Machine.Fingerprint.to_string (key b));
  Machine.Sim.step b 0;
  Alcotest.(check bool) "different configs, different keys" true
    (not (Machine.Fingerprint.equal (key a) (key b)))

let test_pending_step_detects_tas () =
  let sim = Machine.Sim.create ~nprocs:1 () in
  let inst = Objects.Naive.make_tas ~strategy:`Reexecute sim ~name:"T" in
  Machine.Sim.set_script sim 0 [ (inst, "T&S", Machine.Sim.Args [||]) ];
  Machine.Sim.step sim 0 (* INV; next = Tas_prim *);
  match Valency.pending_step sim 0 with
  | Some s ->
    Alcotest.(check string) "kind" "t&s" s.Valency.ps_kind;
    Alcotest.(check bool) "address known" true (s.Valency.ps_addr <> None)
  | None -> Alcotest.fail "expected a pending step"

let test_valency_counts_back_edges () =
  (* a crash-free busy-wait on a cell nobody writes: the loop revisits a
     configuration still on the DFS stack *)
  let sim = Machine.Sim.create ~nprocs:1 () in
  let c = Nvm.Memory.alloc ~name:"S.c" (Machine.Sim.mem sim) (Nvm.Value.Int 0) in
  let open Machine.Program in
  let body =
    make ~name:"SPIN"
      [ (2, Read ("x", at c)); (3, Branch_if (eq (local "x") (int 0), 2)); (4, Ret (int 0)) ]
  in
  let recover = make ~name:"SPIN.RECOVER" [ (6, Resume 2) ] in
  let inst =
    Machine.Objdef.register (Machine.Sim.registry sim) ~otype:"spin" ~name:"S"
      [ ("SPIN", { Machine.Objdef.op_name = "SPIN"; body; recover }) ]
  in
  Machine.Sim.set_script sim 0 [ (inst, "SPIN", Machine.Sim.Args [||]) ];
  let v = Valency.create ~outcome:Theorem.returned_zero in
  Alcotest.(check int) "no process returns" 0 (Valency.mask v sim);
  Alcotest.(check bool) "the spin loop is a back edge" true (v.Valency.back_edges > 0)

let suite =
  [
    Alcotest.test_case "paper alg: initial bivalent" `Slow test_initial_bivalent_paper;
    Alcotest.test_case "paper alg: critical config, t&s steps" `Slow test_critical_config_paper;
    Alcotest.test_case "paper alg: recovery blocks" `Slow test_paper_recovery_blocks;
    Alcotest.test_case "wait-free candidates all refuted" `Slow test_candidates_refuted;
    Alcotest.test_case "consensus: cas decide clean through crashes" `Slow
      test_consensus_golab_clean;
    Alcotest.test_case "consensus: rw-only candidates refuted" `Slow
      test_consensus_rw_candidates_refuted;
    Alcotest.test_case "solo valency" `Quick test_valency_zero_mask_solo;
    Alcotest.test_case "state keys" `Quick test_statekey_distinguishes;
    Alcotest.test_case "pending step detection" `Quick test_pending_step_detects_tas;
    Alcotest.test_case "crash-free cycles counted" `Quick test_valency_counts_back_edges;
  ]
