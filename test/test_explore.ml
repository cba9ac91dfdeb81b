(* Tests for the exhaustive scheduler: enumeration counts on hand-sized
   instances, the partial-order reduction's consistency with the
   unreduced search, and crashed-forever terminals. *)

open Machine

let toy sim obj_name =
  let open Program in
  let cell = Nvm.Memory.alloc ~name:obj_name (Sim.mem sim) (Nvm.Value.Int 0) in
  let body =
    make ~name:"BUMP"
      [
        (2, Read ("v", at cell));
        (3, Write (at cell, add (local "v") (int 1)));
        (4, Ret (local "v"));
      ]
  in
  let recover = make ~name:"BUMP.RECOVER" [ (10, Resume 2) ] in
  Objdef.register (Sim.registry sim) ~otype:"toy" ~name:obj_name
    [ ("BUMP", { Objdef.op_name = "BUMP"; body; recover }) ]

let build_two () =
  let sim = Sim.create ~nprocs:2 () in
  let inst = toy sim "X" in
  for p = 0 to 1 do
    Sim.set_script sim p [ (inst, "BUMP", Sim.Args [||]) ]
  done;
  sim

let test_crash_free_enumeration_count () =
  (* with reduction, only the 2 shared accesses per process interleave:
     C(4,2) = 6 distinct complete schedules *)
  let cfg =
    { Explore.default_config with max_steps = 40; max_crashes = 0; crash_procs = [] }
  in
  let stats = Explore.dfs ~cfg ~on_terminal:(fun _ -> ()) (build_two ()) in
  Alcotest.(check int) "terminals" 6 stats.Explore.terminals;
  Alcotest.(check int) "no truncation" 0 stats.Explore.truncated

let test_unreduced_enumeration_larger () =
  let cfg =
    {
      Explore.default_config with
      max_steps = 40;
      max_crashes = 0;
      reduce_local = false;
    }
  in
  let stats = Explore.dfs ~cfg ~on_terminal:(fun _ -> ()) (build_two ()) in
  (* every interleaving of 4 steps per process (INV, read, write, ret):
     C(8,4) = 70 *)
  Alcotest.(check int) "unreduced terminals" 70 stats.Explore.terminals

let test_reduction_preserves_outcomes () =
  (* the set of (final cell value, per-process results) outcomes must be
     identical with and without reduction *)
  let outcomes cfg =
    let acc = ref [] in
    let _ =
      Explore.dfs ~cfg
        ~on_terminal:(fun sim ->
          let v = Nvm.Value.to_string (Nvm.Memory.peek (Sim.mem sim) 0) in
          let res =
            List.map (fun p -> List.map snd (Sim.results sim p)) [ 0; 1 ]
            |> List.map (List.map Nvm.Value.to_string)
          in
          acc := (v, res) :: !acc)
        (build_two ())
    in
    List.sort_uniq compare !acc
  in
  let reduced =
    outcomes { Explore.default_config with max_steps = 40; max_crashes = 0; crash_procs = [] }
  in
  let unreduced =
    outcomes
      {
        Explore.default_config with
        max_steps = 40;
        max_crashes = 0;
        reduce_local = false;
      }
  in
  Alcotest.(check (list (pair string (list (list string))))) "same outcome sets" unreduced reduced

let test_crash_branches_reachable () =
  (* with a crash budget, some terminal must contain a crash step *)
  let cfg =
    { Explore.default_config with max_steps = 60; max_crashes = 1; crash_procs = [ 0 ] }
  in
  let saw_crash = ref false in
  let stats =
    Explore.dfs ~cfg
      ~on_terminal:(fun sim ->
        if
          List.exists
            (function History.Step.Crash _ -> true | _ -> false)
            (History.to_list (Sim.history sim))
        then saw_crash := true)
      (build_two ())
  in
  Alcotest.(check bool) "crashes explored" true !saw_crash;
  Alcotest.(check bool) "more terminals than crash-free" true (stats.Explore.terminals > 6)

let test_crashed_forever_terminal () =
  (* a process that crashes and never recovers: the execution where the
     other finishes must still be counted as terminal *)
  let sim = build_two () in
  Sim.step sim 0 (* INV *);
  Sim.step sim 0 (* read *);
  Sim.crash sim 0;
  let cfg =
    { Explore.default_config with max_steps = 40; max_crashes = 0; crash_procs = [] }
  in
  let down_terminals = ref 0 in
  let _ =
    Explore.dfs ~cfg
      ~on_terminal:(fun s -> if Sim.status s 0 = Sim.Crashed then incr down_terminals)
      sim
  in
  Alcotest.(check bool) "crashed-forever terminals seen" true (!down_terminals > 0)

let test_find_violation_reports_toy () =
  (* the toy BUMP object is not linearizable as a counter under crashes
     (re-execution duplicates the increment), so with a "faa_register"-like
     spec a violation must be found; here we just check the plumbing by
     requiring that a violation-free predicate returns None *)
  let cfg =
    { Explore.default_config with max_steps = 40; max_crashes = 0; crash_procs = [] }
  in
  let v, _ = Explore.find_violation ~cfg ~check:(fun _ -> None) (build_two ()) in
  Alcotest.(check bool) "no violation when predicate never fires" true (v = None);
  let v, _ =
    Explore.find_violation ~cfg ~check:(fun _ -> Some "always") (build_two ())
  in
  Alcotest.(check bool) "first terminal reported" true (v <> None)

(* {2 The domain-parallel engine} *)

let stats_triple (s : Explore.stats) = (s.Explore.terminals, s.Explore.truncated, s.Explore.nodes)

let counter_value reg name =
  match Obs.Metrics.view reg name with Some (Obs.Metrics.Counter n) -> n | _ -> 0

let seed_scenario name ~nprocs ~ops =
  let module S = Workload.Scenarios in
  let scen = S.of_kind (S.kind name) ~nprocs ~ops () in
  fun () ->
    let sim = Sim.create ~nprocs () in
    scen.Workload.Trial.build sim;
    sim

let crashy_cfg = { Explore.default_config with max_steps = 100; max_crashes = 1; crash_procs = [ 0 ] }

let test_parallel_determinism () =
  (* jobs = 1..4 must report exactly the sequential statistics: every node
     is processed once by the same traversal code wherever the frontier
     splits the tree *)
  List.iter
    (fun (name, nprocs, ops) ->
      let build = seed_scenario name ~nprocs ~ops in
      let expected = stats_triple (Explore.dfs ~cfg:crashy_cfg ~on_terminal:ignore (build ())) in
      List.iter
        (fun jobs ->
          let got =
            stats_triple
              (Explore.dfs ~cfg:crashy_cfg ~jobs ~on_terminal:ignore (build ()))
          in
          Alcotest.(check (triple int int int))
            (Printf.sprintf "%s: jobs=%d = sequential" name jobs)
            expected got)
        [ 1; 2; 3; 4 ])
    [ ("register", 2, 2); ("cas", 2, 1) ]

let test_parallel_violation_verdict () =
  (* the verdict (violation exists or not) must not depend on the domain
     count; which counterexample is produced may *)
  List.iter
    (fun jobs ->
      let v, _ =
        Explore.find_violation ~cfg:crashy_cfg ~jobs ~check:Workload.Check.nrl_violation
          (seed_scenario "naive-rw-optimistic" ~nprocs:2 ~ops:2 ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "naive baseline violation found with jobs=%d" jobs)
        true (v <> None);
      (match v with
      | Some (_, reason) ->
        Alcotest.(check bool) "reason mentions linearizability" true
          (String.length reason > 0)
      | None -> ());
      let v, stats =
        Explore.find_violation ~cfg:crashy_cfg ~jobs ~check:Workload.Check.nrl_violation
          (seed_scenario "register" ~nprocs:2 ~ops:1 ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "paper register clean with jobs=%d" jobs)
        true
        (v = None && stats.Explore.terminals > 0))
    [ 1; 2; 4 ]

let test_parallel_on_terminal_abort () =
  (* a non-Found exception raised by on_terminal in a worker domain must
     surface in the caller (the abort-by-exception contract) *)
  let seen = Atomic.make 0 in
  let build = seed_scenario "register" ~nprocs:2 ~ops:1 in
  match
    Explore.dfs ~cfg:crashy_cfg ~jobs:2
      ~on_terminal:(fun _ -> if Atomic.fetch_and_add seen 1 >= 10 then Stdlib.Exit |> raise)
      (build ())
  with
  | _ -> Alcotest.fail "expected the callback's exception to propagate"
  | exception Stdlib.Exit -> ()

(* {2 State deduplication} *)

let test_dedup_prunes_and_preserves_clean_verdict () =
  let build = seed_scenario "register" ~nprocs:2 ~ops:2 in
  let full = Explore.dfs ~cfg:crashy_cfg ~on_terminal:ignore (build ()) in
  let deduped = Explore.dfs ~cfg:crashy_cfg ~dedup:true ~on_terminal:ignore (build ()) in
  Alcotest.(check bool) "prunes converging prefixes" true (deduped.Explore.dup > 0);
  Alcotest.(check bool) "explores strictly fewer nodes" true
    (deduped.Explore.nodes < full.Explore.nodes);
  Alcotest.(check int) "full sweep untouched by dedup accounting" 0 full.Explore.dup;
  let v, _ =
    Explore.find_violation ~cfg:crashy_cfg ~dedup:true ~check:Workload.Check.nrl_violation
      (build ())
  in
  Alcotest.(check bool) "paper register still clean under dedup" true (v = None)

let test_dedup_still_finds_state_visible_violation () =
  (* dedup under-approximates prefix histories but any violation it finds
     is real; the naive re-executing CAS corrupts the *state*, so its
     violation survives deduplication (at every jobs count) *)
  List.iter
    (fun jobs ->
      let v, _ =
        Explore.find_violation ~cfg:crashy_cfg ~jobs ~dedup:true
          ~check:Workload.Check.nrl_violation
          (seed_scenario "naive-cas-reexec" ~nprocs:2 ~ops:2 ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "naive-cas-reexec violation survives dedup (jobs=%d)" jobs)
        true (v <> None))
    [ 1; 2 ]

(* {2 The jobs x dedup matrix} *)

(* crash-free bound for the recoverable T&S: each of its single ops is
   dozens of machine instructions, so a crash budget makes the tree
   astronomically large; 40 steps complete every crash-free
   interleaving of two processes (truncated = 0, checked below) *)
let tas_free_cfg = { Explore.default_config with max_steps = 40; max_crashes = 0 }

let test_jobs_dedup_matrix () =
  (* every statistic must be independent of the domain fan-out.
     Deduplication changes the counts by design (pruned subtrees), so the
     pin is per dedup setting.  The pinned (terminals, truncated, nodes)
     and dup values are those of the retired clone-per-branch engine,
     which copied the machine at every branch point instead of
     backtracking: the trailed search must visit exactly its tree.
     Nothing may be truncated: with no depth cut-offs the deduplicated
     counts are a pure reachability fixpoint (each fingerprint processed
     exactly once, out-degrees a function of the configuration alone),
     hence independent of which worker won the race to a configuration *)
  List.iter
    (fun (name, nprocs, ops, cfg, pins) ->
      let build = seed_scenario name ~nprocs ~ops in
      List.iter
        (fun (dedup, expected, expected_dup) ->
          List.iter
            (fun jobs ->
              let got = Explore.dfs ~cfg ~jobs ~dedup ~on_terminal:ignore (build ()) in
              Alcotest.(check (triple int int int))
                (Printf.sprintf "%s: jobs=%d dedup=%b" name jobs dedup)
                expected (stats_triple got);
              Alcotest.(check int)
                (Printf.sprintf "%s: dup count jobs=%d dedup=%b" name jobs dedup)
                expected_dup got.Explore.dup)
            [ 1; 2; 3 ])
        pins)
    [
      ( "register",
        2,
        1,
        crashy_cfg,
        [ (false, (3197, 0, 18977), 0); (true, (15, 0, 557), 248) ] );
      ("tas", 2, 0, tas_free_cfg, [ (false, (6040, 0, 35705), 0); (true, (1, 0, 110), 45) ]);
    ]

(* {2 Mark/undo restores the machine} *)

(* The search backtracks by [Sim.mark]/[Sim.undo_to] on one machine; a
   [Sim.clone] taken at the mark is the oracle.  Random machines: a
   paper scenario under either persist model, driven down a random
   decision prefix drawn from [Explore.decisions] (crashes included, so
   recovery frames, junk draws and — under explicit persist — crash
   persistence masks are on the trail).  After a random excursion and
   the undo, the machine must have the clone's fingerprint (which covers
   the persisted view under explicit persist) and history.  It must also
   keep matching both the clone and a fresh machine replayed down the
   same prefix along a common continuation, which exposes any counter
   the undo failed to restore (call ids, the junk stream) and any state
   the clone failed to copy exactly — such as scrambled environments
   that stopped sharing the machine's junk generator, so that a later
   crash advanced the streams apart. *)
let walk ~crashes sim choices =
  let cfg = { Explore.default_config with max_crashes = 2; crash_procs = [ 0; 1 ] } in
  List.iter
    (fun c ->
      match Explore.decisions cfg ~sym:false ~crashes:!crashes sim with
      | [] -> ()
      | ds ->
        let d = List.nth ds (c mod List.length ds) in
        (match d with
        | Schedule.Dcrash _ | Schedule.Dcrash_sys _ -> incr crashes
        | _ -> ());
        Schedule.apply sim d;
        (* fingerprint every state, as a dedup search does, so the
           machine's cached key parts are live across the walk *)
        ignore (Fingerprint.of_sim sim))
    choices

let prop_mark_undo_matches_clone =
  let scenarios = Array.of_list (Workload.Scenarios.all_paper ~nprocs:2 ()) in
  QCheck2.Test.make ~name:"Sim.undo_to restores the machine a clone took at the mark"
    ~count:1000
    ~print:
      QCheck2.Print.(
        tup5 (fun k -> scenarios.(k).Workload.Trial.scen_name) bool (list int) (list int)
          (list int))
    QCheck2.Gen.(
      tup5 (int_bound (Array.length scenarios - 1)) bool
        (list_size (int_bound 40) nat)
        (list_size (int_bound 40) nat)
        (list_size (int_bound 20) nat))
    (fun (k, explicit, prefix, excursion, continuation) ->
      let persist = if explicit then Nvm.Memory.Explicit else Nvm.Memory.Instant in
      let build () =
        let sim = Sim.create ~persist ~nprocs:2 () in
        scenarios.(k).Workload.Trial.build sim;
        sim
      in
      (* the cached key equals the one built from scratch: after the
         undo, on the clone, and on the fresh replay *)
      let same a b =
        Fingerprint.equal (Fingerprint.of_sim a) (Fingerprint.of_sim b)
        && Fingerprint.equal (Fingerprint.of_sim a) (Fingerprint.of_sim_uncached a)
        && Fingerprint.equal (Fingerprint.of_sim b) (Fingerprint.of_sim_uncached b)
        && History.to_list (Sim.history a) = History.to_list (Sim.history b)
      in
      let sim = build () in
      Sim.enable_trail sim;
      let crashes = ref 0 in
      walk ~crashes sim prefix;
      let at_mark = !crashes in
      let oracle = Sim.clone sim in
      let m = Sim.mark sim in
      walk ~crashes sim excursion;
      (* the clone keeps its own key parts while the original moves on *)
      let clone_key_ok =
        Fingerprint.equal (Fingerprint.of_sim oracle) (Fingerprint.of_sim_uncached oracle)
      in
      Sim.undo_to sim m;
      let replayed = build () in
      walk ~crashes:(ref 0) replayed prefix;
      clone_key_ok && same sim oracle && same sim replayed
      &&
      (walk ~crashes:(ref at_mark) sim continuation;
       walk ~crashes:(ref at_mark) oracle continuation;
       walk ~crashes:(ref at_mark) replayed continuation;
       same sim oracle && same sim replayed))

(* {2 Incremental checking} *)

let all_seed_scenarios =
  (* tas gets a tight depth bound: its single ops expand to dozens of
     machine instructions, and a crash budget at depth 100 is an
     astronomically large tree *)
  [
    ("register", 2, 1, crashy_cfg);
    ("cas", 2, 1, crashy_cfg);
    ("tas", 2, 0, { crashy_cfg with Explore.max_steps = 20 });
    ("naive-rw-optimistic", 2, 2, crashy_cfg);
    ("naive-cas-reexec", 2, 2, crashy_cfg);
  ]

let test_incremental_matches_terminal () =
  (* `Incremental threads Nrl.Incremental state down the path instead of
     re-checking each terminal from scratch; the verdict (violation
     exists or clean) and the complete-sweep statistics must coincide
     with `Terminal on every scenario *)
  List.iter
    (fun (name, nprocs, ops, cfg) ->
      let build = seed_scenario name ~nprocs ~ops in
      let vt, st =
        Explore.find_violation ~cfg ~check_mode:`Terminal
          ~check:Workload.Check.nrl_violation (build ())
      in
      let reg = Obs.Metrics.create () in
      let vi, si =
        Explore.find_violation ~cfg ~obs:reg
          ~check_mode:(`Incremental (Workload.Check.nrl_incremental ()))
          ~check:Workload.Check.nrl_violation (build ())
      in
      Alcotest.(check bool) (name ^ ": same verdict") (vt <> None) (vi <> None);
      (* the transition memo computes a closure at most once per
         response step that reaches one *)
      Alcotest.(check bool)
        (name ^ ": closures computed <= response transitions")
        true
        (counter_value reg Obs.Names.nrl_inc_closures
        <= counter_value reg Obs.Names.nrl_inc_res_transitions);
      if vt = None then
        Alcotest.(check (triple int int int))
          (name ^ ": same clean-sweep stats")
          (stats_triple st) (stats_triple si))
    all_seed_scenarios

(* Each distinct per-object transition is computed once per search.  At
   jobs = 1 the DFS order decides which path computes it, so the count
   is pinned; at jobs > 1 a domain that loses a publication race has
   computed one more (nrl.inc.closures is not engine-invariant). *)
let test_incremental_closures_pinned () =
  List.iter
    (fun (name, nprocs, ops, closures) ->
      let reg = Obs.Metrics.create () in
      let v, _ =
        Explore.find_violation ~cfg:crashy_cfg ~jobs:1 ~obs:reg
          ~check_mode:(`Incremental (Workload.Check.nrl_incremental ()))
          ~check:Workload.Check.nrl_violation
          (seed_scenario name ~nprocs ~ops ())
      in
      Alcotest.(check bool) (name ^ ": clean") true (v = None);
      Alcotest.(check int)
        (Printf.sprintf "%s %dx%d: closures computed" name nprocs ops)
        closures
        (counter_value reg Obs.Names.nrl_inc_closures))
    [ ("counter", 2, 1, 29); ("register", 3, 1, 31) ]

let test_incremental_counterexample_is_violating () =
  (* the machine captured by the incremental mode must itself fail the
     terminal checker: the two judges agree on the witness, not just on
     existence *)
  let v, _ =
    Explore.find_violation ~cfg:crashy_cfg
      ~check_mode:(`Incremental (Workload.Check.nrl_incremental ()))
      ~check:(fun _ -> None)
      (seed_scenario "naive-rw-optimistic" ~nprocs:2 ~ops:2 ())
  in
  match v with
  | None -> Alcotest.fail "expected the naive baseline to fail incrementally"
  | Some (sim, _) ->
    Alcotest.(check bool)
      "terminal checker rejects the captured machine" true
      (Workload.Check.nrl_violation sim <> None)

let test_on_step_hook_runs_per_decision () =
  (* on_step must fire once per applied decision: nodes = steps + 1 root
     (every non-root node is entered by exactly one decision; terminal
     extensions re-enter the same count) *)
  let build = seed_scenario "register" ~nprocs:2 ~ops:1 in
  let steps = ref 0 in
  let stats =
    Explore.dfs ~cfg:crashy_cfg ~on_step:(fun _ -> incr steps) ~on_terminal:ignore (build ())
  in
  Alcotest.(check bool) "hook fired" true (!steps > 0);
  Alcotest.(check bool)
    "at least one application per non-root node" true
    (!steps >= stats.Explore.nodes - 1)

let test_dedup_stats_deterministic () =
  let build = seed_scenario "register" ~nprocs:2 ~ops:2 in
  let a = Explore.dfs ~cfg:crashy_cfg ~dedup:true ~on_terminal:ignore (build ()) in
  let b = Explore.dfs ~cfg:crashy_cfg ~dedup:true ~on_terminal:ignore (build ()) in
  Alcotest.(check (triple int int int)) "repeatable" (stats_triple a) (stats_triple b);
  Alcotest.(check int) "repeatable dup count" a.Explore.dup b.Explore.dup

let suite =
  [
    Alcotest.test_case "reduced enumeration count" `Quick test_crash_free_enumeration_count;
    Alcotest.test_case "unreduced enumeration count" `Quick test_unreduced_enumeration_larger;
    Alcotest.test_case "reduction preserves outcomes" `Quick test_reduction_preserves_outcomes;
    Alcotest.test_case "crash branches reachable" `Quick test_crash_branches_reachable;
    Alcotest.test_case "crashed-forever terminals" `Quick test_crashed_forever_terminal;
    Alcotest.test_case "find_violation plumbing" `Quick test_find_violation_reports_toy;
    Alcotest.test_case "parallel: stats determinism jobs=1..4" `Quick test_parallel_determinism;
    Alcotest.test_case "parallel: violation verdict invariant" `Quick
      test_parallel_violation_verdict;
    Alcotest.test_case "parallel: on_terminal abort propagates" `Quick
      test_parallel_on_terminal_abort;
    Alcotest.test_case "dedup: prunes, clean verdict preserved" `Quick
      test_dedup_prunes_and_preserves_clean_verdict;
    Alcotest.test_case "dedup: state-visible violation survives" `Quick
      test_dedup_still_finds_state_visible_violation;
    Alcotest.test_case "dedup: deterministic statistics" `Quick test_dedup_stats_deterministic;
    Alcotest.test_case "matrix: jobs x dedup" `Quick test_jobs_dedup_matrix;
    QCheck_alcotest.to_alcotest prop_mark_undo_matches_clone;
    Alcotest.test_case "incremental = terminal verdicts" `Quick test_incremental_matches_terminal;
    Alcotest.test_case "incremental: closures computed pinned" `Quick
      test_incremental_closures_pinned;
    Alcotest.test_case "incremental counterexample violates" `Quick
      test_incremental_counterexample_is_violating;
    Alcotest.test_case "on_step hook" `Quick test_on_step_hook_runs_per_decision;
  ]
