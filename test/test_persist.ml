(* Explicit-persist memory model, end to end: the PR's acceptance pins.

   Under `--persist-model explicit` the flush-annotated Algorithms 1-4
   sweep clean through exhaustive exploration with a crash budget, the
   bare (unannotated) transcriptions are violated, and each
   missing-flush / misplaced-fence zoo mutant is violated — the same
   facts the CI smoke checks through the CLI, pinned here at the library
   level with the exact configurations measured fast enough for the
   default test run. *)

open Machine

(* mirror the CLI's explore configuration: crash budget on process 0,
   depth bound 100 per branch, dedup on (the explicit-mode state space
   is intractable without it — flush interleavings times crash masks) *)
let explore_verdict ?(annotate = true) ~crashes scenario =
  let sim =
    Sim.create ~persist:Nvm.Memory.Explicit ~annotate
      ~nprocs:scenario.Workload.Trial.nprocs ()
  in
  scenario.Workload.Trial.build sim;
  let cfg =
    { Explore.default_config with max_steps = 100; max_crashes = crashes; crash_procs = [ 0 ] }
  in
  let found, _stats =
    Explore.find_violation ~cfg ~dedup:true ~check:Workload.Check.nrl_violation sim
  in
  Option.map snd found

let test_annotated_algorithms_clean () =
  List.iter
    (fun (name, scen) ->
      match explore_verdict ~crashes:1 scen with
      | None -> ()
      | Some reason -> Alcotest.failf "annotated %s violated: %s" name reason)
    [
      ("register", Workload.Scenarios.register ~nprocs:2 ~ops:2 ());
      ("cas", Workload.Scenarios.cas ~nprocs:2 ~ops:2 ());
      ("tas", Workload.Scenarios.tas ~nprocs:2 ());
      ("counter", Workload.Scenarios.counter ~nprocs:2 ~ops:1 ());
    ]

let test_unannotated_register_violated () =
  match
    explore_verdict ~annotate:false ~crashes:1
      (Workload.Scenarios.register ~nprocs:2 ~ops:2 ())
  with
  | Some _ -> ()
  | None ->
    Alcotest.fail
      "bare Algorithm 1 (no flushes) survived explicit-persist exploration"

(* the mutant scenario the CLI's `explore <mutant>` runs: its workload is
   fixed, so this is exactly the counterexample documented in
   docs/memory-model.md *)
let test_zoo_missing_flush_violated () =
  let m = Option.get (Objects.Zoo.find "rw-write-skip-flush-r") in
  match explore_verdict ~crashes:1 (Workload.Scenarios.mutant m ~nprocs:2 ~ops:4 ()) with
  | Some _ -> ()
  | None -> Alcotest.fail "rw-write-skip-flush-r survived explicit-persist exploration"

(* tas-fence-early needs no crash at all: the misplaced fence orders the
   earlier writes but leaves the response record itself unflushed, so
   every completed T&S finishes with its response still pending —
   Definition 1 strictness, visible on a plain run *)
let tas_run kind =
  let sim = Sim.create ~seed:3 ~persist:Nvm.Memory.Explicit ~nprocs:2 () in
  ignore (Workload.Scenarios.install kind sim ~nprocs:2 ~ops:1 ~ratio:0.0 ~rng_seed:1);
  (match Schedule.run sim (Schedule.round_robin ()) with
  | Schedule.Completed -> ()
  | _ -> Alcotest.fail "run did not complete");
  sim

let test_tas_fence_early_strictness () =
  let sim = tas_run "tas-fence-early" in
  Alcotest.(check bool) "mutant leaves responses unpersisted" true
    (Workload.Check.strictness_violations sim <> []);
  let sound = tas_run "tas" in
  Alcotest.(check int) "annotated T&S persists every response" 0
    (List.length (Workload.Check.strictness_violations sound))

(* {2 The durable-linearizability checker}

   The drop-pending pin: complete a WRITE, lose its unflushed cell to a
   system crash, observe the stale value — durably linearizable exactly
   when the completed op's writes were flushed before the crash. *)

let write_crash_read ~annotate =
  let sim = Sim.create ~seed:7 ~persist:Nvm.Memory.Explicit ~annotate ~nprocs:2 () in
  let inst = Objects.Rw_obj.make sim ~name:"R" in
  Sim.set_script sim 0 [ (inst, "WRITE", Sim.Args [| Nvm.Value.Int 1 |]) ];
  Sim.set_script sim 1 [ (inst, "READ", Sim.Args [||]) ];
  (* p0's WRITE runs to completion... *)
  while List.assoc_opt "WRITE" (Sim.results sim 0) = None do
    Sim.step sim 0
  done;
  (* ...then the whole system goes down, losing every unflushed write *)
  Sim.crash_all ~mask:0 sim;
  Sim.recover sim 0;
  Sim.recover sim 1;
  (match Schedule.run sim (Schedule.round_robin ()) with
  | Schedule.Completed -> ()
  | _ -> Alcotest.fail "run did not complete");
  sim

let test_durable_iff_flushed () =
  (* without annotations the completed WRITE's cell reverts: the READ
     that follows the crash observes the initial value, so N(H) has a
     completed WRITE(1) strictly before a READ returning the old value *)
  let bare = write_crash_read ~annotate:false in
  Alcotest.(check bool) "unflushed completed write breaks DL" false
    (Linearize.Durable.ok (Workload.Check.durable bare));
  Alcotest.(check bool) "and therefore NRL" true
    (Workload.Check.nrl_violation bare <> None);
  (* with annotations the WRITE flushed before returning: nothing to lose *)
  let annotated = write_crash_read ~annotate:true in
  Alcotest.(check bool) "flushed write survives the crash" true
    (Linearize.Durable.ok (Workload.Check.durable annotated));
  Alcotest.(check bool) "NRL agrees" true (Workload.Check.nrl_violation annotated = None)

let test_durable_of_nrl () =
  let annotated = write_crash_read ~annotate:true in
  let nrl = Workload.Check.nrl annotated in
  (match Linearize.Durable.of_nrl nrl with
  | Some d ->
    Alcotest.(check bool) "of_nrl verdict matches a fresh check" true
      (Linearize.Durable.ok d = Linearize.Durable.ok (Workload.Check.durable annotated))
  | None -> Alcotest.fail "of_nrl unavailable though well-formedness passed");
  Alcotest.(check bool) "explain is one line" true
    (not (String.contains (Linearize.Durable.explain (Workload.Check.durable annotated)) '\n'))

(* {2 Instant-mode equivalence}

   The explicit machinery must not disturb the default model: the same
   seed produces the same history and verdict whether the flush
   annotations are spliced in or not, because Instant mode never emits
   them. *)

let test_instant_ignores_annotate_flag () =
  let run annotate =
    let sim = Sim.create ~seed:11 ~annotate ~nprocs:2 () in
    (Workload.Scenarios.register ~nprocs:2 ~ops:3 ()).Workload.Trial.build sim;
    (match Schedule.run sim (Schedule.round_robin ()) with
    | Schedule.Completed -> ()
    | _ -> Alcotest.fail "run did not complete");
    Fmt.str "%a" History.pp (Sim.history sim)
  in
  Alcotest.(check string) "byte-identical histories" (run true) (run false)

let suite =
  [
    Alcotest.test_case "annotated Algorithms 1-4 clean (explore)" `Quick
      test_annotated_algorithms_clean;
    Alcotest.test_case "unannotated Algorithm 1 violated (explore)" `Quick
      test_unannotated_register_violated;
    Alcotest.test_case "zoo missing-flush mutant violated (explore)" `Quick
      test_zoo_missing_flush_violated;
    Alcotest.test_case "zoo misplaced-fence mutant: strictness" `Quick
      test_tas_fence_early_strictness;
    Alcotest.test_case "durable iff completed writes flushed" `Quick test_durable_iff_flushed;
    Alcotest.test_case "durable verdict off an NRL result" `Quick test_durable_of_nrl;
    Alcotest.test_case "instant mode ignores annotate flag" `Quick
      test_instant_ignores_annotate_flag;
  ]
