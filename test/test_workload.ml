(* Tests for the workload generators: the paper's preconditions must hold
   by construction (distinct written values, never old = new, one T&S per
   process), and the trial machinery must be reproducible. *)

open Machine

let test_register_values_distinct () =
  let rng = Schedule.Prng.create 5 in
  let sim = Sim.create ~nprocs:3 () in
  let inst = Objects.Rw_obj.make sim ~name:"R" in
  let values =
    List.concat_map
      (fun pid ->
        List.filter_map
          (fun (_, op, spec) ->
            match op, spec with
            | "WRITE", Sim.Args a -> Some a.(0)
            | _ -> None)
          (Workload.Opgen.register_ops ~rng ~pid ~count:20 ~write_ratio:1.0 inst))
      [ 0; 1; 2 ]
  in
  Alcotest.(check int) "all written values distinct" (List.length values)
    (List.length (List.sort_uniq Nvm.Value.compare values))

let test_tagged_distinct_across_procs () =
  let a = Workload.Opgen.tagged 0 1 in
  let b = Workload.Opgen.tagged 1 1 in
  let c = Workload.Opgen.tagged 0 2 in
  Alcotest.(check bool) "pid distinguishes" false (Nvm.Value.equal a b);
  Alcotest.(check bool) "seq distinguishes" false (Nvm.Value.equal a c)

let test_cas_ops_never_old_eq_new () =
  (* the CAS generator computes old at invocation from the current cell;
     new is a fresh tagged value, so old = new would require the tag to
     already be installed — run a batch and confirm via the recorded
     arguments *)
  let scen = Workload.Scenarios.cas ~nprocs:3 ~ops:8 () in
  let sim, _ = Workload.Trial.run ~seed:3 ~crash_prob:0.05 scen in
  List.iter
    (fun s ->
      match s with
      | History.Step.Inv { opref = { History.Step.op = "CAS"; _ }; args; _ } ->
        Alcotest.(check bool) "old <> new" false (Nvm.Value.equal args.(0) args.(1))
      | _ -> ())
    (History.to_list (Machine.Sim.history sim))

let test_tas_once_per_proc () =
  let scen = Workload.Scenarios.tas ~nprocs:4 () in
  let sim, _ = Workload.Trial.run ~seed:1 ~crash_prob:0.0 scen in
  List.iter
    (fun p ->
      let invocations =
        List.length
          (List.filter
             (function
               | History.Step.Inv { pid; opref = { History.Step.op = "T&S"; _ }; _ } ->
                 pid = p
               | _ -> false)
             (History.to_list (Machine.Sim.history sim)))
      in
      Alcotest.(check int) (Printf.sprintf "p%d invokes T&S once" p) 1 invocations)
    [ 0; 1; 2; 3 ]

let test_batch_reproducible () =
  let scen = Workload.Scenarios.counter ~nprocs:2 ~ops:3 () in
  let s1 = Workload.Trial.batch ~crash_prob:0.1 ~trials:20 scen in
  let s2 = Workload.Trial.batch ~crash_prob:0.1 ~trials:20 scen in
  Alcotest.(check bool) "same summary" true (s1 = s2)

let test_batch_seed_sensitivity () =
  (* different base seeds must change the executions (crash counts) *)
  let scen = Workload.Scenarios.register ~nprocs:3 ~ops:6 () in
  let s1 = Workload.Trial.batch ~base_seed:1 ~crash_prob:0.1 ~trials:20 scen in
  let s2 = Workload.Trial.batch ~base_seed:1000 ~crash_prob:0.1 ~trials:20 scen in
  Alcotest.(check bool) "different crash totals" true
    (s1.Workload.Trial.total_crashes <> s2.Workload.Trial.total_crashes)

(* every otype whose instance records an initial value or a size in
   [init_value]: the spec's initial state must start from it *)
let test_spec_for_threads_init () =
  let sim = Sim.create ~nprocs:2 () in
  let responses inst op args =
    match Workload.Check.spec_for sim inst.Machine.Objdef.id with
    | Some spec ->
      let st = spec.Linearize.Spec.initial ~nprocs:2 in
      List.map fst (st.Linearize.Spec.apply ~pid:0 ~op ~args)
    | None -> Alcotest.failf "no spec for %s" inst.Machine.Objdef.otype
  in
  let check what expected got =
    Alcotest.(check (list string)) what
      (List.map Nvm.Value.to_string expected)
      (List.map Nvm.Value.to_string got)
  in
  let int n = Nvm.Value.Int n in
  check "register initial value threaded" [ int 42 ]
    (responses (Objects.Rw_obj.make ~init:(int 42) sim ~name:"R") "READ" [||]);
  check "cas initial value threaded" [ int 7 ]
    (responses (Objects.Scas_obj.make ~init:(int 7) sim ~name:"C") "READ" [||]);
  check "max-register initial value threaded" [ int 9 ]
    (responses (Objects.Max_register_obj.make ~init:9 sim ~name:"M") "READ" [||]);
  check "faa initial value threaded" [ int 5 ]
    (responses (Objects.Faa_obj.make ~init:5 sim ~name:"F") "READ" [||]);
  let h = Objects.Histogram_obj.make ~k:2 sim ~name:"H" in
  check "histogram size threaded: last bucket" [ int 0 ] (responses h "BUCKET" [| int 1 |]);
  check "histogram size threaded: no bucket past k" [] (responses h "BUCKET" [| int 2 |]);
  check "slot allocator size threaded" [ int 0; int 1; int 2 ]
    (responses (Objects.Elect_obj.make ~k:3 sim ~name:"E") "ELECT" [||])

let test_spec_for_unknown_otype () =
  let sim = Sim.create ~nprocs:1 () in
  let inst =
    Machine.Objdef.register (Sim.registry sim) ~otype:"mystery" ~name:"X" []
  in
  Alcotest.(check bool) "no spec for unknown type" true
    (Workload.Check.spec_for sim inst.Machine.Objdef.id = None)

(* property: generated register workloads keep per-process sequence
   numbers strictly increasing *)
let prop_register_seq_monotone =
  QCheck2.Test.make ~name:"register workload: per-process tags strictly increase" ~count:50
    (QCheck2.Gen.int_range 1 10_000) (fun seed ->
      let rng = Schedule.Prng.create seed in
      let sim = Sim.create ~nprocs:1 () in
      let inst = Objects.Rw_obj.make sim ~name:"R" in
      let ops = Workload.Opgen.register_ops ~rng ~pid:0 ~count:15 ~write_ratio:1.0 inst in
      let seqs =
        List.filter_map
          (fun (_, _, spec) ->
            match spec with
            | Sim.Args [| Nvm.Value.Pair (_, Nvm.Value.Int s) |] -> Some s
            | _ -> None)
          ops
      in
      let rec increasing = function
        | a :: (b :: _ as tl) -> a < b && increasing tl
        | _ -> true
      in
      increasing seqs)

(* {2 1000-seed generator invariants}

   The paper's algorithms assume their workloads respect three
   preconditions (Section 2 assumptions restated at each algorithm):
   written values are globally distinct, CAS never uses [old = new], and
   T&S is invoked at most once per process.  The generators must deliver
   them for {e every} seed, not just the ones unit tests happen to use. *)

let prop_register_values_globally_distinct =
  QCheck2.Test.make ~name:"register workload: values distinct across processes (1k seeds)"
    ~count:1000
    (QCheck2.Gen.int_range 1 1_000_000)
    (fun seed ->
      let rng = Schedule.Prng.create seed in
      let sim = Sim.create ~nprocs:4 () in
      let inst = Objects.Rw_obj.make sim ~name:"R" in
      let values =
        List.concat_map
          (fun pid ->
            List.filter_map
              (fun (_, op, spec) ->
                match op, spec with "WRITE", Sim.Args a -> Some a.(0) | _ -> None)
              (Workload.Opgen.register_ops ~rng ~pid ~count:8 ~write_ratio:0.7 inst))
          [ 0; 1; 2; 3 ]
      in
      List.length values = List.length (List.sort_uniq Nvm.Value.compare values))

let prop_cas_never_old_eq_new =
  (* the [old] argument is computed at invocation time, so the property
     must be checked on executed histories — crashes included *)
  QCheck2.Test.make ~name:"cas workload: old <> new on executed histories (1k seeds)"
    ~count:1000
    (QCheck2.Gen.int_range 1 1_000_000)
    (fun seed ->
      let scen = Workload.Scenarios.cas ~nprocs:2 ~ops:4 ~rng_seed:seed () in
      let sim, _ = Workload.Trial.run ~max_steps:2_000 ~seed ~crash_prob:0.05 scen in
      List.for_all
        (function
          | History.Step.Inv { opref = { History.Step.op = "CAS"; _ }; args; _ } ->
            not (Nvm.Value.equal args.(0) args.(1))
          | _ -> true)
        (History.to_list (Machine.Sim.history sim)))

let prop_tas_exactly_once_per_proc =
  QCheck2.Test.make ~name:"tas workload: exactly one T&S per process (1k seeds)"
    ~count:1000
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 2 5))
    (fun (seed, nprocs) ->
      let scen = Workload.Scenarios.tas ~nprocs () in
      let sim, _ = Workload.Trial.run ~seed ~crash_prob:0.1 ~max_crashes:4 scen in
      let h = History.to_list (Machine.Sim.history sim) in
      List.for_all
        (fun p ->
          1
          = List.length
              (List.filter
                 (function
                   | History.Step.Inv { pid; opref = { History.Step.op = "T&S"; _ }; _ } ->
                     pid = p
                   | _ -> false)
                 h))
        (List.init nprocs Fun.id))

let suite =
  [
    Alcotest.test_case "register workload: distinct values" `Quick test_register_values_distinct;
    Alcotest.test_case "tagged values distinct" `Quick test_tagged_distinct_across_procs;
    Alcotest.test_case "cas workload: old <> new" `Quick test_cas_ops_never_old_eq_new;
    Alcotest.test_case "tas workload: once per process" `Quick test_tas_once_per_proc;
    Alcotest.test_case "batch reproducible" `Quick test_batch_reproducible;
    Alcotest.test_case "batch seed sensitivity" `Quick test_batch_seed_sensitivity;
    Alcotest.test_case "spec_for threads initial values" `Quick test_spec_for_threads_init;
    Alcotest.test_case "spec_for unknown otype" `Quick test_spec_for_unknown_otype;
    QCheck_alcotest.to_alcotest prop_register_seq_monotone;
    QCheck_alcotest.to_alcotest prop_register_values_globally_distinct;
    QCheck_alcotest.to_alcotest prop_cas_never_old_eq_new;
    QCheck_alcotest.to_alcotest prop_tas_exactly_once_per_proc;
  ]
