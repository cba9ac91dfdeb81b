(* Test entry point: one alcotest run aggregating every suite. *)

let () =
  Alcotest.run "nrl"
    [
      ("nvm", Test_nvm.suite);
      ("machine", Test_machine.suite);
      ("history", Test_history.suite);
      ("linearize", Test_linearize.suite);
      ("objects", Test_objects.suite);
      ("naive", Test_naive.suite);
      ("elect", Test_elect.suite);
      ("faa", Test_faa.suite);
      ("histogram", Test_histogram.suite);
      ("stack", Test_stack.suite);
      ("workload", Test_workload.suite);
      ("bench-json", Test_bench.suite);
      ("queue-max", Test_queue_max.suite);
      ("system-crash", Test_system_crash.suite);
      ("persist", Test_persist.suite);
      ("explore", Test_explore.suite);
      ("store", Test_store.suite);
      ("impossibility", Test_impossibility.suite);
      ("runtime", Test_runtime.suite);
      ("runtime-ext", Test_runtime_extensions.suite);
      ("conformance", Test_conformance.suite);
      ("pstack", Test_pstack.suite);
      ("sync", Test_sync.suite);
      ("native-parallel", Test_native_parallel.suite);
      ("bench-native-json", Test_bench.native_suite);
      ("obs", Test_obs.suite);
      ("resilience", Test_resilience.suite);
      ("service", Test_service.suite);
      ("service-json", Test_bench.service_suite);
      ("prng", Test_prng.suite);
      ("fuzz", Test_fuzz.suite);
      ("cli", Test_cli.suite);
      ("registration", Test_registration.suite);
      ("scripts", Test_scripts.suite);
      ("schedules", Test_schedules.suite);
      ("wellformed", Test_wellformed.suite);
    ]
