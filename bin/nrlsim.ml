(* nrlsim: command-line driver for the NRL machine.

   Subcommands:
     run      - randomized crash-torture batches over a scenario
     check    - one seeded run with the full history and NRL verdict
     explore  - bounded exhaustive schedule exploration of a small instance
     fuzz     - coverage-guided scenario fuzzing with shrinking and the bug zoo
     theorem  - the Theorem 4 analysis (valency, critical configs, refutation)
     list         - available scenarios
     bench-native - the native-runtime latency/allocation/throughput suite
                    (BENCH_native.json, schema nrl-native/1) *)

open Cmdliner

let scenario_names =
  [
    "register"; "cas"; "tas"; "counter"; "elect"; "faa"; "stack"; "histogram"; "queue"; "max-register";
    "mutex"; "mutex-pairs"; "consensus"; "pcall";
    "naive-rw-optimistic"; "naive-rw-reexec";
    "naive-cas-optimistic"; "naive-cas-reexec"; "naive-tas";
  ]

(* Zoo mutants double as scenarios (their workload shape comes from the
   base algorithm), so explore/run/check can target e.g.
   rw-write-skip-flush-r directly.  The fixed descriptor below only
   supplies the build-time parameters; scheduling is the subcommand's. *)
let zoo_scenario kind ~nprocs ~ops =
  Fuzz.Gen.scenario
    {
      Fuzz.Gen.kind;
      nprocs;
      ops;
      mix_pm = 600;
      scen_seed = 1;
      sched_seed = 1;
      crash_pm = 0;
      recover_pm = 500;
      system_pm = 0;
      max_crashes = 0;
      max_steps = 1;
      junk = "scramble";
    }

let scenario_of_name name ~nprocs ~ops =
  match name with
  | "register" -> Workload.Scenarios.register ~nprocs ~ops ()
  | "cas" -> Workload.Scenarios.cas ~nprocs ~ops ()
  | "tas" -> Workload.Scenarios.tas ~nprocs ()
  | "counter" -> Workload.Scenarios.counter ~nprocs ~ops ()
  | "elect" -> Workload.Scenarios.elect ~nprocs ()
  | "faa" -> Workload.Scenarios.faa ~nprocs ~ops ()
  | "stack" -> Workload.Scenarios.stack ~nprocs ~ops ()
  | "histogram" -> Workload.Scenarios.histogram ~nprocs ~ops ()
  | "queue" -> Workload.Scenarios.queue ~nprocs ~ops ()
  | "max-register" -> Workload.Scenarios.max_register ~nprocs ~ops ()
  | "mutex" -> Workload.Scenarios.mutex ~nprocs ~ops ()
  | "mutex-pairs" -> Workload.Scenarios.mutex_pairs ~nprocs ()
  | "consensus" -> Workload.Scenarios.consensus ~nprocs ~ops ()
  | "pcall" -> Workload.Scenarios.pcall ~nprocs ~ops ()
  | "naive-rw-optimistic" -> Workload.Scenarios.naive_rw ~strategy:`Optimistic ~nprocs ~ops ()
  | "naive-rw-reexec" -> Workload.Scenarios.naive_rw ~strategy:`Reexecute ~nprocs ~ops ()
  | "naive-cas-optimistic" -> Workload.Scenarios.naive_cas ~strategy:`Optimistic ~nprocs ~ops ()
  | "naive-cas-reexec" -> Workload.Scenarios.naive_cas ~strategy:`Reexecute ~nprocs ~ops ()
  | "naive-tas" -> Workload.Scenarios.naive_tas ~nprocs ()
  | other ->
    if Objects.Zoo.find other <> None then zoo_scenario other ~nprocs ~ops
    else invalid_arg (Printf.sprintf "unknown scenario %S (try: nrlsim list)" other)

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Trace every machine decision (very chatty).")

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  if verbose then Logs.Src.set_level Machine.Schedule.src (Some Logs.Debug)

(* common args *)
let scenario_arg =
  let doc = "Scenario name (see $(b,nrlsim list))." in
  Arg.(value & pos 0 string "counter" & info [] ~docv:"SCENARIO" ~doc)

let nprocs_arg =
  Arg.(value & opt int 3 & info [ "n"; "nprocs" ] ~docv:"N" ~doc:"Number of processes.")

let ops_arg =
  Arg.(value & opt int 5 & info [ "ops" ] ~docv:"K" ~doc:"Operations per process.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let crash_prob_arg =
  Arg.(value & opt float 0.08 & info [ "crash-prob" ] ~docv:"P" ~doc:"Crash probability per step.")

let max_crashes_arg =
  Arg.(value & opt int 6 & info [ "max-crashes" ] ~docv:"C" ~doc:"Crash budget per run.")

let system_crash_arg =
  Arg.(
    value & opt float 0.0
    & info [ "system-crash-prob" ] ~docv:"P"
        ~doc:"Probability of a full-system crash (all processes at once) per step.")

let persist_model_arg =
  Arg.(
    value
    & opt (Arg.enum [ ("instant", Nvm.Memory.Instant); ("explicit", Nvm.Memory.Explicit) ])
        Nvm.Memory.Instant
    & info [ "persist-model" ] ~docv:"MODEL"
        ~doc:
          "Persistency model of the simulated NVRAM.  $(b,instant) is the paper's model: \
           every write is durable the moment it completes.  $(b,explicit) gives every \
           cell a volatile and a persisted value: writes stay pending until a flush or \
           fence, and a full-system crash loses each pending write nondeterministically. \
           See docs/memory-model.md.")

(* observability args, shared by run and explore *)
let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print an end-of-run metrics breakdown (counters, timers, derived rates) to \
           stdout.  Counter values are engine-invariant: identical for every $(b,--jobs) \
           setting.  See docs/observability.md.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write an NDJSON trace (schema nrl-trace/1: config events, phase spans, final \
           metric values) to $(docv).  The schema is documented in docs/observability.md.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Print a progress line (nodes visited, rate, task completion, crude ETA) to \
           stderr roughly once per second.")

(* [--stats]/[--trace] both want a registry; build one iff either asked *)
let obs_of ~stats ~trace = if stats || trace <> None then Some (Obs.Metrics.create ()) else None

(* end-of-run: dump metrics into the trace, close it, print the summary *)
let obs_finish ?(header = "") ~stats ~tracer obs =
  (match obs, tracer with
  | Some reg, Some tr -> Obs.Trace.metrics tr reg
  | _ -> ());
  Option.iter Obs.Trace.close tracer;
  match obs with
  | Some reg when stats ->
    if header <> "" then Format.printf "%s@." header;
    Format.printf "%a" Obs.Report.pp_summary reg
  | _ -> ()

(* run *)
let run_cmd =
  let trials_arg =
    Arg.(value & opt int 200 & info [ "trials" ] ~docv:"T" ~doc:"Number of trials.")
  in
  let junk_arg =
    let choices = List.map (fun s -> (s, s)) Machine.Junk.strategy_names in
    Arg.(
      value
      & opt (Arg.enum choices) "scramble"
      & info [ "junk" ] ~docv:"STRATEGY"
          ~doc:"Adversarial junk strategy for crash-scrambled locals (see docs/resilience.md).")
  in
  let run name nprocs ops trials seed crash_prob max_crashes system_crash_prob persist
      stats trace junk =
    let scen = scenario_of_name name ~nprocs ~ops in
    let obs = obs_of ~stats ~trace in
    let tracer = Option.map (fun path -> Obs.Trace.create ~path) trace in
    Option.iter
      (fun tr ->
        Obs.Trace.event tr ~name:"run.config"
          [
            ("scenario", Obs.Trace.Str name);
            ("nprocs", Obs.Trace.Int nprocs);
            ("ops", Obs.Trace.Int ops);
            ("trials", Obs.Trace.Int trials);
            ("seed", Obs.Trace.Int seed);
            ("crash_prob", Obs.Trace.Float crash_prob);
            ("max_crashes", Obs.Trace.Int max_crashes);
          ])
      tracer;
    let t0 = Obs.Clock.now_ns () in
    let s =
      Workload.Trial.batch ~base_seed:seed ~crash_prob ~max_crashes
        ~system_crash_prob ~persist ~junk ?obs ~trials scen
    in
    Option.iter
      (fun tr ->
        Obs.Trace.span tr ~name:"run.batch" ~start_ns:t0
          ~dur_ns:(Obs.Clock.now_ns () - t0)
          [
            ("trials", Obs.Trace.Int s.Workload.Trial.trials);
            ("passed", Obs.Trace.Int s.Workload.Trial.passed);
            ("failed", Obs.Trace.Int s.Workload.Trial.failed);
          ])
      tracer;
    Format.printf "%s: %a@." scen.Workload.Trial.scen_name Workload.Trial.pp_summary s;
    obs_finish ~stats ~tracer obs;
    if s.Workload.Trial.failed > 0 then exit 2
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Randomized crash-torture batch with NRL checking")
    Term.(
      const run $ scenario_arg $ nprocs_arg $ ops_arg $ trials_arg $ seed_arg
      $ crash_prob_arg $ max_crashes_arg $ system_crash_arg $ persist_model_arg
      $ stats_arg $ trace_arg $ junk_arg)

(* check *)
let check_cmd =
  let dump_memory_arg =
    Arg.(value & flag & info [ "dump-memory" ] ~doc:"Print the final NVRAM contents.")
  in
  let check name nprocs ops seed crash_prob max_crashes persist verbose dump_memory =
    setup_logs verbose;
    let scen = scenario_of_name name ~nprocs ~ops in
    let sim, r = Workload.Trial.run ~seed ~crash_prob ~max_crashes ~persist scen in
    Format.printf "history:@.%a@." History.pp (Machine.Sim.history sim);
    for p = 0 to nprocs - 1 do
      Format.printf "p%d results: %a@." p
        Fmt.(list ~sep:comma (pair ~sep:(any "=") string Nvm.Value.pp))
        (Machine.Sim.results sim p)
    done;
    Format.printf "steps: %d, crashes: %d@." r.Workload.Trial.steps r.Workload.Trial.crashes;
    if dump_memory then
      Format.printf "NVRAM:@.%a@." Nvm.Memory.pp (Machine.Sim.mem sim);
    Format.printf "NRL: %a@." Linearize.Nrl.pp (Workload.Check.nrl sim);
    Format.printf "durable: %a@." Linearize.Durable.pp (Workload.Check.durable sim);
    if not r.Workload.Trial.nrl_ok then exit 2
  in
  Cmd.v
    (Cmd.info "check" ~doc:"One seeded run with the full history and NRL verdict")
    Term.(
      const check $ scenario_arg $ nprocs_arg $ ops_arg $ seed_arg $ crash_prob_arg
      $ max_crashes_arg $ persist_model_arg $ verbose_arg $ dump_memory_arg)

(* explore *)
let explore_cmd =
  let steps_arg =
    Arg.(value & opt int 100 & info [ "max-steps" ] ~docv:"S" ~doc:"Depth bound.")
  in
  let crashes_arg =
    Arg.(value & opt int 1 & info [ "crashes" ] ~docv:"C" ~doc:"Crash budget (process 0 crashes).")
  in
  let jobs_arg =
    (* an int or the literal "auto" (resolved against the host's domain
       count at startup, so "auto" on a 1-core box skips the parallel
       frontier split entirely) *)
    let jobs_conv =
      let parse = function
        | "auto" -> Ok `Auto
        | s -> (
          match int_of_string_opt s with
          | Some j when j >= 1 -> Ok (`Jobs j)
          | _ -> Error (`Msg (Printf.sprintf "expected a positive integer or 'auto', got %S" s)))
      and print ppf = function
        | `Auto -> Format.pp_print_string ppf "auto"
        | `Jobs j -> Format.pp_print_int ppf j
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt jobs_conv (`Jobs 1)
      & info [ "j"; "jobs" ] ~docv:"J"
          ~doc:
            "Explore on $(docv) OCaml domains (subtrees of the schedule tree run \
             concurrently; statistics are identical for every value).  $(b,auto) uses \
             the recommended domain count of this machine.")
  in
  let check_mode_arg =
    let mode_conv =
      Arg.enum [ ("terminal", `Terminal); ("incremental", `Incremental) ]
    in
    Arg.(
      value
      & opt mode_conv `Terminal
      & info [ "check-mode" ] ~docv:"MODE"
          ~doc:
            "$(b,terminal) re-checks the NRL condition on every complete execution from \
             scratch; $(b,incremental) threads checker state down the search so work on \
             shared schedule prefixes is done once.  Verdicts are identical.")
  in
  let dedup_arg =
    Arg.(
      value & flag
      & info [ "dedup" ]
          ~doc:
            "Prune branches that reconverge on an already-visited machine configuration \
             (fingerprint of memory + per-process control state).  Violations found are \
             real; a clean sweep certifies one representative prefix per configuration.")
  in
  let no_symmetry_arg =
    Arg.(
      value & flag
      & info [ "no-symmetry" ]
          ~doc:
            "Disable process-id symmetry reduction.  With $(b,--dedup), fingerprints of \
             symmetric scenarios are normally canonicalised under the detected \
             process-permutation group, deduplicating whole orbits of states (the \
             soundness conditions are checked, never assumed; see docs/model.md).  This \
             flag forces the unquotiented search — verdicts are identical, node/dedup \
             counts differ.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:
            "Wall-clock budget.  When it runs out the search stops with a structured \
             partial verdict (exit code 3) instead of running to completion.")
  in
  let max_nodes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:"Node budget: stop (exit code 3) after processing $(docv) schedule-tree nodes.")
  in
  let max_visited_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-visited" ] ~docv:"N"
          ~doc:
            "Cap the $(b,--dedup) visited store at $(docv) fingerprints.  Exceeding the \
             cap is a degradation, not an abort: the store is dropped and the sweep \
             continues without pruning.")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Periodically save resumable progress to $(docv) (schema nrl-checkpoint/3, \
             atomic write-then-rename; see docs/resilience.md).  On SIGINT/SIGTERM the \
             run checkpoints and exits 3 instead of losing its work.")
  in
  let checkpoint_interval_arg =
    Arg.(
      value & opt float 5.0
      & info [ "checkpoint-interval" ] ~docv:"SECS"
          ~doc:"Minimum seconds between periodic checkpoint saves.")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from a checkpoint written by $(b,--checkpoint).  The command line \
             must rebuild the same scenario (same scenario, sizes, bounds, junk \
             strategy); the stamp recorded in the file is checked.  Saving continues to \
             the same file unless $(b,--checkpoint) overrides it.")
  in
  let junk_arg =
    let choices = List.map (fun s -> (s, s)) (Machine.Junk.strategy_names @ [ "all" ]) in
    Arg.(
      value
      & opt (Arg.enum choices) "scramble"
      & info [ "junk" ] ~docv:"STRATEGY"
          ~doc:
            (Printf.sprintf
               "Adversarial junk strategy for crash-scrambled locals: %s, or $(b,all) to \
                run a campaign sweeping every strategy and comparing verdicts."
               (String.concat ", " Machine.Junk.strategy_names)))
  in
  let no_flush_arg =
    Arg.(
      value & flag
      & info [ "no-flush" ]
          ~doc:
            "Build the algorithms without their flush/fence annotations (only meaningful \
             with $(b,--persist-model explicit)): demonstrates that the paper's \
             algorithms, written for instant persistence, violate durable \
             linearizability when writes must be flushed explicitly.  See \
             docs/memory-model.md.")
  in
  let explore name nprocs ops max_steps max_crashes jobs check_mode dedup no_symmetry
      persist no_flush stats_flag trace progress deadline max_nodes max_visited checkpoint
      checkpoint_interval resume junk =
    let jobs_requested = jobs in
    let jobs = match jobs with `Auto -> Machine.Explore.auto_jobs () | `Jobs j -> j in
    let symmetry = not no_symmetry in
    let check_mode_name =
      match check_mode with `Terminal -> "terminal" | `Incremental -> "incremental"
    in
    let mk_check_mode () =
      match check_mode with
      | `Terminal -> `Terminal
      | `Incremental -> `Incremental (Workload.Check.nrl_incremental ())
    in
    let build junk_strategy =
      let sim = Machine.Sim.create ~persist ~annotate:(not no_flush) ~nprocs () in
      (scenario_of_name name ~nprocs ~ops).Workload.Trial.build sim;
      if junk_strategy <> "scramble" then Machine.Sim.apply_junk_strategy sim junk_strategy;
      sim
    in
    let cfg =
      { Machine.Explore.default_config with max_steps; max_crashes; crash_procs = [ 0 ] }
    in
    (* what --stats reports about the engine configuration: the resolved
       domain fan-out (honest about `auto`) and whether the symmetry
       quotient is active for this scenario *)
    let sym_degree =
      if dedup && symmetry then
        let probe = build (if junk = "all" then "scramble" else junk) in
        Option.map Machine.Fingerprint.Symmetry.degree
          (Machine.Explore.symmetry_group cfg probe)
      else None
    in
    let stats_header =
      if not stats_flag then ""
      else
        Printf.sprintf "engine: jobs=%d%s (domains available: %d); symmetry=%s" jobs
          (match jobs_requested with `Auto -> " (auto)" | `Jobs _ -> "")
          (Machine.Explore.auto_jobs ())
          (match sym_degree with
          | Some d -> Printf.sprintf "on (quotient degree %d)" d
          | None -> if dedup && symmetry then "inactive" else "off")
    in
    let obs = obs_of ~stats:stats_flag ~trace in
    let tracer = Option.map (fun path -> Obs.Trace.create ~path) trace in
    Option.iter
      (fun tr ->
        Obs.Trace.event tr ~name:"explore.config"
          [
            ("scenario", Obs.Trace.Str name);
            ("nprocs", Obs.Trace.Int nprocs);
            ("ops", Obs.Trace.Int ops);
            ("max_steps", Obs.Trace.Int max_steps);
            ("max_crashes", Obs.Trace.Int max_crashes);
            ("jobs", Obs.Trace.Int jobs);
            ("dedup", Obs.Trace.Bool dedup);
            ("symmetry", Obs.Trace.Bool symmetry);
            ("check_mode", Obs.Trace.Str check_mode_name);
            ("junk", Obs.Trace.Str junk);
            ( "persist_model",
              Obs.Trace.Str
                (match persist with
                | Nvm.Memory.Instant -> "instant"
                | Nvm.Memory.Explicit -> "explicit") );
            ("annotate", Obs.Trace.Bool (not no_flush));
          ])
      tracer;
    let prog =
      if progress then Some (Obs.Progress.create ~label:"explore" ()) else None
    in
    let budget =
      { Machine.Explore.deadline_s = deadline; max_nodes; max_visited }
    in
    let resilient =
      deadline <> None || max_nodes <> None || max_visited <> None || checkpoint <> None
      || resume <> None
    in
    let t0 = Obs.Clock.now_s () in
    let print_clean stats =
      Format.printf
        "no violation: %d complete executions checked (%d truncated, %d nodes, %d deduped, \
         %d jobs, %.1fs)@."
        stats.Machine.Explore.terminals stats.Machine.Explore.truncated
        stats.Machine.Explore.nodes stats.Machine.Explore.dup jobs
        (Obs.Clock.now_s () -. t0)
    in
    if junk = "all" then begin
      (* campaign mode: one budgeted sweep per strategy, verdicts compared *)
      if checkpoint <> None || resume <> None then begin
        Format.eprintf
          "nrlsim: --junk all is a campaign over independent runs; it cannot be \
           checkpointed or resumed.  Pick one strategy.@.";
        exit 124
      end;
      let verdicts =
        List.map
          (fun strategy ->
            let outcome, stats =
              Machine.Explore.sweep ~cfg ~jobs ~dedup ~symmetry ?obs ?progress:prog
                ?trace:tracer ~budget ~check_mode:(mk_check_mode ())
                ~check:Workload.Check.nrl_violation (build strategy)
            in
            let verdict =
              match outcome with
              | Machine.Explore.Clean -> "clean"
              | Machine.Explore.Violation (_, reason) -> "VIOLATION: " ^ reason
              | Machine.Explore.Exhausted e ->
                "exhausted (" ^ Machine.Explore.exhaust_reason_name e.Machine.Explore.ex_reason
                ^ ")"
            in
            Format.printf "junk=%-8s %s (%d terminals, %d nodes)@." strategy verdict
              stats.Machine.Explore.terminals stats.Machine.Explore.nodes;
            (strategy, verdict, outcome))
          Machine.Junk.strategy_names
      in
      obs_finish ~header:stats_header ~stats:stats_flag ~tracer obs;
      let heads = List.map (fun (_, v, _) -> v) verdicts in
      (match heads with
      | v0 :: rest when List.exists (fun v -> v <> v0) rest ->
        Format.printf
          "WARNING: verdict differs across junk strategies — the algorithm's recovery \
           depends on the junk the crash produced.@."
      | _ -> ());
      let any p = List.exists (fun (_, _, o) -> p o) verdicts in
      if any (function Machine.Explore.Violation _ -> true | _ -> false) then exit 2
      else if any (function Machine.Explore.Exhausted _ -> true | _ -> false) then exit 3
    end
    else if resilient then begin
      (* budgeted / checkpointed / resumable path: Explore.sweep with a
         graceful-kill hook on SIGINT and SIGTERM *)
      let stamp =
        [
          ("scenario", name);
          ("nprocs", string_of_int nprocs);
          ("ops", string_of_int ops);
          ("max_steps", string_of_int max_steps);
          ("max_crashes", string_of_int max_crashes);
          ("dedup", string_of_bool dedup);
          ("symmetry", string_of_bool symmetry);
          ("check_mode", check_mode_name);
          ("junk", junk);
        ]
        (* stamped only under the explicit model so pre-existing instant
           checkpoints keep resuming *)
        @ (match persist with
          | Nvm.Memory.Instant -> []
          | Nvm.Memory.Explicit ->
            [ ("persist", "explicit"); ("annotate", string_of_bool (not no_flush)) ])
      in
      let ck_resume =
        match resume with
        | None -> None
        | Some path -> (
          match Machine.Checkpoint.load path with
          | Error msg ->
            Format.eprintf "nrlsim: cannot resume from %s: %s@." path msg;
            exit 124
          | Ok ck -> (
            match ck.Machine.Checkpoint.result with
            | Some (verdict, detail) ->
              (* the previous run finished; report its verdict, do not re-run *)
              Format.printf "checkpoint %s is final: %s%s@." path verdict
                (if detail = "" then "" else " (" ^ detail ^ ")");
              exit (if verdict = "violation" then 2 else 0)
            | None ->
              if
                List.sort compare ck.Machine.Checkpoint.scenario
                <> List.sort compare stamp
              then begin
                Format.eprintf
                  "nrlsim: checkpoint %s was taken from a different scenario@.  saved:   \
                   %s@.  current: %s@."
                  path
                  (String.concat ", "
                     (List.map (fun (k, v) -> k ^ "=" ^ v) ck.Machine.Checkpoint.scenario))
                  (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) stamp));
                exit 124
              end;
              Some ck))
      in
      let ck_path =
        match checkpoint, resume with
        | Some p, _ -> Some p
        | None, Some p -> Some p (* keep saving where we resumed from *)
        | None, None -> None
      in
      let ck_spec =
        Option.map
          (fun cp_path ->
            {
              Machine.Explore.cp_path;
              cp_interval_s = checkpoint_interval;
              cp_scenario = stamp;
            })
          ck_path
      in
      let stop = Atomic.make false in
      let graceful _ = Atomic.set stop true in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle graceful);
      Sys.set_signal Sys.sigint (Sys.Signal_handle graceful);
      let outcome, stats =
        Machine.Explore.sweep ~cfg ~jobs ~dedup ~symmetry ?obs ?progress:prog ?trace:tracer
          ~budget
          ~should_stop:(fun () -> Atomic.get stop)
          ?checkpoint:ck_spec ?resume:ck_resume ~check_mode:(mk_check_mode ())
          ~check:Workload.Check.nrl_violation (build junk)
      in
      match outcome with
      | Machine.Explore.Violation (sim, reason) ->
        obs_finish ~header:stats_header ~stats:stats_flag ~tracer obs;
        Format.printf "VIOLATION: %s@.history:@.%a@." reason History.pp
          (Machine.Sim.history sim);
        exit 2
      | Machine.Explore.Clean ->
        print_clean stats;
        obs_finish ~header:stats_header ~stats:stats_flag ~tracer obs
      | Machine.Explore.Exhausted e ->
        Format.printf
          "exhausted (%s): %d complete executions checked so far (%d truncated, %d nodes, \
           %d deduped, %d tasks pending, %.1fs)%s@."
          (Machine.Explore.exhaust_reason_name e.Machine.Explore.ex_reason)
          stats.Machine.Explore.terminals stats.Machine.Explore.truncated
          stats.Machine.Explore.nodes stats.Machine.Explore.dup
          e.Machine.Explore.ex_frontier
          (Obs.Clock.now_s () -. t0)
          (match e.Machine.Explore.ex_degraded with
          | [] -> ""
          | ds -> "; degraded: " ^ String.concat ", " ds);
        (match ck_path with
        | Some p when Sys.file_exists p ->
          Format.printf "resume with: --resume %s@." p
        | _ -> ());
        obs_finish ~header:stats_header ~stats:stats_flag ~tracer obs;
        exit 3
    end
    else begin
      (* historical unbounded path, untouched semantics *)
      let viol, stats =
        Machine.Explore.find_violation ~cfg ~jobs ~dedup ~symmetry ?obs ?progress:prog
          ?trace:tracer ~check_mode:(mk_check_mode ())
          ~check:Workload.Check.nrl_violation (build junk)
      in
      match viol with
      | Some (sim, reason) ->
        obs_finish ~header:stats_header ~stats:stats_flag ~tracer obs;
        Format.printf "VIOLATION: %s@.history:@.%a@." reason History.pp
          (Machine.Sim.history sim);
        exit 2
      | None ->
        print_clean stats;
        obs_finish ~header:stats_header ~stats:stats_flag ~tracer obs
    end
  in
  Cmd.v
    (Cmd.info "explore" ~doc:"Bounded exhaustive schedule exploration (use small instances)")
    Term.(
      const explore $ scenario_arg $ nprocs_arg $ ops_arg $ steps_arg $ crashes_arg
      $ jobs_arg $ check_mode_arg $ dedup_arg $ no_symmetry_arg
      $ persist_model_arg $ no_flush_arg $ stats_arg $ trace_arg
      $ progress_arg $ deadline_arg $ max_nodes_arg $ max_visited_arg $ checkpoint_arg
      $ checkpoint_interval_arg $ resume_arg $ junk_arg)

(* fuzz *)
let fuzz_cmd =
  let kinds_arg =
    Arg.(
      value
      & opt (list string) Fuzz.Gen.base_kinds
      & info [ "kinds" ] ~docv:"KINDS"
          ~doc:
            "Comma-separated scenario kinds to fuzz: the base algorithms (register, cas, \
             tas, counter, mutex, consensus, pcall) and/or zoo mutant names (see \
             $(b,--zoo)).")
  in
  let seeds_arg =
    Arg.(
      value & opt int 200
      & info [ "seeds" ] ~docv:"N" ~doc:"Seed indices to run (the campaign's size).")
  in
  let budget_arg =
    (* a duration: plain seconds, or with an s/m/h suffix ("120s", "2m") *)
    let budget_conv =
      let parse s =
        let num, scale =
          match String.length s with
          | 0 -> ("", 0.0)
          | n -> (
            match s.[n - 1] with
            | 's' -> (String.sub s 0 (n - 1), 1.0)
            | 'm' -> (String.sub s 0 (n - 1), 60.0)
            | 'h' -> (String.sub s 0 (n - 1), 3600.0)
            | _ -> (s, 1.0))
        in
        match float_of_string_opt num with
        | Some f when f > 0.0 && scale > 0.0 -> Ok (f *. scale)
        | _ -> Error (`Msg (Printf.sprintf "expected a duration like 30, 120s or 2m, got %S" s))
      and print ppf secs = Format.fprintf ppf "%gs" secs in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt (some budget_conv) None
      & info [ "budget" ] ~docv:"DURATION"
          ~doc:
            "Wall-clock budget (e.g. $(b,120s), $(b,2m)).  When it runs out the campaign \
             saves a resumable corpus and exits 3.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"FILE"
          ~doc:
            "Persist the campaign to $(docv) (NDJSON, schema nrl-corpus/2, atomic \
             write-then-rename; see docs/fuzzing.md): coverage-increasing seeds, \
             violations with shrunk reproducers, and resumable progress.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Continue from the corpus in $(b,--corpus) if it exists (its stamp must match \
             this campaign's base seed and kinds).  A finished campaign extends if \
             $(b,--seeds) is larger than what it already ran.")
  in
  let shrink_arg =
    Arg.(
      value
      & opt bool true
      & info [ "shrink" ] ~docv:"BOOL"
          ~doc:
            "Minimise every violating scenario by greedy delta-debugging (drop processes, \
             shorten scripts, remove crash points, shorten schedules) before reporting it.")
  in
  let zoo_arg =
    Arg.(
      value & flag
      & info [ "zoo" ]
          ~doc:
            "Measure detection power instead of hunting: fuzz each mutation-zoo variant \
             of Algorithms 1-4 until it is caught or the per-mutant seed budget runs \
             out.  Exits 0 only when every mutant is detected.")
  in
  let zoo_budget_arg =
    Arg.(
      value
      & opt int Fuzz.Campaign.default_zoo_budget
      & info [ "zoo-budget" ] ~docv:"N" ~doc:"Seed budget per zoo mutant.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"DESC"
          ~doc:
            "Re-run one scenario descriptor (the kind=...,n=...,seed=... form printed for \
             every reproducer) and report its verdict.  Exits 2 if it violates.")
  in
  let fuzz kinds seeds base_seed budget corpus resume shrink zoo zoo_budget replay
      stats_flag trace progress =
    let obs = obs_of ~stats:stats_flag ~trace in
    let tracer = Option.map (fun path -> Obs.Trace.create ~path) trace in
    let finish () = obs_finish ~stats:stats_flag ~tracer obs in
    let bad fmt =
      Format.kasprintf
        (fun m ->
          Format.eprintf "nrlsim: %s@." m;
          Option.iter Obs.Trace.close tracer;
          exit 124)
        fmt
    in
    let stop = Atomic.make false in
    let graceful _ = Atomic.set stop true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle graceful);
    Sys.set_signal Sys.sigint (Sys.Signal_handle graceful);
    let deadline = Option.map (fun b -> Obs.Clock.now_s () +. b) budget in
    let should_stop () =
      Atomic.get stop
      || match deadline with Some d -> Obs.Clock.now_s () > d | None -> false
    in
    Option.iter
      (fun tr ->
        Obs.Trace.event tr ~name:"fuzz.config"
          [
            ("kinds", Obs.Trace.Str (String.concat "," kinds));
            ("seeds", Obs.Trace.Int seeds);
            ("base_seed", Obs.Trace.Int base_seed);
            ("zoo", Obs.Trace.Bool zoo);
            ("shrink", Obs.Trace.Bool shrink);
          ])
      tracer;
    match replay with
    | Some desc_s -> (
      match Fuzz.Gen.of_string desc_s with
      | Error m -> bad "%s" m
      | Ok d -> (
        let v = Fuzz.Gen.run ?obs d in
        Format.printf "outcome: %s, %d steps@."
          (match v.Fuzz.Gen.v_outcome with
          | Machine.Schedule.Completed -> "completed"
          | Machine.Schedule.Halted -> "halted"
          | Machine.Schedule.Out_of_steps -> "out of steps")
          v.Fuzz.Gen.v_steps;
        match v.Fuzz.Gen.v_violation with
        | Some reason ->
          Format.printf "VIOLATION: %s@." reason;
          finish ();
          exit 2
        | None ->
          Format.printf "no violation@.";
          finish ()))
    | None ->
      let invalid = List.filter (fun k -> not (List.mem k Fuzz.Gen.all_kinds)) kinds in
      if invalid <> [] then
        bad "unknown kind(s): %s (known: %s)" (String.concat ", " invalid)
          (String.concat ", " Fuzz.Gen.all_kinds);
      if zoo then begin
        let dets =
          Fuzz.Campaign.zoo ?obs ?trace:tracer ~should_stop ~shrink
            ~budget_seeds:zoo_budget ~base_seed ()
        in
        List.iter (fun d -> Format.printf "%a@." Fuzz.Campaign.pp_detection d) dets;
        let missed =
          List.filter (fun d -> d.Fuzz.Campaign.z_found = None) dets |> List.length
        in
        Format.printf "%d/%d mutants detected@." (List.length dets - missed)
          (List.length dets);
        finish ();
        if should_stop () && missed > 0 then exit 3 else if missed > 0 then exit 2
      end
      else begin
        let prog = if progress then Some (Obs.Progress.create ~label:"fuzz" ()) else None in
        let cfg =
          {
            Fuzz.Campaign.base_seed;
            seeds;
            kinds;
            shrink;
            corpus_path = corpus;
            resume;
          }
        in
        match Fuzz.Campaign.run ?obs ?trace:tracer ?progress:prog ~should_stop cfg with
        | Error m -> bad "%s" m
        | Ok r ->
          let s = r.Fuzz.Campaign.r_stats in
          Format.printf
            "%s: %d runs, %d new fingerprints, %d corpus entries, %d violations%s@."
            (if r.Fuzz.Campaign.r_finished then "finished" else "stopped")
            s.Fuzz.Corpus.runs s.Fuzz.Corpus.new_coverage s.Fuzz.Corpus.corpus_entries
            s.Fuzz.Corpus.violations
            (if s.Fuzz.Corpus.shrink_steps > 0 then
               Printf.sprintf " (%d shrink steps)" s.Fuzz.Corpus.shrink_steps
             else "");
          List.iter
            (fun x ->
              Format.printf "violation at seed %d: %s@.  %s@." x.Fuzz.Corpus.x_index
                x.Fuzz.Corpus.x_reason x.Fuzz.Corpus.x_desc;
              Option.iter
                (fun shrunk ->
                  Format.printf "  shrunk: %s@.  replay with: nrlsim fuzz --replay '%s'@."
                    shrunk shrunk)
                x.Fuzz.Corpus.x_shrunk)
            r.Fuzz.Campaign.r_violations;
          (if (not r.Fuzz.Campaign.r_finished) && corpus <> None then
             match corpus with
             | Some p -> Format.printf "resume with: --corpus %s --resume@." p
             | None -> ());
          finish ();
          if r.Fuzz.Campaign.r_violations <> [] then exit 2
          else if not r.Fuzz.Campaign.r_finished then exit 3
      end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Coverage-guided scenario fuzzing with counterexample shrinking")
    Term.(
      const fuzz $ kinds_arg $ seeds_arg $ seed_arg $ budget_arg $ corpus_arg $ resume_arg
      $ shrink_arg $ zoo_arg $ zoo_budget_arg $ replay_arg $ stats_arg $ trace_arg
      $ progress_arg)

(* theorem *)
let theorem_cmd =
  let run () =
    Format.printf "%a@." Impossibility.Theorem.pp_report
      (Impossibility.Theorem.analyze_paper_algorithm ());
    List.iter
      (fun c ->
        Format.printf "%a@." Impossibility.Theorem.pp_report
          (Impossibility.Theorem.analyze_candidate c))
      Impossibility.Candidates.all;
    (* recoverable-consensus bounds: the CAS-based decide keeps its
       Herlihy power through crashes; read/write candidates are refuted *)
    Format.printf "%a@." Impossibility.Consensus.pp_report
      (Impossibility.Consensus.analyze_golab ());
    List.iter
      (fun c ->
        Format.printf "%a@." Impossibility.Consensus.pp_report
          (Impossibility.Consensus.analyze_candidate c))
      Impossibility.Consensus.candidates
  in
  Cmd.v
    (Cmd.info "theorem"
       ~doc:
         "Theorem 4 analysis, plus recoverable-consensus valency (CAS decide vs read/write \
          candidates)")
    Term.(const run $ const ())

(* bench-native *)
let bench_native_cmd =
  let domains_arg =
    (* "1..4" (inclusive range) or a comma list "1,2,4" *)
    let domains_conv =
      let parse s =
        let fail () =
          Error
            (`Msg
              (Printf.sprintf
                 "expected a range like 1..4 or a comma list like 1,2,4, got %S" s))
        in
        let ints l =
          let rec go acc = function
            | [] -> Some (List.rev acc)
            | x :: rest -> (
              match int_of_string_opt (String.trim x) with
              | Some n when n >= 1 -> go (n :: acc) rest
              | _ -> None)
          in
          go [] l
        in
        match String.index_opt s '.' with
        | Some _ -> (
          match String.split_on_char '.' s with
          | [ lo; ""; hi ] | [ lo; hi ] -> (
            match ints [ lo; hi ] with
            | Some [ lo; hi ] when lo <= hi ->
              Ok (List.init (hi - lo + 1) (fun i -> lo + i))
            | _ -> fail ())
          | _ -> fail ())
        | None -> (
          match ints (String.split_on_char ',' s) with
          | Some (_ :: _ as l) -> Ok l
          | _ -> fail ())
      and print ppf l =
        Format.pp_print_string ppf (String.concat "," (List.map string_of_int l))
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt domains_conv Runtime.Bench_native.default_config.Runtime.Bench_native.domains_list
      & info [ "domains" ] ~docv:"LIST"
          ~doc:
            "Worker-domain counts to sweep: a range ($(b,1..4)) or comma list \
             ($(b,1,2,4)).  Counts above this host's domains_available still run \
             (oversubscribed) — the JSON records the honest hardware count.")
  in
  let width_arg =
    Arg.(
      value & opt int 1
      & info [ "width" ] ~docv:"W"
          ~doc:
            "Contention-array width of the contended mode (1 = every domain hammers one \
             location).  The uncontended mode always uses max(W, domains) locations.")
  in
  let duration_arg =
    Arg.(
      value & opt float 0.5
      & info [ "duration" ] ~docv:"SECS" ~doc:"Measured window per throughput cell.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the nrl-native/1 JSON document on stdout instead of the tables.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Also write the JSON document to $(docv) (e.g. BENCH_native.json).")
  in
  let bench domains_list width duration json out =
    if width < 1 then begin
      Format.eprintf "nrlsim: --width must be at least 1@.";
      exit 124
    end;
    if duration <= 0.0 then begin
      Format.eprintf "nrlsim: --duration must be positive@.";
      exit 124
    end;
    let cfg = { Runtime.Bench_native.domains_list; width; duration } in
    let log = if json then fun _ -> () else print_endline in
    if not json then
      Format.printf "domains available: %d@." (Domain.recommended_domain_count ());
    let doc = Runtime.Bench_native.run ~log cfg in
    if json then print_string (Runtime.Bench_native_json.render doc);
    Option.iter (fun path -> Runtime.Bench_native_json.write ~path doc) out
  in
  Cmd.v
    (Cmd.info "bench-native"
       ~doc:
         "Native-runtime benchmark suite: single-domain latency and allocation rows plus \
          a memento-style contended/uncontended throughput sweep (schema nrl-native/1)")
    Term.(const bench $ domains_arg $ width_arg $ duration_arg $ json_arg $ out_arg)

(* service: flags shared by serve and bench-service *)
let service_shards_arg =
  Arg.(
    value & opt int Service.Engine.default.Service.Engine.shards
    & info [ "shards" ] ~docv:"N"
        ~doc:"Number of shards (one worker domain each), keys distributed round-robin.")

let service_sessions_arg =
  Arg.(
    value & opt int Service.Engine.default.Service.Engine.sessions
    & info [ "sessions" ] ~docv:"N"
        ~doc:"Closed-loop client sessions (each keeps one operation outstanding).")

let service_client_domains_arg =
  Arg.(
    value & opt int Service.Engine.default.Service.Engine.client_domains
    & info [ "client-domains" ] ~docv:"N"
        ~doc:"Domains multiplexing the client sessions.")

let service_keys_arg =
  Arg.(
    value & opt int Service.Engine.default.Service.Engine.keys
    & info [ "keys" ] ~docv:"N"
        ~doc:
          "Keys in the namespace (object kinds counter/faa/cas/max/hist round-robin; \
           clamped up to the shard count).")

let service_skew_arg =
  Arg.(
    value & opt float Service.Engine.default.Service.Engine.skew
    & info [ "skew" ] ~docv:"S"
        ~doc:"Zipfian key skew (0 = uniform, 0.99 = classic hot-spot).")

let service_crash_interval_arg =
  Arg.(
    value & opt float Service.Engine.default.Service.Engine.crash_interval
    & info [ "crash-interval" ] ~docv:"SECS"
        ~doc:"Mean seconds between shard kills (grid spacing for periodic/hot).")

let service_deadline_arg =
  Arg.(
    value & opt float Service.Engine.default.Service.Engine.deadline_ms
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"Per-attempt response deadline; timeouts retry with capped backoff.")

let service_queue_bound_arg =
  Arg.(
    value & opt int Service.Engine.default.Service.Engine.queue_bound
    & info [ "queue-bound" ] ~docv:"N"
        ~doc:"Per-shard queue bound; submissions beyond it are rejected newest-first.")

let service_shed_fraction_arg =
  Arg.(
    value & opt float Service.Engine.default.Service.Engine.shed_fraction
    & info [ "shed-fraction" ] ~docv:"F"
        ~doc:"Fraction of reads shed above the 3/4 queue-occupancy watermark.")

let service_recrash_prob_arg =
  Arg.(
    value & opt float Service.Engine.default.Service.Engine.recrash_prob
    & info [ "recrash-prob" ] ~docv:"P"
        ~doc:"Probability each recovery attempt is itself hit by a crash.")

let service_config ~shards ~sessions ~client_domains ~keys ~skew ~duration ~mode
    ~crash_interval ~deadline_ms ~queue_bound ~shed_fraction ~recrash_prob ~seed =
  if shards < 1 || sessions < 1 || client_domains < 1 || keys < 1 then begin
    Format.eprintf "nrlsim: --shards/--sessions/--client-domains/--keys must be at least 1@.";
    exit 124
  end;
  if duration < 0.0 || crash_interval <= 0.0 || deadline_ms <= 0.0 then begin
    Format.eprintf "nrlsim: --duration must be >= 0, --crash-interval and --deadline-ms positive@.";
    exit 124
  end;
  if shed_fraction < 0.0 || shed_fraction > 1.0 || recrash_prob < 0.0 || recrash_prob > 1.0
  then begin
    Format.eprintf "nrlsim: --shed-fraction and --recrash-prob must be within [0, 1]@.";
    exit 124
  end;
  {
    Service.Engine.shards;
    sessions;
    client_domains;
    keys;
    skew;
    duration;
    mode;
    crash_interval;
    deadline_ms;
    queue_bound;
    shed_fraction;
    recrash_prob;
    seed;
  }

let service_mode_conv =
  let parse s =
    match Service.Adversary.mode_of_string (String.trim s) with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "expected none, periodic, poisson or hot, got %S" s))
  and print ppf m = Format.pp_print_string ppf (Service.Adversary.mode_name m) in
  Arg.conv (parse, print)

let pp_service_result ppf (r : Service.Engine.result) =
  Format.fprintf ppf
    "mode %-8s  crashes %d  recoveries %d  retries %d  giveups %d@\n\
    \  requests %d  ok %d  client-retries %d  shed %d  rejected %d  unavailable %d  \
     timeouts %d  failures %d@\n\
    \  throughput %.0f ok/s  latency p50 %.3f ms  p99 %.3f ms  max %.3f ms@\n\
    \  recovery p50 %.3f ms  p99 %.3f ms  max %.3f ms  shed rate %.3f@\n\
    \  conservation violations %d"
    r.Service.Engine.r_mode r.Service.Engine.r_crashes r.Service.Engine.r_recoveries
    r.Service.Engine.r_recovery_retries r.Service.Engine.r_giveups
    r.Service.Engine.r_requests r.Service.Engine.r_ok r.Service.Engine.r_retries
    r.Service.Engine.r_shed r.Service.Engine.r_rejected r.Service.Engine.r_unavailable
    r.Service.Engine.r_timeouts r.Service.Engine.r_failures r.Service.Engine.r_throughput
    (float_of_int (Service.Latency.quantile r.Service.Engine.r_lat 0.5) /. 1e6)
    (float_of_int (Service.Latency.quantile r.Service.Engine.r_lat 0.99) /. 1e6)
    (float_of_int (Service.Latency.max_value r.Service.Engine.r_lat) /. 1e6)
    (float_of_int (Service.Latency.quantile r.Service.Engine.r_recovery 0.5) /. 1e6)
    (float_of_int (Service.Latency.quantile r.Service.Engine.r_recovery 0.99) /. 1e6)
    (float_of_int (Service.Latency.max_value r.Service.Engine.r_recovery) /. 1e6)
    (Service.Engine.shed_rate r)
    (List.length r.Service.Engine.r_violations)

(* a run is degraded when recovery lost/doubled an effect, abandoned an
   op, or a scheduled kill was not delivered-and-recovered *)
let service_result_unhealthy (r : Service.Engine.result) =
  r.Service.Engine.r_violations <> []
  || (r.Service.Engine.r_giveups = 0
     && r.Service.Engine.r_recoveries <> r.Service.Engine.r_crashes)

let report_violations (r : Service.Engine.result) =
  List.iter
    (fun v ->
      Format.eprintf "nrlsim: conservation violation: shard %d key %d expected %d got %d@."
        v.Service.Engine.v_shard v.Service.Engine.v_key v.Service.Engine.v_expected
        v.Service.Engine.v_actual)
    r.Service.Engine.r_violations

(* serve *)
let serve_cmd =
  let duration_arg =
    Arg.(
      value & opt float 10.0
      & info [ "duration" ] ~docv:"SECS"
          ~doc:"How long to serve traffic; $(b,0) serves until interrupted (Ctrl-C).")
  in
  let crash_arg =
    Arg.(
      value
      & opt service_mode_conv Service.Adversary.No_crash
      & info [ "crash" ] ~docv:"MODE"
          ~doc:"Crash adversary mode: $(b,none), $(b,periodic), $(b,poisson) or $(b,hot).")
  in
  let status_interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "status-interval" ] ~docv:"SECS" ~doc:"Seconds between status lines.")
  in
  let serve shards sessions client_domains keys skew duration crash crash_interval
      deadline_ms queue_bound shed_fraction recrash_prob seed status_interval stats =
    let cfg =
      service_config ~shards ~sessions ~client_domains ~keys ~skew ~duration ~mode:crash
        ~crash_interval ~deadline_ms ~queue_bound ~shed_fraction ~recrash_prob ~seed
    in
    let obs = obs_of ~stats ~trace:None in
    let interrupted = Atomic.make false in
    let prev =
      Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.set interrupted true))
    in
    let last_status = ref 0.0 in
    let on_tick elapsed shards =
      if elapsed -. !last_status >= status_interval then begin
        last_status := elapsed;
        let healthy =
          Array.fold_left
            (fun n sh -> if Service.Shard.is_healthy sh then n + 1 else n)
            0 shards
        in
        let queued =
          Array.fold_left (fun n sh -> n + Service.Shard.queue_length sh) 0 shards
        in
        Format.printf "t=%6.1fs  shards %d/%d healthy  queued %d@." elapsed healthy
          (Array.length shards) queued
      end
    in
    Format.printf "serving: %d shards, %d sessions, crash mode %s (seed %d)@." cfg.shards
      cfg.sessions
      (Service.Adversary.mode_name crash)
      seed;
    let r =
      Service.Engine.run ?obs
        ~should_stop:(fun () -> Atomic.get interrupted)
        ~on_tick cfg
    in
    Sys.set_signal Sys.sigint prev;
    Format.printf "%a@." pp_service_result r;
    report_violations r;
    obs_finish ~stats ~tracer:None obs;
    if service_result_unhealthy r then exit 2
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the sharded recoverable-object service under live load (and, optionally, a \
          crash adversary), printing periodic status lines and a final SLO summary")
    Term.(
      const serve $ service_shards_arg $ service_sessions_arg $ service_client_domains_arg
      $ service_keys_arg $ service_skew_arg $ duration_arg $ crash_arg
      $ service_crash_interval_arg $ service_deadline_arg $ service_queue_bound_arg
      $ service_shed_fraction_arg $ service_recrash_prob_arg $ seed_arg
      $ status_interval_arg $ stats_arg)

(* bench-service *)
let bench_service_cmd =
  let duration_arg =
    Arg.(
      value & opt float Service.Engine.default.Service.Engine.duration
      & info [ "duration" ] ~docv:"SECS" ~doc:"Traffic window per crash mode.")
  in
  let crash_arg =
    let modes_conv =
      let parse s =
        let parts = String.split_on_char ',' s in
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | p :: rest -> (
            match Service.Adversary.mode_of_string (String.trim p) with
            | Some m -> go (m :: acc) rest
            | None ->
              Error
                (`Msg
                  (Printf.sprintf
                     "expected a comma list of none, periodic, poisson, hot; got %S" s)))
        in
        go [] parts
      and print ppf l =
        Format.pp_print_string ppf
          (String.concat "," (List.map Service.Adversary.mode_name l))
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt modes_conv Service.Adversary.all_modes
      & info [ "crash" ] ~docv:"MODES"
          ~doc:
            "Crash modes to bench, a comma list of $(b,none), $(b,periodic), \
             $(b,poisson), $(b,hot) (one result row each).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the nrl-service/1 JSON document on stdout instead of the summaries.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Also write the JSON document to $(docv) (e.g. BENCH_service.json).")
  in
  let bench shards sessions client_domains keys skew duration crashes crash_interval
      deadline_ms queue_bound shed_fraction recrash_prob seed json out stats =
    let cfg mode =
      service_config ~shards ~sessions ~client_domains ~keys ~skew ~duration ~mode
        ~crash_interval ~deadline_ms ~queue_bound ~shed_fraction ~recrash_prob ~seed
    in
    if duration <= 0.0 then begin
      Format.eprintf "nrlsim: --duration must be positive@.";
      exit 124
    end;
    let obs = obs_of ~stats ~trace:None in
    if not json then
      Format.printf "domains available: %d@." (Domain.recommended_domain_count ());
    let rows =
      List.map
        (fun mode ->
          let r = Service.Engine.run ?obs (cfg mode) in
          if not json then Format.printf "%a@." pp_service_result r;
          { Service.Service_json.m_result = r; m_crash_interval = crash_interval })
        crashes
    in
    let doc =
      {
        Service.Service_json.domains_available = Domain.recommended_domain_count ();
        seed;
        config = cfg Service.Adversary.No_crash;
        modes = rows;
      }
    in
    if json then print_string (Service.Service_json.render doc);
    Option.iter (fun path -> Service.Service_json.write ~path doc) out;
    obs_finish ~stats ~tracer:None obs;
    let bad = List.filter (fun m -> service_result_unhealthy m.Service.Service_json.m_result) rows in
    List.iter (fun m -> report_violations m.Service.Service_json.m_result) bad;
    if bad <> [] then exit 2
  in
  Cmd.v
    (Cmd.info "bench-service"
       ~doc:
         "Crash-adversarial service bench: Zipfian closed-loop load over the sharded \
          recoverable-object service, one row per crash mode, with the conservation \
          audit enforced (schema nrl-service/1)")
    Term.(
      const bench $ service_shards_arg $ service_sessions_arg $ service_client_domains_arg
      $ service_keys_arg $ service_skew_arg $ duration_arg $ crash_arg
      $ service_crash_interval_arg $ service_deadline_arg $ service_queue_bound_arg
      $ service_shed_fraction_arg $ service_recrash_prob_arg $ seed_arg $ json_arg
      $ out_arg $ stats_arg)

(* list *)
let list_cmd =
  let run () =
    List.iter print_endline scenario_names;
    (* zoo mutants are scenarios too (explore/run/check accept them) *)
    List.iter (fun m -> print_endline m.Objects.Zoo.m_name) Objects.Zoo.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available scenarios") Term.(const run $ const ())

let () =
  let doc = "Nesting-safe recoverable linearizability: simulator and checkers" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "nrlsim" ~doc)
          [
            run_cmd;
            check_cmd;
            explore_cmd;
            fuzz_cmd;
            theorem_cmd;
            list_cmd;
            bench_native_cmd;
            serve_cmd;
            bench_service_cmd;
          ]))
