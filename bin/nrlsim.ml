(* nrlsim: command-line driver for the NRL machine.

   Subcommands:
     run      - randomized crash-torture batches over a scenario
     check    - one seeded run with the full history and NRL verdict
     explore  - bounded exhaustive schedule exploration of a small instance
     fuzz     - coverage-guided scenario fuzzing with shrinking and the bug zoo
     theorem  - the Theorem 4 analysis (valency, critical configs, refutation)
     list          - available scenarios
     bench-explore - the simulator and explorer tables and figures
                     (BENCH_explore.json, schema nrl-bench/6)
     bench-native  - the native-runtime latency/allocation/throughput suite
                     (BENCH_native.json, schema nrl-bench/6)
     serve, bench-service - the sharded recoverable-object service *)

open Cmdliner
module S = Workload.Scenarios

(* The named scenarios, in [nrlsim list] order: the rows of the scenario
   table ([S.catalogue], then [S.others]).  After them every zoo mutant
   name is a scenario too, running its base kind's fixed mutant workload
   ([S.mutant]). *)
let scenarios =
  List.map
    (fun k -> (S.name k, fun ~nprocs ~ops -> S.of_kind k ~nprocs ~ops ()))
    (S.catalogue @ S.others)

let scenario_conv =
  let parse name =
    match List.assoc_opt name scenarios with
    | Some build -> Ok (name, build)
    | None -> (
      match Objects.Zoo.find name with
      | Some m -> Ok (name, fun ~nprocs ~ops -> S.mutant m ~nprocs ~ops ())
      | None -> Error (`Msg (Printf.sprintf "unknown scenario %S (try: nrlsim list)" name)))
  in
  Arg.conv (parse, fun ppf (name, _) -> Format.pp_print_string ppf name)

(* [conv] restricted to the values [ok] accepts; [what] names that range
   in the usage error *)
let restrict conv ok what =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let pos_int = restrict Arg.int (fun n -> n >= 1) "a positive integer"
let nonneg_int = restrict Arg.int (fun n -> n >= 0) "a non-negative integer"
let pos_float = restrict Arg.float (fun x -> x > 0.0) "a positive number"
let nonneg_float = restrict Arg.float (fun x -> x >= 0.0) "a non-negative number"
let prob = restrict Arg.float (fun p -> p >= 0.0 && p <= 1.0) "a probability in [0, 1]"

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Trace every machine decision (very chatty).")

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  if verbose then Logs.Src.set_level Machine.Schedule.src (Some Logs.Debug)

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* [all] adds explore's campaign over every strategy *)
let junk_arg ~all =
  let names = Machine.Junk.strategy_names @ if all then [ "all" ] else [] in
  Arg.(
    value
    & opt (enum (List.map (fun s -> (s, s)) names)) "scramble"
    & info [ "junk" ] ~docv:"STRATEGY"
        ~doc:
          ("Adversarial junk strategy for crash-scrambled locals (see docs/resilience.md): "
          ^ String.concat ", " names
          ^ if all then "; $(b,all) runs a campaign over every strategy and compares verdicts."
            else "."))

(* {1 Shared terms} *)

(* One scenario instance: what run, check and explore all start from. *)
type instance = {
  name : string;
  nprocs : int;
  ops : int;
  scen : Workload.Trial.scenario;
  persist : Nvm.Memory.mode;
}

let instance_term =
  let scenario_arg =
    let doc = "Scenario name (see $(b,nrlsim list))." in
    Arg.(
      value
      & pos 0 scenario_conv ("counter", List.assoc "counter" scenarios)
      & info [] ~docv:"SCENARIO" ~doc)
  in
  let nprocs_arg =
    Arg.(value & opt pos_int 3 & info [ "n"; "nprocs" ] ~docv:"N" ~doc:"Number of processes.")
  in
  let ops_arg =
    Arg.(value & opt pos_int 5 & info [ "ops" ] ~docv:"K" ~doc:"Operations per process.")
  in
  let persist_model_arg =
    Arg.(
      value
      & opt (enum [ ("instant", Nvm.Memory.Instant); ("explicit", Nvm.Memory.Explicit) ])
          Nvm.Memory.Instant
      & info [ "persist-model" ] ~docv:"MODEL"
          ~doc:
            "Persistency model of the simulated NVRAM.  $(b,instant) is the paper's model: \
             every write is durable the moment it completes.  $(b,explicit) gives every \
             cell a volatile and a persisted value: writes stay pending until a flush or \
             fence, and a full-system crash loses each pending write nondeterministically. \
             See docs/memory-model.md.")
  in
  let make (name, build) nprocs ops persist =
    { name; nprocs; ops; persist; scen = build ~nprocs ~ops }
  in
  Term.(const make $ scenario_arg $ nprocs_arg $ ops_arg $ persist_model_arg)

(* The seeded crash policy of run and check.  One term for both, so every
   failure seed a run batch prints replays under check with the same
   flags. *)
type policy = {
  seed : int;
  crash_prob : float;
  max_crashes : int;
  system_crash_prob : float;
  junk : string;
}

let policy_term =
  let crash_prob_arg =
    Arg.(value & opt prob 0.08 & info [ "crash-prob" ] ~docv:"P" ~doc:"Crash probability per step.")
  in
  let max_crashes_arg =
    Arg.(value & opt nonneg_int 6 & info [ "max-crashes" ] ~docv:"C" ~doc:"Crash budget per run.")
  in
  let system_crash_arg =
    Arg.(
      value & opt prob 0.0
      & info [ "system-crash-prob" ] ~docv:"P"
          ~doc:"Probability of a full-system crash (all processes at once) per step.")
  in
  let make seed crash_prob max_crashes system_crash_prob junk =
    { seed; crash_prob; max_crashes; system_crash_prob; junk }
  in
  Term.(
    const make $ seed_arg $ crash_prob_arg $ max_crashes_arg $ system_crash_arg
    $ junk_arg ~all:false)

(* --stats/--trace: the registry exists iff either asked for it *)
type obs = { stats : bool; reg : Obs.Metrics.t option; tracer : Obs.Trace.t option }

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print an end-of-run metrics breakdown (counters, timers, derived rates) to \
           stdout.  Counter values are engine-invariant: identical for every $(b,--jobs) \
           setting.  See docs/observability.md.")

let make_obs stats trace =
  {
    stats;
    reg = (if stats || trace <> None then Some (Obs.Metrics.create ()) else None);
    tracer = Option.map (fun path -> Obs.Trace.create ~path) trace;
  }

let obs_term =
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write an NDJSON trace (schema nrl-trace/1: config events, phase spans, final \
             metric values) to $(docv).  The schema is documented in docs/observability.md.")
  in
  Term.(const make_obs $ stats_arg $ trace_arg)

(* the service commands take --stats only *)
let stats_term = Term.(const make_obs $ stats_arg $ const None)

let trace_event o name fields = Option.iter (fun tr -> Obs.Trace.event tr ~name fields) o.tracer

(* end-of-run: dump metrics into the trace, close it, print the summary *)
let obs_finish ?(header = "") o =
  (match o.reg, o.tracer with
  | Some reg, Some tr -> Obs.Trace.metrics tr reg
  | _ -> ());
  Option.iter Obs.Trace.close o.tracer;
  match o.reg with
  | Some reg when o.stats ->
    if header <> "" then Format.printf "%s@." header;
    Format.printf "%a" Obs.Report.pp_summary reg
  | _ -> ()

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Print a progress line (nodes visited, rate, task completion, crude ETA) to \
           stderr roughly once per second.")

(* SIGINT/SIGTERM flip a flag the long-running loops poll, so a kill ends
   the run with its partial verdict instead of losing it. *)
let stop_on_signals () =
  let stop = Atomic.make false in
  let graceful = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  Sys.set_signal Sys.sigint graceful;
  Sys.set_signal Sys.sigterm graceful;
  fun () -> Atomic.get stop

(* --json/--out of bench-explore, bench-native and bench-service *)
let bench_output_term ~example =
  Term.(
    const (fun json out -> (json, out))
    $ Arg.(
        value & flag
        & info [ "json" ]
            ~doc:
              (Printf.sprintf "Emit the %s JSON document on stdout instead of the report."
                 Obs.Bench.schema))
    $ Arg.(
        value
        & opt (some string) None
        & info [ "out" ] ~docv:"FILE"
            ~doc:(Printf.sprintf "Also write the JSON document to $(docv) (e.g. %s)." example)))

let emit_json (json, out) doc =
  if json then print_string (Obs.Bench.render doc);
  Option.iter (fun path -> Obs.Bench.write ~path doc) out

(* run *)
let run_cmd =
  let trials_arg =
    Arg.(value & opt pos_int 200 & info [ "trials" ] ~docv:"T" ~doc:"Number of trials.")
  in
  let run inst p trials o =
    trace_event o "run.config"
      [
        ("scenario", Obs.Trace.Str inst.name);
        ("nprocs", Obs.Trace.Int inst.nprocs);
        ("ops", Obs.Trace.Int inst.ops);
        ("trials", Obs.Trace.Int trials);
        ("seed", Obs.Trace.Int p.seed);
        ("crash_prob", Obs.Trace.Float p.crash_prob);
        ("max_crashes", Obs.Trace.Int p.max_crashes);
      ];
    let t0 = Obs.Clock.now_ns () in
    let s =
      Workload.Trial.batch ~base_seed:p.seed ~crash_prob:p.crash_prob
        ~max_crashes:p.max_crashes ~system_crash_prob:p.system_crash_prob
        ~persist:inst.persist ~junk:p.junk ?obs:o.reg ~trials inst.scen
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
      o.tracer;
    Format.printf "%s: %a@." inst.scen.Workload.Trial.scen_name Workload.Trial.pp_summary s;
    obs_finish o;
    if s.Workload.Trial.failed > 0 then exit 2
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Randomized crash-torture batch with NRL checking")
    Term.(const run $ instance_term $ policy_term $ trials_arg $ obs_term)

(* check *)
let check_cmd =
  let dump_memory_arg =
    Arg.(value & flag & info [ "dump-memory" ] ~doc:"Print the final NVRAM contents.")
  in
  let check inst p verbose dump_memory =
    setup_logs verbose;
    let sim, r =
      Workload.Trial.run ~seed:p.seed ~crash_prob:p.crash_prob ~max_crashes:p.max_crashes
        ~system_crash_prob:p.system_crash_prob ~persist:inst.persist ~junk:p.junk inst.scen
    in
    Format.printf "history:@.%a@." History.pp (Machine.Sim.history sim);
    for pid = 0 to inst.nprocs - 1 do
      Format.printf "p%d results: %a@." pid
        Fmt.(list ~sep:comma (pair ~sep:(any "=") string Nvm.Value.pp))
        (Machine.Sim.results sim pid)
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
    Term.(const check $ instance_term $ policy_term $ verbose_arg $ dump_memory_arg)

(* explore *)
let explore_cmd =
  let steps_arg =
    Arg.(value & opt pos_int 100 & info [ "max-steps" ] ~docv:"S" ~doc:"Depth bound.")
  in
  let crashes_arg =
    Arg.(
      value & opt nonneg_int 1
      & info [ "crashes" ] ~docv:"C" ~doc:"Crash budget (process 0 crashes).")
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
    Arg.(
      value
      & opt (enum [ ("terminal", "terminal"); ("incremental", "incremental") ]) "terminal"
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
  let budget_term =
    let deadline_arg =
      Arg.(
        value
        & opt (some nonneg_float) None
        & info [ "deadline" ] ~docv:"SECS"
            ~doc:
              "Wall-clock budget.  When it runs out the search stops with a structured \
               partial verdict (exit code 3) instead of running to completion.")
    in
    let max_nodes_arg =
      Arg.(
        value
        & opt (some pos_int) None
        & info [ "max-nodes" ] ~docv:"N"
            ~doc:"Node budget: stop (exit code 3) after processing $(docv) schedule-tree nodes.")
    in
    let max_visited_arg =
      Arg.(
        value
        & opt (some pos_int) None
        & info [ "max-visited" ] ~docv:"N"
            ~doc:
              "Cap the $(b,--dedup) visited store at $(docv) fingerprints.  Exceeding the \
               cap is a degradation, not an abort: the store is dropped and the sweep \
               continues without pruning.")
    in
    let make deadline_s max_nodes max_visited =
      { Machine.Explore.deadline_s; max_nodes; max_visited }
    in
    Term.(const make $ deadline_arg $ max_nodes_arg $ max_visited_arg)
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
      value & opt nonneg_float 5.0
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
  let explore inst max_steps max_crashes jobs check_mode dedup no_symmetry no_flush o
      progress budget checkpoint checkpoint_interval resume junk =
    let jobs_requested = jobs in
    let jobs = match jobs with `Auto -> Machine.Explore.auto_jobs () | `Jobs j -> j in
    let symmetry = not no_symmetry in
    let mk_check_mode () =
      if check_mode = "terminal" then `Terminal
      else `Incremental (Workload.Check.nrl_incremental ())
    in
    let build junk_strategy =
      let sim =
        Machine.Sim.create ~persist:inst.persist ~annotate:(not no_flush) ~nprocs:inst.nprocs ()
      in
      inst.scen.Workload.Trial.build sim;
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
      if not o.stats then ""
      else
        Printf.sprintf "engine: jobs=%d%s (domains available: %d); symmetry=%s" jobs
          (match jobs_requested with `Auto -> " (auto)" | `Jobs _ -> "")
          (Machine.Explore.auto_jobs ())
          (match sym_degree with
          | Some d -> Printf.sprintf "on (quotient degree %d)" d
          | None -> if dedup && symmetry then "inactive" else "off")
    in
    trace_event o "explore.config"
      [
        ("scenario", Obs.Trace.Str inst.name);
        ("nprocs", Obs.Trace.Int inst.nprocs);
        ("ops", Obs.Trace.Int inst.ops);
        ("max_steps", Obs.Trace.Int max_steps);
        ("max_crashes", Obs.Trace.Int max_crashes);
        ("jobs", Obs.Trace.Int jobs);
        ("dedup", Obs.Trace.Bool dedup);
        ("symmetry", Obs.Trace.Bool symmetry);
        ("check_mode", Obs.Trace.Str check_mode);
        ("junk", Obs.Trace.Str junk);
        ( "persist_model",
          Obs.Trace.Str (if inst.persist = Nvm.Memory.Instant then "instant" else "explicit") );
        ("annotate", Obs.Trace.Bool (not no_flush));
      ];
    let stamp =
      [
        ("scenario", inst.name);
        ("nprocs", string_of_int inst.nprocs);
        ("ops", string_of_int inst.ops);
        ("max_steps", string_of_int max_steps);
        ("max_crashes", string_of_int max_crashes);
        ("dedup", string_of_bool dedup);
        ("symmetry", string_of_bool symmetry);
        ("check_mode", check_mode);
        ("junk", junk);
      ]
      (* stamped only under the explicit model so pre-existing instant
         checkpoints keep resuming *)
      @ (match inst.persist with
        | Nvm.Memory.Instant -> []
        | Nvm.Memory.Explicit ->
          [ ("persist", "explicit"); ("annotate", string_of_bool (not no_flush)) ])
    in
    let load_checkpoint path =
      match Machine.Checkpoint.load path with
      | Error msg ->
        Format.eprintf "nrlsim: cannot resume from %s: %s@." path msg;
        exit 124
      | Ok { Machine.Checkpoint.result = Some (verdict, detail); _ } ->
        (* the previous run finished; report its verdict, do not re-run *)
        Format.printf "checkpoint %s is final: %s%s@." path verdict
          (if detail = "" then "" else " (" ^ detail ^ ")");
        exit (if verdict = "violation" then 2 else 0)
      | Ok ck ->
        let show kvs = String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs) in
        if List.sort compare ck.Machine.Checkpoint.scenario <> List.sort compare stamp then begin
          Format.eprintf
            "nrlsim: checkpoint %s was taken from a different scenario@.  saved:   %s@.  \
             current: %s@."
            path (show ck.Machine.Checkpoint.scenario) (show stamp);
          exit 124
        end;
        ck
    in
    let cp =
      match checkpoint, resume with
      | None, None -> None
      | _ when junk = "all" ->
        Format.eprintf
          "nrlsim: --junk all is a campaign over independent runs; it cannot be \
           checkpointed or resumed.  Pick one strategy.@.";
        exit 124
      | _ ->
        let ck = Option.map load_checkpoint resume in
        (* without --checkpoint, keep saving where we resumed from *)
        let cp_path = match checkpoint with Some p -> p | None -> Option.get resume in
        Some
          ( { Machine.Explore.cp_path; cp_interval_s = checkpoint_interval; cp_scenario = stamp },
            ck )
    in
    let prog =
      if progress then Some (Obs.Progress.create ~label:"explore" ()) else None
    in
    let should_stop = stop_on_signals () in
    (* searches under [strategy] and prints its verdict ([label] prefixes
       each campaign line); returns the exit code *)
    let report ~label strategy =
      let open Machine.Explore in
      let t0 = Obs.Clock.now_s () in
      let outcome, s =
        search ~cfg ~jobs ~dedup ~symmetry ?obs:o.reg ?progress:prog ?trace:o.tracer ~budget
          ~should_stop ?checkpoint:(Option.map fst cp) ?resume:(Option.bind cp snd)
          ~check_mode:(mk_check_mode ()) ~check:Workload.Check.nrl_violation (build strategy)
      in
      match outcome with
      | Violation (sim, reason) ->
        Format.printf "%sVIOLATION: %s@.history:@.%a@." label reason History.pp
          (Machine.Sim.history sim);
        2
      | Clean ->
        Format.printf
          "%sno violation: %d complete executions checked (%d truncated, %d nodes, %d \
           deduped, %d jobs, %.1fs)@."
          label s.terminals s.truncated s.nodes s.dup jobs
          (Obs.Clock.now_s () -. t0);
        0
      | Exhausted e ->
        Format.printf
          "%sexhausted (%s): %d complete executions checked so far (%d truncated, %d nodes, \
           %d deduped, %d tasks pending, %.1fs)%s@."
          label (exhaust_reason_name e.ex_reason) s.terminals s.truncated s.nodes s.dup
          e.ex_frontier
          (Obs.Clock.now_s () -. t0)
          (match e.ex_degraded with [] -> "" | ds -> "; degraded: " ^ String.concat ", " ds);
        (match cp with
        | Some (spec, _) when Sys.file_exists spec.cp_path ->
          Format.printf "resume with: --resume %s@." spec.cp_path
        | _ -> ());
        3
    in
    let code =
      if junk <> "all" then report ~label:"" junk
      else begin
        (* campaign: one search per strategy, verdicts compared *)
        let codes =
          List.map
            (fun s -> report ~label:(Printf.sprintf "junk=%-8s " s) s)
            Machine.Junk.strategy_names
        in
        if List.exists (fun c -> c <> List.hd codes) codes then
          Format.printf
            "WARNING: verdict differs across junk strategies — the algorithm's recovery \
             depends on the junk the crash produced.@.";
        if List.mem 2 codes then 2 else if List.mem 3 codes then 3 else 0
      end
    in
    obs_finish ~header:stats_header o;
    exit code
  in
  Cmd.v
    (Cmd.info "explore" ~doc:"Bounded exhaustive schedule exploration (use small instances)")
    Term.(
      const explore $ instance_term $ steps_arg $ crashes_arg $ jobs_arg $ check_mode_arg
      $ dedup_arg $ no_symmetry_arg $ no_flush_arg $ obs_term $ progress_arg $ budget_term
      $ checkpoint_arg $ checkpoint_interval_arg $ resume_arg $ junk_arg ~all:true)

(* fuzz *)
let fuzz_cmd =
  let kinds_arg =
    Arg.(
      value
      & opt (list string) Fuzz.Gen.base_kinds
      & info [ "kinds" ] ~docv:"KINDS"
          ~doc:
            ("Comma-separated scenario kinds to fuzz: the base algorithms ("
            ^ String.concat ", " Fuzz.Gen.base_kinds
            ^ ") and/or zoo mutant names (see $(b,--zoo))."))
  in
  let seeds_arg =
    Arg.(
      value & opt pos_int 200
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
      & opt pos_int Fuzz.Campaign.default_zoo_budget
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
  let fuzz kinds seeds base_seed budget corpus resume shrink zoo zoo_budget replay o progress =
    let bad fmt =
      Format.kasprintf
        (fun m ->
          Format.eprintf "nrlsim: %s@." m;
          Option.iter Obs.Trace.close o.tracer;
          exit 124)
        fmt
    in
    let stopped = stop_on_signals () in
    let deadline = Option.map (fun b -> Obs.Clock.now_s () +. b) budget in
    let should_stop () =
      stopped () || match deadline with Some d -> Obs.Clock.now_s () > d | None -> false
    in
    trace_event o "fuzz.config"
      [
        ("kinds", Obs.Trace.Str (String.concat "," kinds));
        ("seeds", Obs.Trace.Int seeds);
        ("base_seed", Obs.Trace.Int base_seed);
        ("zoo", Obs.Trace.Bool zoo);
        ("shrink", Obs.Trace.Bool shrink);
      ];
    match replay with
    | Some desc_s -> (
      match Fuzz.Gen.of_string desc_s with
      | Error m -> bad "%s" m
      | Ok d -> (
        let v = Fuzz.Gen.run ?obs:o.reg d in
        Format.printf "outcome: %s, %d steps@."
          (match v.Fuzz.Gen.v_outcome with
          | Machine.Schedule.Completed -> "completed"
          | Machine.Schedule.Halted -> "halted"
          | Machine.Schedule.Out_of_steps -> "out of steps")
          v.Fuzz.Gen.v_steps;
        match v.Fuzz.Gen.v_violation with
        | Some reason ->
          Format.printf "VIOLATION: %s@." reason;
          obs_finish o;
          exit 2
        | None ->
          Format.printf "no violation@.";
          obs_finish o))
    | None ->
      let invalid = List.filter (fun k -> not (List.mem k Fuzz.Gen.all_kinds)) kinds in
      if invalid <> [] then
        bad "unknown kind(s): %s (known: %s)" (String.concat ", " invalid)
          (String.concat ", " Fuzz.Gen.all_kinds);
      if resume && corpus = None then bad "--resume needs --corpus";
      if zoo then begin
        let dets =
          Fuzz.Campaign.zoo ?obs:o.reg ?trace:o.tracer ~should_stop ~shrink
            ~budget_seeds:zoo_budget ~base_seed ()
        in
        List.iter (fun d -> Format.printf "%a@." Fuzz.Campaign.pp_detection d) dets;
        let missed =
          List.filter (fun d -> d.Fuzz.Campaign.z_found = None) dets |> List.length
        in
        Format.printf "%d/%d mutants detected@." (List.length dets - missed)
          (List.length dets);
        obs_finish o;
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
        match Fuzz.Campaign.run ?obs:o.reg ?trace:o.tracer ?progress:prog ~should_stop cfg with
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
          (match corpus with
          | Some p when not r.Fuzz.Campaign.r_finished ->
            Format.printf "resume with: --corpus %s --resume@." p
          | _ -> ());
          obs_finish o;
          if r.Fuzz.Campaign.r_violations <> [] then exit 2
          else if not r.Fuzz.Campaign.r_finished then exit 3
      end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Coverage-guided scenario fuzzing with counterexample shrinking")
    Term.(
      const fuzz $ kinds_arg $ seeds_arg $ seed_arg $ budget_arg $ corpus_arg $ resume_arg
      $ shrink_arg $ zoo_arg $ zoo_budget_arg $ replay_arg $ obs_term $ progress_arg)

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

(* bench-explore *)
let bench_explore_cmd =
  let tags_arg =
    let tags = Workload.Bench_explore.tags in
    Arg.(
      value
      & pos_all (enum (List.map (fun t -> (t, t)) tags)) []
      & info [] ~docv:"TAGS"
          ~doc:
            ("Sections to run, each " ^ doc_alts tags
           ^ "; a bare $(b,T) or $(b,F) runs every section with that letter, no tag all of \
              them."))
  in
  let bench tags ((json, _) as output) =
    let log = if json then fun _ -> () else print_endline in
    if not json then
      Format.printf "domains available: %d@." (Domain.recommended_domain_count ());
    emit_json output (Workload.Bench_explore.run ~log tags)
  in
  Cmd.v
    (Cmd.info "bench-explore"
       ~doc:
         ("Simulator and explorer benchmark: solo access counts, exhaustive-search cost \
           and NRL check cost, one row per measurement (schema "
         ^ Obs.Bench.schema ^ ")"))
    Term.(const bench $ tags_arg $ bench_output_term ~example:"BENCH_explore.json")

(* bench-native *)
let bench_native_cmd =
  let domains_arg =
    (* "1..4" (inclusive range) or a comma list "1,2,4" *)
    let domains_conv =
      let ints = Arg.list pos_int in
      let range = function
        | [ lo; ""; hi ] -> (
          match Arg.conv_parser pos_int lo, Arg.conv_parser pos_int hi with
          | Ok lo, Ok hi when lo <= hi -> Some (List.init (hi - lo + 1) (fun i -> lo + i))
          | _ -> None)
        | _ -> None
      in
      let parse s =
        match range (String.split_on_char '.' s), Arg.conv_parser ints s with
        | Some l, _ | None, Ok (_ :: _ as l) -> Ok l
        | _ ->
          Error
            (`Msg
              (Printf.sprintf "expected a range like 1..4 or a comma list like 1,2,4, got %S" s))
      in
      Arg.conv (parse, Arg.conv_printer ints)
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
      value & opt pos_int 1
      & info [ "width" ] ~docv:"W"
          ~doc:
            "Contention-array width of the contended mode (1 = every domain hammers one \
             location).  The uncontended mode always uses max(W, domains) locations.")
  in
  let duration_arg =
    Arg.(
      value & opt pos_float 0.5
      & info [ "duration" ] ~docv:"SECS"
          ~doc:"Seconds per throughput cell, timed as five equal windows.")
  in
  let bench domains_list width duration ((json, _) as output) =
    let cfg = { Runtime.Bench_native.domains_list; width; duration } in
    let log = if json then fun _ -> () else print_endline in
    if not json then
      Format.printf "domains available: %d@." (Domain.recommended_domain_count ());
    emit_json output (Runtime.Bench_native.run ~log cfg)
  in
  Cmd.v
    (Cmd.info "bench-native"
       ~doc:
         ("Native-runtime benchmark suite: single-domain latency and allocation rows plus \
           a memento-style contended/uncontended throughput sweep (schema "
         ^ Obs.Bench.schema ^ ")"))
    Term.(
      const bench $ domains_arg $ width_arg $ duration_arg
      $ bench_output_term ~example:"BENCH_native.json")

(* service: the engine configuration serve and bench-service share, all
   but the crash mode; [duration] is each command's own traffic window *)
let service_config_term ~duration =
  let d = Service.Engine.default in
  let count name default doc = Arg.(value & opt pos_int default & info [ name ] ~docv:"N" ~doc) in
  let make shards sessions client_domains keys skew duration crash_interval deadline_ms
      queue_bound shed_fraction recrash_prob seed mode =
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
  in
  Term.(
    const make
    $ count "shards" d.shards
        "Number of shards (one worker domain each), keys distributed round-robin."
    $ count "sessions" d.sessions
        "Closed-loop client sessions (each keeps one operation outstanding)."
    $ count "client-domains" d.client_domains "Domains multiplexing the client sessions."
    $ count "keys" d.keys
        "Keys in the namespace (object kinds counter/faa/cas/max/hist round-robin; \
         clamped up to the shard count)."
    $ Arg.(
        value & opt float d.skew
        & info [ "skew" ] ~docv:"S" ~doc:"Zipfian key skew (0 = uniform, 0.99 = classic hot-spot).")
    $ duration
    $ Arg.(
        value & opt pos_float d.crash_interval
        & info [ "crash-interval" ] ~docv:"SECS"
            ~doc:"Mean seconds between shard kills (grid spacing for periodic/hot).")
    $ Arg.(
        value & opt pos_float d.deadline_ms
        & info [ "deadline-ms" ] ~docv:"MS"
            ~doc:"Per-attempt response deadline; timeouts retry with capped backoff.")
    $ count "queue-bound" d.queue_bound
        "Per-shard queue bound; submissions beyond it are rejected newest-first."
    $ Arg.(
        value & opt prob d.shed_fraction
        & info [ "shed-fraction" ] ~docv:"F"
            ~doc:"Fraction of reads shed above the 3/4 queue-occupancy watermark.")
    $ Arg.(
        value & opt prob d.recrash_prob
        & info [ "recrash-prob" ] ~docv:"P"
            ~doc:"Probability each recovery attempt is itself hit by a crash.")
    $ seed_arg)

let service_mode_conv =
  Arg.enum (List.map (fun m -> (Service.Adversary.mode_name m, m)) Service.Adversary.all_modes)

let pp_service_result ppf (r : Service.Engine.result) =
  let module H = Obs.Metrics.Histogram in
  let ms ns = float_of_int ns /. 1e6 in
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
    (ms (H.quantile r.Service.Engine.r_lat 0.5))
    (ms (H.quantile r.Service.Engine.r_lat 0.99))
    (ms (H.max_value r.Service.Engine.r_lat))
    (ms (H.quantile r.Service.Engine.r_recovery 0.5))
    (ms (H.quantile r.Service.Engine.r_recovery 0.99))
    (ms (H.max_value r.Service.Engine.r_recovery))
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
      value & opt nonneg_float 10.0
      & info [ "duration" ] ~docv:"SECS"
          ~doc:"How long to serve traffic; $(b,0) serves until interrupted (SIGINT/SIGTERM).")
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
  let serve cfg crash status_interval o =
    let cfg = cfg crash in
    let should_stop = stop_on_signals () in
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
    Format.printf "serving: %d shards, %d sessions, crash mode %s (seed %d)@."
      cfg.Service.Engine.shards cfg.Service.Engine.sessions
      (Service.Adversary.mode_name crash)
      cfg.Service.Engine.seed;
    let r = Service.Engine.run ?obs:o.reg ~should_stop ~on_tick cfg in
    Format.printf "%a@." pp_service_result r;
    report_violations r;
    obs_finish o;
    if service_result_unhealthy r then exit 2
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the sharded recoverable-object service under live load (and, optionally, a \
          crash adversary), printing periodic status lines and a final SLO summary")
    Term.(
      const serve $ service_config_term ~duration:duration_arg $ crash_arg
      $ status_interval_arg $ stats_term)

(* bench-service *)
let bench_service_cmd =
  let duration_arg =
    Arg.(
      value & opt pos_float Service.Engine.default.Service.Engine.duration
      & info [ "duration" ] ~docv:"SECS" ~doc:"Traffic window per crash mode.")
  in
  let crash_arg =
    Arg.(
      value
      & opt (list service_mode_conv) Service.Adversary.all_modes
      & info [ "crash" ] ~docv:"MODES"
          ~doc:
            "Crash modes to bench, a comma list of $(b,none), $(b,periodic), \
             $(b,poisson), $(b,hot) (one result row each).")
  in
  let bench cfg crashes ((json, _) as output) o =
    let config = cfg Service.Adversary.No_crash in
    if not json then
      Format.printf "domains available: %d@." (Domain.recommended_domain_count ());
    let results =
      List.map
        (fun mode ->
          let r = Service.Engine.run ?obs:o.reg (cfg mode) in
          if not json then Format.printf "%a@." pp_service_result r;
          r)
        crashes
    in
    emit_json output (Service.Engine.bench config results);
    obs_finish o;
    let bad = List.filter service_result_unhealthy results in
    List.iter report_violations bad;
    if bad <> [] then exit 2
  in
  Cmd.v
    (Cmd.info "bench-service"
       ~doc:
         ("Crash-adversarial service bench: Zipfian closed-loop load over the sharded \
           recoverable-object service, one row per crash mode, with the conservation \
           audit enforced (schema "
         ^ Obs.Bench.schema ^ ")"))
    Term.(
      const bench $ service_config_term ~duration:duration_arg $ crash_arg
      $ bench_output_term ~example:"BENCH_service.json"
      $ stats_term)

(* list *)
let list_cmd =
  let run () =
    List.iter (fun (name, _) -> print_endline name) scenarios;
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
            bench_explore_cmd;
            bench_native_cmd;
            serve_cmd;
            bench_service_cmd;
          ]))
