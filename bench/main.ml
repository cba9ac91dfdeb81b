(* Benchmark harness: regenerates the simulator and explorer tables
   (T5-T9, T12) and figure series (F1, F2, F4, F5) defined in DESIGN.md
   section 5.  Every other number there has one producer elsewhere: the
   native latency rows (T1, T2, T10, T12's mutex/consensus rows, F3's
   CAS recovery scan) and the T10 throughput sweep, which holds T3's
   counter cells, are `nrlsim bench-native`'s (Runtime.Bench_native);
   the simulator step rate and the long torture trial of T4 are the e2e
   bench's (bench/e2e); the correctness batches (E1-E4, E6, F4's crash
   sweep) are `nrlsim run` batches and E5 is `nrlsim theorem`, their
   commands listed in EXPERIMENTS.md.

   Run all:          dune exec bench/main.exe
   Run a subset:     dune exec bench/main.exe -- T6 T8 F2
                     (a tag selects its section, a bare letter T or F
                     every section with that letter; an unknown tag
                     exits 124)
   Machine-readable: dune exec bench/main.exe -- --json [tags]
                     additionally writes BENCH_explore.json (an Obs.Bench
                     document: one row per T5 persist count and T6-T9/T12
                     search), so the perf trajectory is tracked across
                     changes.

   The paper (PODC'18) has no empirical evaluation; these benchmarks are
   the evaluation a systems reader would expect, with the expected shapes
   documented in DESIGN.md. *)

(* {1 machine-readable output (--json)} *)

(* the running section's tag and layer, stamped on every row it records *)
let current = ref ("", Obs.Bench.Native)
let rows = ref []

let record name fields =
  let section, layer = !current in
  rows := Obs.Bench.row layer ~section name fields :: !rows

(* wall seconds (monotonic clock) and the process's user+sys CPU seconds
   ([Unix.times], every domain) spent in [f]: on a shared host a slow
   search shows as inflated CPU time, not only as a long wall time *)
let timed f =
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let c0 = cpu () and t0 = Obs.Clock.now_s () in
  let r = f () in
  (r, (Obs.Clock.now_s () -. t0, cpu () -. c0))

let record_explore name ~scenario ~nprocs ~ops ~jobs ~dedup ?(sym = false) ~mode
    ?(persist = "instant") ?(flushes = 0) ?(fences = 0) (stats : Machine.Explore.stats)
    (seconds, cpu_s) =
  let open Obs.Json in
  record name
    [
      ("scenario", Str scenario);
      ("nprocs", Int nprocs);
      ("ops", Int ops);
      ("jobs", Int jobs);
      ("dedup", Bool dedup);
      ("symmetry", Bool sym);
      ("mode", Str mode);
      ("persist", Str persist);
      ("flushes", Int flushes);
      ("fences", Int fences);
      ("terminals", Int stats.Machine.Explore.terminals);
      ("nodes", Int stats.Machine.Explore.nodes);
      ("dup", Int stats.Machine.Explore.dup);
      ("seconds", Num seconds);
      ("cpu_s", Num cpu_s);
      ("nodes_per_sec", Obs.Bench.per_sec stats.Machine.Explore.nodes seconds);
      ("terminals_per_sec", Obs.Bench.per_sec stats.Machine.Explore.terminals seconds);
    ]

let section tag title = Printf.printf "\n== %s: %s ==\n%!" tag title

let ratio a b = Printf.sprintf "%.2fx" (a /. b)

(* {1 T5: shared-access (persist-event) counts per operation} *)

(* In the paper's model every shared access is immediately persistent, so
   the number of shared accesses per operation is the model's analogue of
   flush complexity.  Measured by running one operation solo on a fresh
   object and reading the memory statistics. *)
let t5 () =
  section "T5" "shared accesses per operation (persist events), vs process count N";
  let measure ~nprocs build =
    let sim = Machine.Sim.create ~nprocs () in
    let script = build sim in
    Machine.Sim.set_script sim 0 script;
    Nvm.Memory.reset_stats (Machine.Sim.mem sim);
    (match Machine.Schedule.run sim (Machine.Schedule.round_robin ()) with
    | Machine.Schedule.Completed -> ()
    | _ -> failwith "t5: did not complete");
    let st = Nvm.Memory.stats (Machine.Sim.mem sim) in
    st.Nvm.Memory.reads + st.Nvm.Memory.writes + st.Nvm.Memory.rmws
  in
  let rows =
    [
      ( "register WRITE",
        fun sim ->
          let i = Objects.Rw_obj.make sim ~name:"R" in
          [ (i, "WRITE", Machine.Sim.Args [| Workload.Opgen.tagged 0 1 |]) ] );
      ( "register READ",
        fun sim ->
          let i = Objects.Rw_obj.make sim ~name:"R" in
          [ (i, "READ", Machine.Sim.Args [||]) ] );
      ( "cas CAS (success)",
        fun sim ->
          let i = Objects.Cas_obj.make sim ~name:"C" in
          [ Workload.Opgen.cas_fixed ~pid:0 i ~old:Nvm.Value.Null ~seq:1 ] );
      ( "tas T&S (win)",
        fun sim ->
          let i = Objects.Tas_obj.make sim ~name:"T" in
          [ (i, "T&S", Machine.Sim.Args [||]) ] );
      ( "counter INC",
        fun sim ->
          let i = Objects.Counter_obj.make sim ~name:"K" in
          [ (i, "INC", Machine.Sim.Args [||]) ] );
      ( "counter READ",
        fun sim ->
          let i = Objects.Counter_obj.make sim ~name:"K" in
          [ (i, "READ", Machine.Sim.Args [||]) ] );
      ( "elect ELECT (slot 0)",
        fun sim ->
          let i = Objects.Elect_obj.make sim ~name:"E" in
          [ (i, "ELECT", Machine.Sim.Args [||]) ] );
      ( "faa FAA",
        fun sim ->
          let i = Objects.Faa_obj.make sim ~name:"F" in
          [ (i, "FAA", Machine.Sim.Args [| Nvm.Value.Int 1 |]) ] );
      ( "stack PUSH",
        fun sim ->
          let i = Objects.Stack_obj.make sim ~name:"S" in
          [ (i, "PUSH", Machine.Sim.Args [| Nvm.Value.Int 1 |]) ] );
      ( "stack PUSH+POP",
        fun sim ->
          let i = Objects.Stack_obj.make sim ~name:"S" in
          [ (i, "PUSH", Machine.Sim.Args [| Nvm.Value.Int 1 |]); (i, "POP", Machine.Sim.Args [||]) ] );
      ( "queue ENQ+DEQ",
        fun sim ->
          let i = Objects.Queue_obj.make sim ~name:"Q" in
          [ (i, "ENQ", Machine.Sim.Args [| Nvm.Value.Int 1 |]); (i, "DEQ", Machine.Sim.Args [||]) ] );
      ( "max WRITE_MAX (install)",
        fun sim ->
          let i = Objects.Max_register_obj.make sim ~name:"M" in
          [ (i, "WRITE_MAX", Machine.Sim.Args [| Nvm.Value.Int 5 |]) ] );
      ( "histogram RECORD",
        fun sim ->
          let i = Objects.Histogram_obj.make ~k:4 sim ~name:"H" in
          [ (i, "RECORD", Machine.Sim.Args [| Nvm.Value.Int 0 |]) ] );
      ( "histogram TOTAL (k=4)",
        fun sim ->
          let i = Objects.Histogram_obj.make ~k:4 sim ~name:"H" in
          [ (i, "TOTAL", Machine.Sim.Args [||]) ] );
    ]
  in
  Printf.printf "  %-26s %8s %8s %8s
%!" "operation" "N=2" "N=4" "N=8";
  List.iter
    (fun (name, build) ->
      let a2 = measure ~nprocs:2 build in
      let a4 = measure ~nprocs:4 build in
      let a8 = measure ~nprocs:8 build in
      List.iter
        (fun (n, a) ->
          record (Printf.sprintf "%s N=%d" name n)
            Obs.Json.[ ("op", Str name); ("nprocs", Int n); ("accesses", Int a) ])
        [ (2, a2); (4, a4); (8, a8) ];
      Printf.printf "  %-26s %8d %8d %8d
%!" name a2 a4 a8)
    rows

(* {1 T6: work-stealing jobs scaling (incremental checking)} *)

(* The work-stealing engine on the CI speedup gate's instance (register
   3x3, process 0 crashes once, depth 100; ~0.8M nodes, seconds per row,
   so run-to-run noise stays well below a real change): wall-clock and
   nodes/sec at 1/2/4 domains, with the shared sharded visited store and
   incremental checking on throughout.  Every search starts from a
   compacted heap, each row reports the median of three searches (taken
   in interleaved rounds), and the speedup is the ratio of those
   medians.  Next to each median's wall time the row prints the
   process's user+sys CPU seconds over that search, and CPU/wall: on a
   shared host a slow jobs-1 search shows as inflated CPU time (CPU/wall
   stays ~1), not as a real speedup.  Statistics must be
   identical down every column: the partition of the tree into stolen
   subtree tasks may vary, the counted tree may not.  Speedup needs real
   cores (see [domains_available] in the JSON); on a narrower host the
   higher rows measure oversubscription, which after this rearchitecture
   should cost percents, not multiples. *)
let t6 () =
  section "T6" "explore jobs scaling, work-stealing (register, 3 procs, 3 ops, 1 crash)";
  let nprocs = 3 and ops = 3 and repeats = 3 in
  let scen = Workload.Scenarios.register ~nprocs ~ops () in
  let build () =
    let sim = Machine.Sim.create ~nprocs () in
    scen.Workload.Trial.build sim;
    sim
  in
  let cfg =
    { Machine.Explore.default_config with max_steps = 100; max_crashes = 1; crash_procs = [ 0 ] }
  in
  (* one timed search; the earlier sections and searches leave a large
     fragmented major heap that would throttle the allocation-heavy
     search, so each starts from a compacted one *)
  let search jobs =
    let sim = build () in
    Gc.compact ();
    let (viol, stats), t =
      timed (fun () ->
          Machine.Explore.find_violation ~cfg ~jobs ~dedup:true
            ~check_mode:(`Incremental (Workload.Check.nrl_incremental ()))
            ~check:Workload.Check.nrl_violation sim)
    in
    assert (viol = None);
    (stats, t)
  in
  Printf.printf "  domains available: %d\n%!" (Domain.recommended_domain_count ());
  Printf.printf "  %-8s %12s %10s %10s %10s %9s %12s %10s\n%!" "jobs" "nodes" "dup" "seconds"
    "cpu s" "cpu/wall" "nodes/s" "speedup";
  let jobs_rows = [ 1; 2; 4 ] in
  (* the rows' searches interleave, so host drift over the section's
     minute lands on every row alike *)
  let rounds = List.init repeats (fun _ -> List.map search jobs_rows) in
  let base = ref nan in
  List.iteri
    (fun i jobs ->
      let runs = List.map (fun round -> List.nth round i) rounds in
      let stats = fst (List.hd runs) in
      List.iter (fun (s, _) -> assert (s = stats)) runs;
      (* the median by wall time, with that search's CPU time *)
      let dt, cpu = List.nth (List.sort compare (List.map snd runs)) (repeats / 2) in
      if jobs = 1 then base := dt;
      Printf.printf "  %-8d %12d %10d %10.2f %10.2f %9.2f %12.0f %9.2fx\n%!" jobs
        stats.Machine.Explore.nodes stats.Machine.Explore.dup dt cpu (cpu /. dt)
        (float_of_int stats.Machine.Explore.nodes /. dt)
        (!base /. dt);
      record_explore
        (Printf.sprintf "register jobs=%d" jobs)
        ~scenario:"register" ~nprocs ~ops ~jobs ~dedup:true ~mode:"check-incremental" stats
        (dt, cpu))
    jobs_rows

(* {1 T8: process-symmetry quotienting on an exhaustive symmetric instance} *)

(* A scenario the detector accepts: every process runs the register
   row's symmetric script (WRITE of its own tagged value, then READ) on
   one recoverable register, whose recovery is pid-oblivious — so the
   full symmetric group applies even with crashes enabled (crash set =
   all processes).
   The quotient explores one representative per orbit; the uncanonical
   run is the ground truth the verdict is pinned against. *)
let t8 () =
  section "T8" "process-symmetry quotienting (rw, 4 procs, 2 ops each, 1 crash)";
  Gc.compact ();
  let nprocs = 4 and ops = 2 in
  let build () =
    let sim = Machine.Sim.create ~nprocs () in
    ignore (Workload.Scenarios.install_symmetric "register" sim ~nprocs);
    sim
  in
  let cfg =
    {
      Machine.Explore.default_config with
      max_steps = 400;
      max_crashes = 1;
      crash_procs = [ 0; 1; 2; 3 ];
    }
  in
  Printf.printf "  %-10s %12s %10s %12s %10s %10s %12s\n%!" "symmetry" "nodes" "dup"
    "terminals" "seconds" "cpu s" "nodes/s";
  let run ~symmetry =
    let (viol, stats), ((dt, cpu) as t) =
      timed (fun () ->
          Machine.Explore.find_violation ~cfg ~dedup:true ~symmetry
            ~check_mode:(`Incremental (Workload.Check.nrl_incremental ()))
            ~check:Workload.Check.nrl_violation (build ()))
    in
    assert (viol = None);
    assert (stats.Machine.Explore.truncated = 0);
    Printf.printf "  %-10b %12d %10d %12d %10.2f %10.2f %12.0f\n%!" symmetry
      stats.Machine.Explore.nodes stats.Machine.Explore.dup
      stats.Machine.Explore.terminals dt cpu
      (float_of_int stats.Machine.Explore.nodes /. dt);
    record_explore
      (Printf.sprintf "rw-symmetric symmetry=%b" symmetry)
      ~scenario:"rw-symmetric" ~nprocs ~ops ~jobs:1 ~dedup:true ~sym:symmetry
      ~mode:"check-incremental" stats t;
    stats.Machine.Explore.nodes
  in
  let off = run ~symmetry:false in
  let on_ = run ~symmetry:true in
  Printf.printf "  state-space reduction:  %s\n%!"
    (ratio (float_of_int off) (float_of_int on_))

(* {1 T7: enumeration and check-mode throughput (1 domain)} *)

(* Register 3x1 at jobs = 1, without dedup (T6's 3x3 instance explodes
   without it): raw enumeration (no checking), then prefix-shared
   incremental NRL checking vs re-checking every terminal from scratch.  Statistics are identical across the three rows — only
   the rates move. *)
let t7 () =
  section "T7" "enumeration, incremental vs terminal (register, 3 procs, 1 op, 1 crash)";
  Gc.compact ();
  let nprocs = 3 and ops = 1 in
  let scen = Workload.Scenarios.register ~nprocs ~ops () in
  let build () =
    let sim = Machine.Sim.create ~nprocs () in
    scen.Workload.Trial.build sim;
    sim
  in
  let cfg =
    { Machine.Explore.default_config with max_steps = 100; max_crashes = 1; crash_procs = [ 0 ] }
  in
  Printf.printf "  %-20s %12s %10s %10s %10s %12s %12s\n%!" "mode" "nodes" "terminals"
    "seconds" "cpu s" "nodes/s" "terminals/s";
  let run ~mode =
    let stats, ((dt, cpu) as t) =
      timed @@ fun () ->
      match mode with
      | "dfs" -> Machine.Explore.dfs ~cfg ~on_terminal:ignore (build ())
      | "check-terminal" ->
        let viol, stats =
          Machine.Explore.find_violation ~cfg ~check:Workload.Check.nrl_violation (build ())
        in
        assert (viol = None);
        stats
      | "check-incremental" ->
        let viol, stats =
          Machine.Explore.find_violation ~cfg
            ~check_mode:(`Incremental (Workload.Check.nrl_incremental ()))
            ~check:Workload.Check.nrl_violation (build ())
        in
        assert (viol = None);
        stats
      | _ -> assert false
    in
    Printf.printf "  %-20s %12d %10d %10.2f %10.2f %12.0f %12.0f\n%!" mode
      stats.Machine.Explore.nodes stats.Machine.Explore.terminals dt cpu
      (float_of_int stats.Machine.Explore.nodes /. dt)
      (float_of_int stats.Machine.Explore.terminals /. dt);
    record_explore ("register " ^ mode) ~scenario:"register" ~nprocs ~ops ~jobs:1
      ~dedup:false ~mode stats t;
    float_of_int stats.Machine.Explore.nodes /. dt
  in
  ignore (run ~mode:"dfs");
  let term = run ~mode:"check-terminal" in
  let inc = run ~mode:"check-incremental" in
  Printf.printf "  incremental vs terminal check:  %s\n%!" (ratio inc term)

(* {1 T9: persistency-model cost (instant vs explicit)} *)

(* The explicit-persist model grows the schedule tree twice over: flush
   pseudo-ops are extra interleaving points, and every full-system crash
   fans out into one branch per subset of the dirty cells.  Both runs
   dedup (the explicit space is intractable without it), so the node
   counts compare quotiented state-space sizes; the flush/fence columns
   are the persist events executed across the whole search. *)
let t9 () =
  section "T9" "persistency-model cost (register, 2 procs, 2 ops, 1 crash, dedup)";
  Gc.compact ();
  let nprocs = 2 and ops = 2 in
  let scen = Workload.Scenarios.register ~nprocs ~ops () in
  let cfg =
    { Machine.Explore.default_config with max_steps = 100; max_crashes = 1; crash_procs = [ 0 ] }
  in
  Printf.printf "  %-10s %10s %10s %10s %10s %10s %10s %12s\n%!" "persist" "nodes"
    "terminals" "flushes" "fences" "seconds" "cpu s" "nodes/s";
  let run ~persist =
    let name = match persist with Nvm.Memory.Instant -> "instant" | Explicit -> "explicit" in
    let sim = Machine.Sim.create ~persist ~nprocs () in
    scen.Workload.Trial.build sim;
    let obs = Obs.Metrics.create () in
    let (viol, stats), ((dt, cpu) as t) =
      timed (fun () ->
          Machine.Explore.find_violation ~cfg ~dedup:true ~obs
            ~check:Workload.Check.nrl_violation sim)
    in
    assert (viol = None);
    let counter n =
      match Obs.Metrics.view obs n with Some (Obs.Metrics.Counter v) -> v | _ -> 0
    in
    let flushes = counter Obs.Names.sim_flushes
    and fences = counter Obs.Names.sim_fences in
    Printf.printf "  %-10s %10d %10d %10d %10d %10.2f %10.2f %12.0f\n%!" name
      stats.Machine.Explore.nodes stats.Machine.Explore.terminals flushes fences dt cpu
      (float_of_int stats.Machine.Explore.nodes /. dt);
    record_explore ("register " ^ name) ~scenario:"register" ~nprocs ~ops ~jobs:1 ~dedup:true
      ~mode:"check-terminal" ~persist:name ~flushes ~fences stats t;
    float_of_int stats.Machine.Explore.nodes
  in
  let instant = run ~persist:Nvm.Memory.Instant in
  let explicit = run ~persist:Nvm.Memory.Explicit in
  Printf.printf "  explicit vs instant state-space: %s\n%!" (ratio explicit instant)

(* {1 T12: recoverable synchronisation primitives} *)

(* Small exhaustive instances of each sync scenario, explored clean
   under both persistency models with one full crash allowed: the
   sync-layer analogue of the T9 register rows.  The native mutex and
   consensus latency rows of T12 are `nrlsim bench-native`'s. *)
let t12 () =
  section "T12" "recoverable sync primitives: explore cost under both persist models";
  Gc.compact ();
  let instances =
    [
      ("mutex-pairs", Workload.Scenarios.mutex_pairs ~nprocs:2 (), 2, 2);
      ("consensus", Workload.Scenarios.consensus ~nprocs:2 ~ops:1 (), 2, 1);
      ("pcall", Workload.Scenarios.pcall ~nprocs:2 ~ops:2 (), 2, 2);
    ]
  in
  let cfg =
    { Machine.Explore.default_config with max_steps = 100; max_crashes = 1; crash_procs = [ 0 ] }
  in
  Printf.printf "  %-12s %-10s %10s %10s %10s %10s %10s %10s\n%!" "scenario" "persist" "nodes"
    "terminals" "flushes" "fences" "seconds" "cpu s";
  let run ~scenario ~scen ~nprocs ~ops ~persist =
    let name = match persist with Nvm.Memory.Instant -> "instant" | Explicit -> "explicit" in
    let sim = Machine.Sim.create ~persist ~nprocs () in
    scen.Workload.Trial.build sim;
    let obs = Obs.Metrics.create () in
    let (viol, stats), ((dt, cpu) as t) =
      timed (fun () ->
          Machine.Explore.find_violation ~cfg ~dedup:true ~obs
            ~check:Workload.Check.nrl_violation sim)
    in
    assert (viol = None);
    let counter n =
      match Obs.Metrics.view obs n with Some (Obs.Metrics.Counter v) -> v | _ -> 0
    in
    let flushes = counter Obs.Names.sim_flushes
    and fences = counter Obs.Names.sim_fences in
    Printf.printf "  %-12s %-10s %10d %10d %10d %10d %10.2f %10.2f\n%!" scenario name
      stats.Machine.Explore.nodes stats.Machine.Explore.terminals flushes fences dt cpu;
    record_explore (scenario ^ " " ^ name) ~scenario ~nprocs ~ops ~jobs:1 ~dedup:true
      ~mode:"check-terminal" ~persist:name ~flushes ~fences stats t
  in
  List.iter
    (fun (scenario, scen, nprocs, ops) ->
      run ~scenario ~scen ~nprocs ~ops ~persist:Nvm.Memory.Instant;
      run ~scenario ~scen ~nprocs ~ops ~persist:Nvm.Memory.Explicit)
    instances

(* {1 F1: recovery latency vs crash position} *)

let f1 () =
  section "F1" "recovery latency vs crash position (real runtime, 1 domain)";
  (* pre-build arrays of crashed objects, then time only the recovery
     calls: no setup noise in the measured region *)
  let batch = 20_000 in
  Printf.printf "  WRITE (Algorithm 1), crash position -> recovery ns/op:\n";
  for k = 0 to 3 do
    let objs =
      Array.init batch (fun _ ->
          let r = Runtime.Rrw.create ~nprocs:2 (0, 0) in
          let cp = Runtime.Crash.create () in
          Runtime.Crash.arm cp k;
          (try Runtime.Rrw.write ~cp r ~pid:0 (0, 1) with Runtime.Crash.Crashed -> ());
          r)
    in
    let t0 = Obs.Clock.now_s () in
    Array.iter (fun r -> Runtime.Rrw.write_recover r ~pid:0 (0, 1)) objs;
    let dt = (Obs.Clock.now_s () -. t0) /. float_of_int batch *. 1e9 in
    Printf.printf "    crash@%d: %8.1f ns\n%!" k dt
  done;
  Printf.printf "  T&S (Algorithm 3), solo, crash position -> recovery ns/op:\n";
  for k = 0 to 7 do
    let objs =
      Array.init batch (fun _ ->
          let t = Runtime.Rtas.create ~nprocs:1 in
          let cp = Runtime.Crash.create () in
          Runtime.Crash.arm cp k;
          (try ignore (Runtime.Rtas.test_and_set ~cp t ~pid:0)
           with Runtime.Crash.Crashed -> ());
          t)
    in
    let t0 = Obs.Clock.now_s () in
    Array.iter (fun t -> ignore (Runtime.Rtas.recover t ~pid:0)) objs;
    let dt = (Obs.Clock.now_s () -. t0) /. float_of_int batch *. 1e9 in
    Printf.printf "    crash@%d: %8.1f ns\n%!" k dt
  done;
  Printf.printf "  CAS (Algorithm 2), crash position -> recovery ns/op (N=4):\n";
  for k = 0 to 1 do
    let objs =
      Array.init batch (fun _ ->
          let c = Runtime.Rcas.create ~nprocs:4 0 in
          let cp = Runtime.Crash.create () in
          Runtime.Crash.arm cp k;
          (try ignore (Runtime.Rcas.cas ~cp c ~pid:0 ~old:0 ~new_:1)
           with Runtime.Crash.Crashed -> ());
          c)
    in
    let t0 = Obs.Clock.now_s () in
    Array.iter (fun c -> ignore (Runtime.Rcas.cas_recover c ~pid:0 ~old:0 ~new_:1)) objs;
    let dt = (Obs.Clock.now_s () -. t0) /. float_of_int batch *. 1e9 in
    Printf.printf "    crash@%d: %8.1f ns\n%!" k dt
  done

(* {1 F2: NRL checker cost vs history length} *)

let f2 () =
  section "F2" "NRL check cost vs history length (register scenario, 3 procs)";
  Printf.printf "  %-14s %10s %12s\n%!" "ops/process" "hist len" "check ms";
  List.iter
    (fun ops ->
      let scen = Workload.Scenarios.register ~nprocs:3 ~ops () in
      let sim = Machine.Sim.create ~seed:7 ~nprocs:3 () in
      scen.Workload.Trial.build sim;
      let policy = Machine.Schedule.random ~crash_prob:0.02 ~max_crashes:4 ~seed:99 () in
      ignore (Machine.Schedule.run sim policy);
      let h = Machine.Sim.history sim in
      let t0 = Obs.Clock.now_s () in
      let reps = 50 in
      for _ = 1 to reps do
        ignore (Workload.Check.nrl sim)
      done;
      let dt = (Obs.Clock.now_s () -. t0) /. float_of_int reps *. 1e3 in
      Printf.printf "  %-14d %10d %12.3f\n%!" ops (History.length h) dt)
    [ 4; 8; 12; 16; 24; 32; 64; 128; 256 ]

(* {1 F4: TAS recovery blocking} *)

(* F4's crash-rate sweep is `nrlsim run tas -n 4` batches
   (EXPERIMENTS.md) *)
let f4 () =
  section "F4" "TAS: recovery blocking (simulator)";
  Printf.printf "  recovery blocking: p0 crashes after its base t&s while others sit\n";
  Printf.printf "  inside the doorway; p0's solo recovery must spin until they finish:\n";
  Printf.printf "  %-22s %12s\n%!" "concurrent processes" "solo steps";
  List.iter
    (fun n ->
      let sim = Machine.Sim.create ~seed:5 ~nprocs:n () in
      let inst = Objects.Tas_obj.make sim ~name:"T" in
      for p = 0 to n - 1 do
        Machine.Sim.set_script sim p [ (inst, "T&S", Machine.Sim.Args [||]) ]
      done;
      (* p0 runs through its base t&s, everyone else enters the doorway *)
      for _ = 1 to 7 do
        Machine.Sim.step sim 0
      done;
      for q = 1 to n - 1 do
        for _ = 1 to 4 do
          Machine.Sim.step sim q
        done
      done;
      Machine.Sim.crash sim 0;
      Machine.Sim.recover sim 0;
      let spins = ref 0 in
      let budget = 2000 in
      while !spins < budget && Machine.Sim.results sim 0 = [] do
        Machine.Sim.step sim 0;
        incr spins
      done;
      let blocked = Machine.Sim.results sim 0 = [] in
      Printf.printf "  %-22d %12s\n%!" n
        (if blocked then Printf.sprintf ">%d (blocked)" budget else string_of_int !spins))
    [ 2; 3; 4; 6 ]

(* {1 F5: exhaustive-exploration capacity} *)

(* How large an instance the bounded-exhaustive checker covers, and at
   what cost: terminal executions and wall-clock versus per-process
   operation count, register object, 2 processes, 1 crash. *)
let f5 () =
  section "F5" "exhaustive exploration capacity (register, 2 procs, 1 crash)";
  Printf.printf "  %-14s %14s %10s %12s
%!" "ops/process" "terminals" "nodes" "seconds";
  List.iter
    (fun ops ->
      let build () =
        let sim = Machine.Sim.create ~nprocs:2 () in
        let inst = Objects.Rw_obj.make sim ~name:"R" in
        for p = 0 to 1 do
          Machine.Sim.set_script sim p
            (List.init ops (fun k ->
                 if k mod 2 = 0 then
                   (inst, "WRITE", Machine.Sim.Args [| Workload.Opgen.tagged p (k + 1) |])
                 else (inst, "READ", Machine.Sim.Args [||])))
        done;
        sim
      in
      let cfg =
        {
          Machine.Explore.default_config with
          max_steps = 60 * ops;
          max_crashes = 1;
          crash_procs = [ 0 ];
        }
      in
      let t0 = Obs.Clock.now_s () in
      let viol, stats =
        Machine.Explore.find_violation ~cfg ~check:Workload.Check.nrl_violation (build ())
      in
      assert (viol = None);
      Printf.printf "  %-14d %14d %10d %12.2f
%!" ops stats.Machine.Explore.terminals
        stats.Machine.Explore.nodes
        (Obs.Clock.now_s () -. t0))
    [ 1; 2 ];
  Printf.printf
    "  (3 ops/process: ~6.8M terminals, minutes of CPU and GBs of heap --\n";
  Printf.printf
    "   reproduce explicitly with `nrlsim explore register --ops 3`)\n%!"

(* every section in run order: its tag, the layer its rows belong to, and
   the function that prints (and records) it *)
let sections =
  Obs.Bench.
    [
      ("T5", Machine, t5);
      ("T6", Explore, t6);
      ("T7", Explore, t7);
      ("T8", Explore, t8);
      ("T9", Explore, t9);
      ("T12", Explore, t12);
      ("F1", Native, f1);
      ("F2", Machine, f2);
      ("F4", Machine, f4);
      ("F5", Explore, f5);
    ]

(* a tag selects the section it names; a bare letter every section with
   that letter *)
let selects arg tag = arg = tag || arg = String.sub tag 0 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  let selected = List.filter (fun a -> a <> "--json") args in
  let tags = List.map (fun (tag, _, _) -> tag) sections in
  List.iter
    (fun a ->
      if not (List.exists (selects a) tags) then begin
        Printf.eprintf "bench: unknown section %S; valid tags: %s, or a bare T or F\n" a
          (String.concat " " tags);
        exit 124
      end)
    selected;
  let run =
    List.filter
      (fun (tag, _, _) -> selected = [] || List.exists (fun a -> selects a tag) selected)
      sections
  in
  Printf.printf "NRL benchmark harness (tables T5-T9 + T12, figures F1, F2, F4, F5)\n";
  Printf.printf "domains available: %d\n%!" (Domain.recommended_domain_count ());
  List.iter
    (fun (tag, layer, f) ->
      current := (tag, layer);
      f ())
    run;
  if json then begin
    let path = "BENCH_explore.json" in
    Obs.Bench.write ~path
      {
        Obs.Bench.config =
          [ ("sections", Obs.Json.Arr (List.map (fun (tag, _, _) -> Obs.Json.Str tag) run)) ];
        rows = List.rev !rows;
      };
    Printf.printf "\nwrote %s\n%!" path
  end;
  Printf.printf "\ndone.\n%!"
