(* Benchmark harness: regenerates every table (T1-T9, T12) and figure series
   (F1-F5) defined in DESIGN.md section 5, plus the correctness experiment
   suite (E1-E6) recorded in EXPERIMENTS.md.

   Run all:          dune exec bench/main.exe
   Run a subset:     dune exec bench/main.exe -- T1 T3 F2 E
   Machine-readable: dune exec bench/main.exe -- --json [tags]
                     additionally writes BENCH_explore.json (schema
                     Workload.Bench_json: every ns/op estimate, the T5
                     persist-event counts and the T6/T7/T8/T9/T12 explore
                     rows), so the perf trajectory is tracked across PRs.

   The paper (PODC'18) has no empirical evaluation; these benchmarks are
   the evaluation a systems reader would expect, with the expected shapes
   documented in DESIGN.md. *)

let selected = ref []

(* {1 machine-readable output (--json)} *)

let json_requested = ref false
let current_section = ref ""
let json_ns : Workload.Bench_json.ns_row list ref = ref []
let json_persist : Workload.Bench_json.persist_row list ref = ref []
let json_explore : Workload.Bench_json.explore_row list ref = ref []

(* throughput sections record their rows as ns/op too: one latency axis
   for the whole document *)
let record_ns name ns =
  json_ns :=
    { Workload.Bench_json.ns_section = !current_section; ns_name = name; ns_ns = ns }
    :: !json_ns

let record_rate name ops_per_sec =
  record_ns name (if ops_per_sec > 0. then 1e9 /. ops_per_sec else nan)

let record_explore ~sect ~scenario ~nprocs ~ops ~jobs ~dedup ?(sym = false) ~mode
    ?(persist = "instant") ?(flushes = 0) ?(fences = 0)
    (stats : Machine.Explore.stats) seconds =
  json_explore :=
    {
      Workload.Bench_json.er_section = sect;
      er_scenario = scenario;
      er_nprocs = nprocs;
      er_ops = ops;
      er_jobs = jobs;
      er_dedup = dedup;
      er_sym = sym;
      er_mode = mode;
      er_persist = persist;
      er_flushes = flushes;
      er_fences = fences;
      er_terminals = stats.Machine.Explore.terminals;
      er_nodes = stats.Machine.Explore.nodes;
      er_dup = stats.Machine.Explore.dup;
      er_seconds = seconds;
    }
    :: !json_explore

let write_json path =
  Workload.Bench_json.write ~path
    {
      Workload.Bench_json.domains_available = Domain.recommended_domain_count ();
      ns_per_op = List.rev !json_ns;
      persist_events = List.rev !json_persist;
      explore = List.rev !json_explore;
    };
  Printf.printf "\nwrote %s\n%!" path

let want tag =
  !selected = []
  || List.exists
       (fun s -> String.length s > 0 && String.length s <= String.length tag
                 && String.sub tag 0 (String.length s) = s)
       !selected

let section tag title =
  current_section := tag;
  Printf.printf "\n== %s: %s ==\n%!" tag title

(* {1 ns/op for a thunk}

   Timed by the one sampler the native suite also uses
   ([Runtime.Bench_native.estimate_ns]: median of calibrated batches on
   the monotonic clock), so rows both documents name are comparable. *)

let estimate_ns name fn =
  let ns = Runtime.Bench_native.estimate_ns (fun () -> ignore (Sys.opaque_identity (fn ()))) in
  record_ns name ns;
  ns

let row3 a b c = Printf.printf "  %-34s %14s %14s\n%!" a b c
let ns v = Printf.sprintf "%.1f ns" v
let ratio a b = Printf.sprintf "%.2fx" (a /. b)

(* {1 T1: recoverable vs plain register latency} *)

let t1 () =
  section "T1" "latency of recoverable vs plain register operations (1 domain)";
  let nprocs = 4 in
  let plain = Runtime.Rrw.Plain.create (0, 0) in
  let reco = Runtime.Rrw.create ~nprocs (0, 0) in
  let seq = ref 0 in
  let plain_write =
    estimate_ns "plain write" (fun () ->
        incr seq;
        Runtime.Rrw.Plain.write plain (0, !seq))
  in
  let reco_write =
    estimate_ns "recoverable write" (fun () ->
        incr seq;
        Runtime.Rrw.write reco ~pid:0 (0, !seq))
  in
  let plain_read = estimate_ns "plain read" (fun () -> Runtime.Rrw.Plain.read plain) in
  let reco_read = estimate_ns "recoverable read" (fun () -> Runtime.Rrw.read reco) in
  row3 "operation" "plain" "recoverable";
  row3 "WRITE" (ns plain_write) (ns reco_write);
  row3 "READ" (ns plain_read) (ns reco_read);
  row3 "WRITE overhead" "" (ratio reco_write plain_write);
  row3 "READ overhead" "" (ratio reco_read plain_read)

(* {1 T2: recoverable vs plain CAS / TAS latency} *)

let t2 () =
  section "T2" "latency of recoverable vs plain CAS and TAS (1 domain)";
  let nprocs = 4 in
  (* the rows bench-native also reports, timed through its own thunks *)
  let shared = Runtime.Bench_native.latency_thunks () in
  let shared_ns name = estimate_ns name (List.assoc name shared) in
  let plain_cas = shared_ns "plain cas" in
  let reco_cas = shared_ns "recoverable cas" in
  (* failed-CAS path (read + compare only) *)
  let reco_c = Runtime.Rcas.create ~nprocs 0 in
  let reco_cas_fail =
    estimate_ns "recoverable cas (failing)" (fun () ->
        ignore (Runtime.Rcas.cas reco_c ~pid:1 ~old:(-1) ~new_:(-2)))
  in
  (* TAS: the lose path is repeatable; the win path needs a fresh object *)
  let lost = Runtime.Rtas.create ~nprocs in
  ignore (Runtime.Rtas.test_and_set lost ~pid:0);
  let reco_tas_lose =
    estimate_ns "recoverable t&s (lose path)" (fun () ->
        ignore (Runtime.Rtas.test_and_set lost ~pid:1))
  in
  let plain_alloc =
    estimate_ns "alloc plain tas" (fun () -> Runtime.Rtas.Plain.create ())
  in
  let plain_tas_win =
    estimate_ns "plain t&s (fresh)" (fun () ->
        Runtime.Rtas.Plain.test_and_set (Runtime.Rtas.Plain.create ()))
  in
  let reco_alloc = estimate_ns "alloc reco tas" (fun () -> Runtime.Rtas.create ~nprocs) in
  let reco_tas_win = shared_ns "recoverable t&s (fresh, win)" in
  (* native retry-loop objects vs their conventional counterparts *)
  let plain_faa = shared_ns "atomic faa" in
  let reco_faa = shared_ns "recoverable faa" in
  let plain_stack = Atomic.make [] in
  let plain_push_pop =
    estimate_ns "plain list stack" (fun () ->
        let l = Atomic.get plain_stack in
        Atomic.set plain_stack (1 :: l);
        match Atomic.get plain_stack with
        | _ :: tl -> Atomic.set plain_stack tl
        | [] -> ())
  in
  let rstack = Runtime.Rstack.create ~nprocs () in
  let reco_push_pop =
    estimate_ns "recoverable stack" (fun () ->
        ignore (Runtime.Rstack.push rstack ~pid:0 1);
        ignore (Runtime.Rstack.pop rstack ~pid:0))
  in
  row3 "operation" "plain" "recoverable";
  row3 "CAS (success)" (ns plain_cas) (ns reco_cas);
  row3 "CAS (failure)" "-" (ns reco_cas_fail);
  row3 "CAS overhead" "" (ratio reco_cas plain_cas);
  row3 "T&S win (alloc-corrected)"
    (ns (plain_tas_win -. plain_alloc))
    (ns (reco_tas_win -. reco_alloc));
  row3 "T&S lose path" "-" (ns reco_tas_lose);
  row3 "FAA (native, via strict CAS)" (ns plain_faa) (ns reco_faa);
  row3 "stack push+pop (native)" (ns plain_push_pop) (ns reco_push_pop)

(* {1 T3: counter throughput scaling on real domains} *)

let t3 () =
  section "T3" "recoverable counter throughput vs domains (inc-only and 10% read)";
  let max_d = Runtime.Par.max_domains ~cap:8 () in
  Printf.printf "  %-8s %16s %16s %16s\n%!" "domains" "recoverable" "plain-array" "faa-atomic";
  let iters = 100_000 in
  let rec sweep d =
    if d <= max_d then begin
      let reco = Runtime.Rcounter.create ~nprocs:d in
      let r1 =
        Runtime.Par.run ~domains:d ~iters (fun ~pid ~i ->
            ignore i;
            Runtime.Rcounter.inc reco ~pid)
      in
      let plain = Runtime.Rcounter.Plain.create ~nprocs:d in
      let r2 =
        Runtime.Par.run ~domains:d ~iters (fun ~pid ~i ->
            ignore i;
            Runtime.Rcounter.Plain.inc plain ~pid)
      in
      let faa = Runtime.Rcounter.Faa.create () in
      let r3 =
        Runtime.Par.run ~domains:d ~iters (fun ~pid ~i ->
            ignore pid;
            ignore i;
            Runtime.Rcounter.Faa.inc faa)
      in
      Printf.printf "  %-8d %13.0f/s %13.0f/s %13.0f/s\n%!" d r1.Runtime.Par.ops_per_sec
        r2.Runtime.Par.ops_per_sec r3.Runtime.Par.ops_per_sec;
      record_rate (Printf.sprintf "counter inc recoverable d=%d" d) r1.Runtime.Par.ops_per_sec;
      record_rate (Printf.sprintf "counter inc plain-array d=%d" d) r2.Runtime.Par.ops_per_sec;
      record_rate (Printf.sprintf "counter inc faa-atomic d=%d" d) r3.Runtime.Par.ops_per_sec;
      sweep (d * 2)
    end
  in
  sweep 1;
  Printf.printf "  (90%% inc / 10%% read, recoverable):\n%!";
  let rec sweep2 d =
    if d <= max_d then begin
      let reco = Runtime.Rcounter.create ~nprocs:d in
      let r =
        Runtime.Par.run ~domains:d ~iters (fun ~pid ~i ->
            if i mod 10 = 9 then ignore (Runtime.Rcounter.read reco ~pid)
            else Runtime.Rcounter.inc reco ~pid)
      in
      Printf.printf "  %-8d %13.0f/s\n%!" d r.Runtime.Par.ops_per_sec;
      record_rate (Printf.sprintf "counter 90/10 recoverable d=%d" d) r.Runtime.Par.ops_per_sec;
      sweep2 (d * 2)
    end
  in
  sweep2 1

(* {1 T4: simulator throughput and NRL-check cost} *)

let t4 () =
  section "T4" "simulator step throughput and NRL-check cost";
  let scen = Workload.Scenarios.register ~nprocs:3 ~ops:20 () in
  let t0 = Obs.Clock.now_s () in
  let total_steps = ref 0 in
  let trials = 50 in
  for seed = 1 to trials do
    let sim, _ = Workload.Trial.run ~seed ~crash_prob:0.02 scen in
    total_steps := !total_steps + Machine.Sim.total_steps sim
  done;
  let dt = Obs.Clock.now_s () -. t0 in
  Printf.printf "  machine steps/s (incl. NRL check per trial): %.0f (%d steps, %.2fs)\n%!"
    (float_of_int !total_steps /. dt)
    !total_steps dt;
  record_rate "machine step incl. NRL check" (float_of_int !total_steps /. dt);
  let t0 = Obs.Clock.now_s () in
  let steps = ref 0 in
  for seed = 1 to trials do
    let sim = Machine.Sim.create ~seed ~nprocs:3 () in
    scen.Workload.Trial.build sim;
    ignore (Machine.Schedule.run sim (Machine.Schedule.round_robin ()));
    steps := !steps + Machine.Sim.total_steps sim
  done;
  let dt = Obs.Clock.now_s () -. t0 in
  Printf.printf "  machine steps/s (stepping only):             %.0f\n%!"
    (float_of_int !steps /. dt);
  record_rate "machine step only" (float_of_int !steps /. dt)

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
          json_persist :=
            { Workload.Bench_json.pe_op = name; pe_nprocs = n; pe_accesses = a }
            :: !json_persist)
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
  let cpu_s () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let search jobs =
    let sim = build () in
    Gc.compact ();
    let c0 = cpu_s () and t0 = Obs.Clock.now_s () in
    let viol, stats =
      Machine.Explore.find_violation ~cfg ~jobs ~dedup:true
        ~check_mode:(`Incremental (Workload.Check.nrl_incremental ()))
        ~check:Workload.Check.nrl_violation sim
    in
    let dt = Obs.Clock.now_s () -. t0 and cpu = cpu_s () -. c0 in
    assert (viol = None);
    (stats, (dt, cpu))
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
      record_explore ~sect:"T6" ~scenario:"register" ~nprocs ~ops ~jobs ~dedup:true
        ~mode:"check-incremental" stats dt)
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
  Printf.printf "  %-10s %12s %10s %12s %10s %12s\n%!" "symmetry" "nodes" "dup" "terminals"
    "seconds" "nodes/s";
  let run ~symmetry =
    let t0 = Obs.Clock.now_s () in
    let viol, stats =
      Machine.Explore.find_violation ~cfg ~dedup:true ~symmetry
        ~check_mode:(`Incremental (Workload.Check.nrl_incremental ()))
        ~check:Workload.Check.nrl_violation (build ())
    in
    let dt = Obs.Clock.now_s () -. t0 in
    assert (viol = None);
    assert (stats.Machine.Explore.truncated = 0);
    Printf.printf "  %-10b %12d %10d %12d %10.2f %12.0f\n%!" symmetry
      stats.Machine.Explore.nodes stats.Machine.Explore.dup
      stats.Machine.Explore.terminals dt
      (float_of_int stats.Machine.Explore.nodes /. dt);
    record_explore ~sect:"T8" ~scenario:"rw-symmetric" ~nprocs ~ops ~jobs:1 ~dedup:true
      ~sym:symmetry ~mode:"check-incremental" stats dt;
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
  Printf.printf "  %-20s %12s %10s %10s %12s %12s\n%!" "mode" "nodes" "terminals" "seconds"
    "nodes/s" "terminals/s";
  let run ~mode =
    let t0 = Obs.Clock.now_s () in
    let stats =
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
    let dt = Obs.Clock.now_s () -. t0 in
    Printf.printf "  %-20s %12d %10d %10.2f %12.0f %12.0f\n%!" mode stats.Machine.Explore.nodes
      stats.Machine.Explore.terminals dt
      (float_of_int stats.Machine.Explore.nodes /. dt)
      (float_of_int stats.Machine.Explore.terminals /. dt);
    record_explore ~sect:"T7" ~scenario:"register" ~nprocs ~ops ~jobs:1 ~dedup:false ~mode
      stats dt;
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
  Printf.printf "  %-10s %10s %10s %10s %10s %10s %12s\n%!" "persist" "nodes" "terminals"
    "flushes" "fences" "seconds" "nodes/s";
  let run ~persist =
    let name = match persist with Nvm.Memory.Instant -> "instant" | Explicit -> "explicit" in
    let sim = Machine.Sim.create ~persist ~nprocs () in
    scen.Workload.Trial.build sim;
    let obs = Obs.Metrics.create () in
    let t0 = Obs.Clock.now_s () in
    let viol, stats =
      Machine.Explore.find_violation ~cfg ~dedup:true ~obs
        ~check:Workload.Check.nrl_violation sim
    in
    let dt = Obs.Clock.now_s () -. t0 in
    assert (viol = None);
    let counter n =
      match Obs.Metrics.view obs n with Some (Obs.Metrics.Counter v) -> v | _ -> 0
    in
    let flushes = counter Obs.Names.sim_flushes
    and fences = counter Obs.Names.sim_fences in
    Printf.printf "  %-10s %10d %10d %10d %10d %10.2f %12.0f\n%!" name
      stats.Machine.Explore.nodes stats.Machine.Explore.terminals flushes fences dt
      (float_of_int stats.Machine.Explore.nodes /. dt);
    record_explore ~sect:"T9" ~scenario:"register" ~nprocs ~ops ~jobs:1 ~dedup:true
      ~mode:"check-terminal" ~persist:name ~flushes ~fences stats dt;
    float_of_int stats.Machine.Explore.nodes
  in
  let instant = run ~persist:Nvm.Memory.Instant in
  let explicit = run ~persist:Nvm.Memory.Explicit in
  Printf.printf "  explicit vs instant state-space: %s\n%!" (ratio explicit instant)

(* {1 T12: recoverable synchronisation primitives} *)

let t12 () =
  section "T12"
    "recoverable sync primitives: explore cost (both persist models) + native latency";
  Gc.compact ();
  (* small exhaustive instances of each new scenario, explored clean
     under both persistency models with one full crash allowed — the
     sync-layer analogue of the T9 register rows *)
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
  Printf.printf "  %-12s %-10s %10s %10s %10s %10s %10s\n%!" "scenario" "persist" "nodes"
    "terminals" "flushes" "fences" "seconds";
  let run ~scenario ~scen ~nprocs ~ops ~persist =
    let name = match persist with Nvm.Memory.Instant -> "instant" | Explicit -> "explicit" in
    let sim = Machine.Sim.create ~persist ~nprocs () in
    scen.Workload.Trial.build sim;
    let obs = Obs.Metrics.create () in
    let t0 = Obs.Clock.now_s () in
    let viol, stats =
      Machine.Explore.find_violation ~cfg ~dedup:true ~obs
        ~check:Workload.Check.nrl_violation sim
    in
    let dt = Obs.Clock.now_s () -. t0 in
    assert (viol = None);
    let counter n =
      match Obs.Metrics.view obs n with Some (Obs.Metrics.Counter v) -> v | _ -> 0
    in
    let flushes = counter Obs.Names.sim_flushes
    and fences = counter Obs.Names.sim_fences in
    Printf.printf "  %-12s %-10s %10d %10d %10d %10d %10.2f\n%!" scenario name
      stats.Machine.Explore.nodes stats.Machine.Explore.terminals flushes fences dt;
    record_explore ~sect:"T12" ~scenario ~nprocs ~ops ~jobs:1 ~dedup:true
      ~mode:"check-terminal" ~persist:name ~flushes ~fences stats dt
  in
  List.iter
    (fun (scenario, scen, nprocs, ops) ->
      run ~scenario ~scen ~nprocs ~ops ~persist:Nvm.Memory.Instant;
      run ~scenario ~scen ~nprocs ~ops ~persist:Nvm.Memory.Explicit)
    instances;
  (* native twins, uncontended steady-state latency (1 domain) *)
  Printf.printf "\n";
  let m = Runtime.Rmutex.create ~nprocs:1 in
  let pm = Runtime.Rmutex.Plain.create () in
  let seq = ref 0 in
  let reco_mutex =
    estimate_ns "rmutex acquire+release" (fun () ->
        incr seq;
        ignore (Runtime.Rmutex.acquire m ~pid:0 ~seq:!seq);
        ignore (Runtime.Rmutex.release m ~pid:0 ~seq:!seq))
  in
  let plain_mutex =
    estimate_ns "plain lock acquire+release" (fun () ->
        ignore (Runtime.Rmutex.Plain.acquire pm ~pid:0);
        ignore (Runtime.Rmutex.Plain.release pm ~pid:0))
  in
  let c = Runtime.Rconsensus.create ~nprocs:1 in
  ignore (Runtime.Rconsensus.decide c ~pid:0 ~seq:0 7);
  let pc = Runtime.Rconsensus.Plain.create () in
  ignore (Runtime.Rconsensus.Plain.decide pc 7);
  let cseq = ref 0 in
  let reco_cons =
    estimate_ns "rconsensus decide (decided path)" (fun () ->
        incr cseq;
        ignore (Runtime.Rconsensus.decide c ~pid:0 ~seq:!cseq 9))
  in
  let plain_cons =
    estimate_ns "plain consensus decide (decided path)" (fun () ->
        ignore (Runtime.Rconsensus.Plain.decide pc 9))
  in
  row3 "" "plain" "recoverable";
  row3 "mutex acquire+release" (ns plain_mutex) (ns reco_mutex);
  row3 "consensus decide (decided)" (ns plain_cons) (ns reco_cons);
  Printf.printf "  recoverable mutex overhead: %s   consensus overhead: %s\n%!"
    (ratio reco_mutex plain_mutex) (ratio reco_cons plain_cons)

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

(* {1 F3: CAS helping-matrix recovery scan vs N (ablation)} *)

let f3 () =
  section "F3" "CAS recovery row-scan cost vs process count N (Algorithm 2 ablation)";
  Printf.printf "  %-6s %14s\n%!" "N" "recover ns";
  List.iter
    (fun n ->
      let c = Runtime.Rcas.create ~nprocs:n 0 in
      (* worst helpful case: the evidence sits in the last matrix slot,
         and C no longer holds p0's pair *)
      c.Runtime.Rcas.r.(Runtime.Pad.slot2 ~n 0 (n - 1)) <- 1;
      Atomic.set c.Runtime.Rcas.c (Runtime.Enc.pack ~id:1 999);
      let t =
        estimate_ns
          (Printf.sprintf "scan%d" n)
          (fun () -> ignore (Runtime.Rcas.cas_recover c ~pid:0 ~old:0 ~new_:1))
      in
      Printf.printf "  %-6d %14.1f\n%!" n t)
    [ 2; 4; 8; 16; 32; 64; 128 ]

(* {1 F4: TAS under crash rates; recovery blocking} *)

let f4 () =
  section "F4" "TAS: outcome vs crash rate, and recovery blocking (simulator)";
  Printf.printf "  crash-rate sweep (4 procs, 200 trials each):\n";
  Printf.printf "  %-12s %10s %10s %10s\n%!" "crash prob" "completed" "crashes" "NRL pass";
  List.iter
    (fun p ->
      let scen = Workload.Scenarios.tas ~nprocs:4 () in
      let s = Workload.Trial.batch ~crash_prob:p ~max_crashes:8 ~trials:200 scen in
      Printf.printf "  %-12.2f %10d %10d %9d%%\n%!" p s.Workload.Trial.completed
        s.Workload.Trial.total_crashes
        (100 * s.Workload.Trial.passed / s.Workload.Trial.trials))
    [ 0.0; 0.02; 0.05; 0.1; 0.2 ];
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

(* {1 E-suite: correctness experiments (recorded in EXPERIMENTS.md)} *)

let e_suite () =
  section "E1-E4" "NRL pass rates for the paper's algorithms (must be 100%)";
  Printf.printf "  %-26s %10s %10s %10s\n%!" "scenario" "trials" "passed" "crashes";
  List.iter
    (fun scen ->
      let s = Workload.Trial.batch ~crash_prob:0.08 ~max_crashes:6 ~trials:300 scen in
      Printf.printf "  %-26s %10d %10d %10d\n%!" scen.Workload.Trial.scen_name
        s.Workload.Trial.trials s.Workload.Trial.passed s.Workload.Trial.total_crashes)
    (Workload.Scenarios.all_paper ~nprocs:3 ()
    @ [
        Workload.Scenarios.elect ~nprocs:3 ();
        Workload.Scenarios.faa ~nprocs:3 ();
        Workload.Scenarios.stack ~nprocs:3 ();
        Workload.Scenarios.histogram ~nprocs:3 ();
        Workload.Scenarios.queue ~nprocs:3 ();
        Workload.Scenarios.max_register ~nprocs:3 ();
      ]);
  section "E5" "Theorem 4: valency analysis and candidate refutation";
  Format.printf "%a@." Impossibility.Theorem.pp_report
    (Impossibility.Theorem.analyze_paper_algorithm ());
  List.iter
    (fun c ->
      Format.printf "%a@." Impossibility.Theorem.pp_report
        (Impossibility.Theorem.analyze_candidate c))
    Impossibility.Candidates.all;
  section "E6" "NRL violation detection for naive baselines";
  Printf.printf "  %-30s %10s %10s\n%!" "baseline" "trials" "violations";
  List.iter
    (fun scen ->
      let s = Workload.Trial.batch ~crash_prob:0.15 ~max_crashes:6 ~trials:300 scen in
      Printf.printf "  %-30s %10d %10d\n%!" scen.Workload.Trial.scen_name
        s.Workload.Trial.trials s.Workload.Trial.failed)
    [
      Workload.Scenarios.naive_rw ~strategy:`Optimistic ();
      Workload.Scenarios.naive_rw ~strategy:`Reexecute ();
      Workload.Scenarios.naive_cas ~strategy:`Optimistic ();
      Workload.Scenarios.naive_cas ~strategy:`Reexecute ();
      Workload.Scenarios.naive_tas ~nprocs:3 ();
    ];
  Printf.printf "  (naive-rw-reexec fails by *value resurrection*: a re-executed write\n";
  Printf.printf "   makes an already-overwritten value reappear; reads observe a,b,a.\n";
  Printf.printf "   Algorithm 1's conditional recovery exists to close this window.)\n%!"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  json_requested := List.mem "--json" args;
  selected := List.filter (fun a -> a <> "--json") args;
  Printf.printf "NRL benchmark harness (tables T1-T9 + T12, figures F1-F5, experiments E1-E6)\n";
  Printf.printf "domains available: %d\n%!" (Domain.recommended_domain_count ());
  if want "T1" then t1 ();
  if want "T2" then t2 ();
  if want "T3" then t3 ();
  if want "T4" then t4 ();
  if want "T5" then t5 ();
  if want "T6" then t6 ();
  if want "T7" then t7 ();
  if want "T8" then t8 ();
  if want "T9" then t9 ();
  if want "T12" then t12 ();
  if want "F1" then f1 ();
  if want "F2" then f2 ();
  if want "F3" then f3 ();
  if want "F4" then f4 ();
  if want "F5" then f5 ();
  if want "E" then e_suite ();
  if !json_requested then write_json "BENCH_explore.json";
  Printf.printf "\ndone.\n%!"
