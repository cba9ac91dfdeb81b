(* nrlbench: one benchmark for the verify and serve paths.

     nrlbench.exe --workload NAME [--seed N] [--seconds S] [--trace FILE] [--smoke]

   One invocation runs one workload in a fresh process for [--seconds] of
   measured time, checks every output, and prints one "name value unit"
   line per metric and then, as the last line of standard output, one
   JSON object with the keys correct, attempted, failed and metrics.
   Without --trace the metrics are the end-to-end ones.  With --trace
   FILE the run attaches the libraries' metric registries, records the
   bench's own spans, runs the layer probes and reports the per-layer
   metrics; the nrl-trace/1 stream goes to FILE when the run ends.
   --smoke swaps in tiny instances (the runtest smoke).  A wrong result
   exits 2, a usage error 124.

   Layers are measured from outside only, through public functions and
   the registries they already fill.  README.md in this directory maps
   each per-layer metric to the end-to-end metric it should move. *)

module Explore = Machine.Explore
module Fingerprint = Machine.Fingerprint
module Sim = Machine.Sim
module Metrics = Obs.Metrics
module Engine = Service.Engine
module Shard = Service.Shard
module Robjects = Service.Robjects
module Latency = Service.Latency
module Torture = Runtime.Torture

(* {1 Metric names} *)

(* Every workload prints every name of its mode (BENCHMARK.json lists
   the same names); a layer a workload does not use reads 0.  Times of
   layers appear only as shares (%) of the workload's own time or as
   probe costs (ns) measured in every traced run, so no time reads 0. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("latency_p50_ms", "ms");
    ("throughput_per_s", "1/s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("explore.self_pct", "%");
    ("sim.step_pct", "%");
    ("linearize.check_pct", "%");
    ("fingerprint.dedup_pct", "%");
    ("fingerprint.dup_pct", "%");
    ("nvm.flushes", "count");
    ("nvm.undo_depth_mean", "count");
    ("linearize.memo_hit_pct", "%");
    ("linearize.inc_memo_hit_pct", "%");
    ("shard.queue_depth_mean", "count");
    ("service.refusal_pct", "%");
    ("service.little_ratio", "ratio");
    ("service.residual_pct", "%");
    ("trace.overhead_pct", "%");
    ("fingerprint.of_sim_ns", "ns");
    ("fingerprint.canonical_ns", "ns");
    ("fingerprint.store_add_ns", "ns");
    ("sim.step_ns", "ns");
    ("linearize.check_ns_per_op", "ns");
    ("robjects.exec_ns", "ns");
    ("robjects.recover_ns", "ns");
    ("shard.push_ns", "ns");
    ("shard.drain_ns", "ns");
  ]

(* {1 Spans} *)

(* The bench's own spans.  They are recorded only in traced runs and kept
   in memory until the run ends, so no trace write lands in a timed
   region.  Span 0 is the root [bench.workload]; [parent] is the span
   that caused this one. *)
let recording = ref false
let spans = ref []
let next_id = ref 0

let span ?(parent = 0) ?(fields = []) name f =
  incr next_id;
  let id = !next_id in
  let t0 = Obs.Clock.now_ns () in
  let r = f id in
  let dur = Obs.Clock.now_ns () - t0 in
  if !recording then
    spans :=
      (name, t0, dur, ("id", Obs.Trace.Int id) :: ("parent", Obs.Trace.Int parent) :: fields)
      :: !spans;
  (r, dur)

let write_spans sink =
  Obs.Trace.span sink ~name:"bench.workload" ~start_ns:0 ~dur_ns:(Obs.Clock.now_ns ())
    [ ("id", Obs.Trace.Int 0) ];
  List.iter
    (fun (name, start_ns, dur_ns, fields) -> Obs.Trace.span sink ~name ~start_ns ~dur_ns fields)
    (List.rev !spans)

(* {1 Verdict bookkeeping} *)

let attempted = ref 0
let failed = ref 0
let correct = ref true

(* Reports the first wrong result only; [failed] counts them all. *)
let expect ok fmt =
  Printf.ksprintf
    (fun msg ->
      if (not ok) && !correct then begin
        correct := false;
        Printf.eprintf "nrlbench: wrong result: %s\n%!" msg
      end)
    fmt

let judge ok = incr attempted; if not ok then incr failed

(* {1 Sampling} *)

(* Linear interpolation between the closest ranks. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let pos = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float pos in
  if i >= Array.length a - 1 then a.(Array.length a - 1)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* [Latency.quantile] answers with the upper edge of a histogram bucket,
   so a run could only print one of a few dozen values.  Interpolate
   linearly inside the bucket instead, finding by bisection the rank
   fractions where the bucket starts and ends. *)
let latency_quantile lat q =
  let f = Latency.quantile lat in
  let hi = f q in
  let rec bisect lo up pred n =
    if n = 0 then (lo, up)
    else
      let m = (lo +. up) /. 2. in
      if pred (f m) then bisect lo m pred (n - 1) else bisect m up pred (n - 1)
  in
  let below, q_start = bisect 0. q (fun v -> v >= hi) 60 in
  let _, q_end = bisect q 1. (fun v -> v > hi) 60 in
  let lo = if below = 0. then 0. else float_of_int (f below) in
  if q_end <= q_start then float_of_int hi
  else lo +. ((q -. q_start) /. (q_end -. q_start) *. (float_of_int hi -. lo))

(* The process's peak resident set (VmHWM), which unlike the GC's
   top-of-heap figure does not depend on when major slices ran. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1e3)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* {1 Set-up and the measured window} *)

(* Set-up allocates, so back-to-back set-ups would time the heap's growth
   more than the set-up: each sample times one set-up from an emptied
   minor heap and drops its result.  Host noise comes in bursts of a
   second or two, so the samples are spread over the run, a few before
   the first unit and then one between units at most every quarter
   second; the run reports their median. *)
let setup_thunk = ref ignore
let setup_samples = ref []
let last_sample = ref 0

let sample_setup () =
  ignore
    (span "bench.setup" (fun _ ->
         Gc.minor ();
         let t0 = Obs.Clock.now_ns () in
         !setup_thunk ();
         last_sample := Obs.Clock.now_ns ();
         setup_samples := float_of_int (!last_sample - t0) :: !setup_samples))

(* Install the workload's set-up, sample it, and return the value the
   run uses. *)
let setup f =
  (setup_thunk := fun () -> ignore (Sys.opaque_identity (f ())));
  for _ = 1 to 5 do sample_setup () done;
  f ()

let setup_s () = quantile !setup_samples 0.5 /. 1e9

(* [f i] for i = 0, 1, ... until [seconds] of wall clock have passed
   (always at least once), sampling the set-up between units.  The first
   call in a process starts with a warm-up of a tenth of [seconds] (at
   most one second) that runs the first units untimed, so the heap has
   grown and the code is in cache when the timed units start again from
   0.  A later call (the traced half of a traced run) follows timed units
   and needs none, and so its registry counts only timed units. *)
let warmed = ref false

let repeat_for seconds f =
  let run_until seconds ~sample =
    let stop = Obs.Clock.now_ns () + int_of_float (seconds *. 1e9) in
    let rec go i acc =
      if sample && Obs.Clock.now_ns () - !last_sample >= 250_000_000 then sample_setup ();
      let acc = f i :: acc in
      if Obs.Clock.now_ns () >= stop then List.rev acc else go (i + 1) acc
    in
    go 0 []
  in
  if not !warmed then begin
    warmed := true;
    ignore (run_until (Float.min 1. (seconds /. 10.)) ~sample:false)
  end;
  run_until seconds ~sample:true

(* Throughput is units per second over groups of [group] consecutive
   units (one torture round takes each scenario once), reported as the
   median over the groups so a burst of host noise moves it little. *)
let end_to_end_of_units ?(group = 1) durs =
  let ms = List.map (fun ns -> float_of_int ns /. 1e6) durs in
  let a = Array.of_list ms in
  let rates =
    List.init
      (max 1 (Array.length a / group))
      (fun g ->
        let units = Array.sub a (g * group) (min group (Array.length a)) in
        float_of_int (Array.length units) /. (Array.fold_left ( +. ) 0. units /. 1e3))
  in
  [
    ("setup_s", setup_s ());
    ("latency_p50_ms", quantile ms 0.5);
    ("throughput_per_s", quantile rates 0.5);
    ("peak_rss_mb", peak_rss_mb ());
  ]

let pct a b = if b > 0. then 100. *. a /. b else 0.

let median_ns durs = quantile (List.map float_of_int durs) 0.5

let counter reg name =
  match Metrics.view reg name with Some (Metrics.Counter n) -> float_of_int n | _ -> 0.

let timer reg name =
  match Metrics.view reg name with Some (Metrics.Timer { ns; _ }) -> float_of_int ns | _ -> 0.

let hist_mean reg name =
  match Metrics.view reg name with
  | Some (Metrics.Histogram { count; sum; _ }) when count > 0 ->
    float_of_int sum /. float_of_int count
  | _ -> 0.

let hit_pct reg hits misses =
  let h = counter reg hits in
  pct h (h +. counter reg misses)

(* {1 Explore workloads} *)

type pins = { nodes : int; terminals : int; truncated : int; dup : int }

type instance = {
  nprocs : int;
  build : Sim.t -> unit;
  persist : Nvm.Memory.mode;
  cfg : Explore.config;
  dedup : bool;
  incremental : bool;
  pins : pins;
}

let crash0 = { Explore.default_config with crash_procs = [ 0 ] }

(* Every process WRITEs its own tagged value to one recoverable register:
   the scripts and the recovery are pid-oblivious, so the full symmetric
   group applies with every process crash-enabled. *)
let rw_writers sim =
  let r = Objects.Rw_obj.make sim ~name:"R" in
  for p = 0 to Sim.nprocs sim - 1 do
    Sim.set_script sim p [ (r, "WRITE", Sim.Args [| Workload.Opgen.tagged p 0 |]) ]
  done

let rw_cfg nprocs = { crash0 with max_steps = 400; crash_procs = List.init nprocs Fun.id }

(* Every search runs on one domain: a search on both vCPUs of a shared
   host is slowed whenever either is, and its runs spread several times
   wider.  The full instances are sized so one verdict takes 0.05 to 0.3 s,
   giving a median over dozens of verdicts per run; --smoke swaps in
   register 2x1 (or 2 writers) with the same engine settings. *)
let instance ~smoke name =
  let scen s = s.Workload.Trial.build in
  let tiny = scen (Workload.Scenarios.register ~nprocs:2 ~ops:1 ()) in
  match name with
  | "explore-counter" ->
    Some
      {
        nprocs = 2;
        build = (if smoke then tiny else scen (Workload.Scenarios.counter ~nprocs:2 ~ops:1 ()));
        persist = Nvm.Memory.Instant;
        cfg = crash0;
        dedup = false;
        incremental = true;
        pins =
          (if smoke then { nodes = 18_977; terminals = 3_197; truncated = 0; dup = 0 }
           else { nodes = 200_652; terminals = 23_534; truncated = 0; dup = 0 });
      }
  | "explore-pcall-explicit" ->
    Some
      {
        nprocs = 2;
        build = (if smoke then tiny else scen (Workload.Scenarios.pcall ~nprocs:2 ~ops:2 ()));
        persist = Nvm.Memory.Explicit;
        cfg = { crash0 with max_steps = 50 };
        dedup = true;
        incremental = false;
        pins =
          (if smoke then { nodes = 19_244; terminals = 329; truncated = 0; dup = 9_983 }
           else { nodes = 49_190; terminals = 988; truncated = 3_789; dup = 12_240 });
      }
  | "explore-rw-symmetric" ->
    let nprocs = if smoke then 2 else 3 in
    Some
      {
        nprocs;
        build = rw_writers;
        persist = Nvm.Memory.Instant;
        cfg = rw_cfg nprocs;
        dedup = true;
        incremental = true;
        pins =
          (if smoke then { nodes = 533; terminals = 14; truncated = 0; dup = 250 }
           else { nodes = 4_828; terminals = 27; truncated = 0; dup = 3_565 });
      }
  | _ -> None

let explore_once ?obs ?trace inst root =
  let check_mode =
    if inst.incremental then `Incremental (Workload.Check.nrl_incremental ()) else `Terminal
  in
  let viol, st =
    Explore.find_violation ~cfg:inst.cfg ~dedup:inst.dedup ?obs ?trace
      ~check_mode ~check:Workload.Check.nrl_violation root
  in
  let got =
    {
      nodes = st.Explore.nodes;
      terminals = st.Explore.terminals;
      truncated = st.Explore.truncated;
      dup = st.Explore.dup;
    }
  in
  let ok = viol = None && got = inst.pins in
  judge ok;
  expect (viol = None) "explore found a violation";
  expect (got = inst.pins) "explore counted nodes=%d terminals=%d truncated=%d dup=%d" got.nodes
    got.terminals got.truncated got.dup

let run_explore ~seconds ~sink inst =
  let root =
    setup (fun () ->
        let sim = Sim.create ~persist:inst.persist ~nprocs:inst.nprocs () in
        inst.build sim;
        sim)
  in
  (* each verdict starts from a collected heap, as in a fresh process *)
  let search ?obs ~traced i =
    Gc.full_major ();
    snd
      (span "bench.search"
         ~fields:[ ("rep", Obs.Trace.Int i); ("traced", Obs.Trace.Bool traced) ]
         (fun _ -> explore_once ?obs ?trace:(if traced then sink else None) inst root))
  in
  match sink with
  | None -> end_to_end_of_units (repeat_for seconds (search ~traced:false))
  | Some sink ->
    let plain = repeat_for (seconds /. 2.) (search ~traced:false) in
    let reg = Metrics.create () in
    let traced = repeat_for (seconds /. 2.) (search ~obs:reg ~traced:true) in
    Obs.Trace.metrics sink reg;
    let reps = float_of_int (List.length traced) in
    let wall = float_of_int (List.fold_left ( + ) 0 traced) in
    (* total = step + check + dedup + self *)
    let total = timer reg Obs.Names.explore_time_total in
    let step = timer reg Obs.Names.explore_time_step
    and check = timer reg Obs.Names.explore_time_check
    and dedup = timer reg Obs.Names.explore_time_dedup in
    let self = total -. step -. check -. dedup in
    Printf.printf
      "# adds up: explore %.3f s = step %.3f + check %.3f + dedup %.3f + self %.3f s; bench \
       wall %.3f s (%+.1f%%)\n"
      (total /. 1e9) (step /. 1e9) (check /. 1e9) (dedup /. 1e9) (self /. 1e9) (wall /. 1e9)
      (pct (total -. wall) wall);
    let nodes = counter reg Obs.Names.explore_nodes
    and dups = counter reg Obs.Names.explore_dedup_pruned in
    [
      ("explore.self_pct", pct self total);
      ("sim.step_pct", pct step total);
      ("linearize.check_pct", pct check total);
      ("fingerprint.dedup_pct", pct dedup total);
      ("fingerprint.dup_pct", pct dups (nodes +. dups));
      ("nvm.flushes", counter reg Obs.Names.sim_flushes /. reps);
      ("nvm.undo_depth_mean", hist_mean reg Obs.Names.trail_undo_depth);
      ( "linearize.memo_hit_pct",
        hit_pct reg Obs.Names.checker_memo_hits Obs.Names.checker_memo_misses );
      ( "linearize.inc_memo_hit_pct",
        hit_pct reg Obs.Names.nrl_inc_memo_hits Obs.Names.nrl_inc_memo_misses );
      ("trace.overhead_pct", pct (median_ns traced) (median_ns plain) -. 100.);
    ]

(* {1 Torture} *)

(* Five scenarios at 3 procs x 64 ops, taken round-robin; trial i runs
   scenario i mod 5 with seed (--seed + i / 5).  A trial is the same
   build / random crash schedule / NRL + strictness check as
   Workload.Trial.run, done step by step so each part gets its span. *)
let torture_scenarios () =
  let nprocs = 3 and ops = 64 in
  Workload.Scenarios.
    [|
      register ~nprocs ~ops ();
      cas ~nprocs ~ops ();
      counter ~nprocs ~ops ();
      faa ~nprocs ~ops ();
      stack ~nprocs ~ops ();
    |]

(* total machine steps of the first [pinned_trials] trials at seed 1 *)
let pinned_trials = 25
let pinned_steps = 88_222

let trial ?obs ~seed (scen : Workload.Trial.scenario) i =
  let fields = [ ("trial", Obs.Trace.Int i); ("scenario", Obs.Trace.Str scen.scen_name) ] in
  let (steps, sched_ns, check_ns), trial_ns =
    span "bench.trial" ~fields (fun id ->
        let sim = Sim.create ~seed ~nprocs:scen.nprocs () in
        Sim.set_obs sim obs;
        scen.build sim;
        let policy =
          Machine.Schedule.random ~crash_prob:0.02 ~recover_prob:0.5 ~max_crashes:8 ~seed ()
        in
        let outcome, sched_ns =
          span ~parent:id ~fields "bench.schedule" (fun _ ->
              Machine.Schedule.run ~max_steps:200_000 sim policy)
        in
        let nrl_ok, check_ns =
          span ~parent:id ~fields "bench.check" (fun _ ->
              Linearize.Nrl.ok (Workload.Check.nrl sim)
              && Workload.Check.strictness_violations sim = [])
        in
        let ok = outcome = Machine.Schedule.Completed && nrl_ok in
        judge ok;
        expect ok "torture trial %d (%s, seed %d) failed" i scen.scen_name seed;
        (Sim.total_steps sim, sched_ns, check_ns))
  in
  (steps, trial_ns, sched_ns, check_ns)

let run_torture ~seconds ~sink ~base_seed =
  let scens =
    setup (fun () ->
        let scens = torture_scenarios () in
        Array.iter (fun s -> s.Workload.Trial.build (Sim.create ~nprocs:s.nprocs ())) scens;
        scens)
  in
  let run ?obs seconds =
    repeat_for seconds (fun i ->
        trial ?obs ~seed:(base_seed + (i / Array.length scens)) scens.(i mod Array.length scens) i)
  in
  let check_pin trials =
    if base_seed = 1 && List.length trials >= pinned_trials then begin
      let steps =
        List.fold_left ( + ) 0
          (List.filteri (fun i _ -> i < pinned_trials) (List.map (fun (s, _, _, _) -> s) trials))
      in
      expect (steps = pinned_steps) "torture: %d steps in the first %d trials, pinned %d" steps
        pinned_trials pinned_steps
    end
  in
  let trial_ns = List.map (fun (_, t, _, _) -> t) in
  match sink with
  | None ->
    let trials = run seconds in
    check_pin trials;
    end_to_end_of_units ~group:(Array.length scens) (trial_ns trials)
  | Some sink ->
    let plain = run (seconds /. 2.) in
    check_pin plain;
    let reg = Metrics.create () in
    let traced = run ~obs:reg (seconds /. 2.) in
    Obs.Trace.metrics sink reg;
    let sum f = float_of_int (List.fold_left (fun a t -> a + f t) 0 traced) in
    let wall = sum (fun (_, t, _, _) -> t)
    and sched = sum (fun (_, _, s, _) -> s)
    and check = sum (fun (_, _, _, c) -> c) in
    Printf.printf "# adds up: trials %.3f s = schedule %.3f + check %.3f + build %.3f s\n"
      (wall /. 1e9) (sched /. 1e9) (check /. 1e9)
      ((wall -. sched -. check) /. 1e9);
    let med l = median_ns (trial_ns l) in
    [
      ("sim.step_pct", pct sched wall);
      ("linearize.check_pct", pct check wall);
      ("nvm.flushes", counter reg Obs.Names.sim_flushes /. float_of_int (List.length traced));
      ( "linearize.memo_hit_pct",
        hit_pct reg Obs.Names.checker_memo_hits Obs.Names.checker_memo_misses );
      ("trace.overhead_pct", pct (med traced) (med plain) -. 100.);
    ]

(* {1 Serve} *)

(* One shard and one client domain: two spinning domains, the most a
   2-core host runs without time-slicing (the adversary and the main
   domain sleep).  Four closed-loop sessions, 250 Zipf(0.99) keys, 25%
   reads, Poisson kills with a 50 ms mean gap. *)
let sessions = 4

let serve_config ~seed ~duration =
  {
    Engine.default with
    shards = 1;
    sessions;
    client_domains = 1;
    keys = 250;
    duration;
    mode = Service.Adversary.Poisson;
    crash_interval = 0.05;
    seed;
  }

let shard_config ~queue_bound =
  {
    Shard.queue_bound;
    shed_fraction = Engine.default.Engine.shed_fraction;
    watchdog = Torture.default_watchdog;
    recrash_prob = Engine.default.Engine.recrash_prob;
  }

let serve_window ?obs ?on_tick ~seed ~duration ~kills () =
  let cfg = serve_config ~seed ~duration in
  let r, _ =
    span "bench.engine" ~fields:[ ("seconds", Obs.Trace.Float duration) ] (fun _ ->
        Engine.run ?obs ?on_tick cfg)
  in
  attempted := !attempted + r.Engine.r_requests;
  failed := !failed + r.Engine.r_shed + r.Engine.r_failures;
  expect (r.Engine.r_violations = []) "serve: %d conservation violations"
    (List.length r.Engine.r_violations);
  expect (r.Engine.r_giveups = 0) "serve: %d recovery give-ups" r.Engine.r_giveups;
  expect
    (r.Engine.r_crashes = kills && r.Engine.r_recoveries = kills
   && r.Engine.r_schedule_len = kills)
    "serve: %d crashes, %d recoveries, %d scheduled, expected %d" r.Engine.r_crashes
    r.Engine.r_recoveries r.Engine.r_schedule_len kills;
  expect (r.Engine.r_ok > 0) "serve: no request answered";
  r

let p50_ns r = latency_quantile r.Engine.r_lat 0.5

(* {1 Layer probes} *)

(* Costs of single layers on fixed inputs, measured in every traced run
   whatever the workload, so each per-layer time is always measured. *)
let probes ~smoke =
  let est f =
    if smoke then Runtime.Bench_native.estimate_ns ~repeats:3 ~min_batch_ns:100_000 f
    else Runtime.Bench_native.estimate_ns f
  in
  let probe name f = fst (span ("bench.probe." ^ name) (fun _ -> (name, f ()))) in
  let cycle n =
    let i = ref (-1) in
    fun () ->
      incr i;
      if !i = n then i := 0;
      !i
  in
  (* fingerprint layer: states the explorer visits on the rw-symmetric
     instance, sampled through Explore.dfs ~on_step *)
  let nprocs = 4 in
  let cfg = rw_cfg nprocs in
  let root = Sim.create ~nprocs () in
  rw_writers root;
  let want = if smoke then 256 else 16_384 in
  let states = ref [] and taken = ref 0 in
  ignore
    (Explore.dfs ~cfg
       ~budget:{ Explore.no_budget with max_nodes = Some want }
       ~on_step:(fun s ->
         if !taken < want then begin
           states := Sim.clone s :: !states;
           incr taken
         end)
       ~on_terminal:ignore root);
  let states = Array.of_list !states in
  let fps = Array.map (fun s -> Fingerprint.of_sim s) states in
  let group = Option.get (Explore.symmetry_group cfg root) in
  let canon = Array.map (Fingerprint.Symmetry.canonical group) fps in
  let store = Fingerprint.Store.create () in
  let next = cycle (Array.length states) in
  let fingerprint =
    [
      probe "fingerprint.of_sim_ns" (fun () ->
          est (fun () -> ignore (Fingerprint.of_sim states.(next ()))));
      probe "fingerprint.canonical_ns" (fun () ->
          est (fun () -> ignore (Fingerprint.Symmetry.canonical group fps.(next ()))));
      probe "fingerprint.store_add_ns" (fun () ->
          est (fun () -> ignore (Fingerprint.Store.add store canon.(next ()))));
    ]
  in
  (* machine and checker: one seeded crash trial of counter 3x16 *)
  let scen = Workload.Scenarios.counter ~nprocs:3 ~ops:16 () in
  let one_trial () =
    let sim = Sim.create ~seed:1 ~nprocs:3 () in
    scen.build sim;
    ignore (Machine.Schedule.run sim (Machine.Schedule.random ~crash_prob:0.02 ~seed:1 ()));
    sim
  in
  let finished = one_trial () in
  let machine =
    [
      probe "sim.step_ns" (fun () ->
          est (fun () -> ignore (one_trial ())) /. float_of_int (Sim.total_steps finished));
      probe "linearize.check_ns_per_op" (fun () ->
          est (fun () -> ignore (Workload.Check.nrl finished))
          /. float_of_int (Sim.history_length finished / 2));
    ]
  in
  (* object and shard layers over the serve key/op mix *)
  let keys = 250 in
  let zipf = Service.Zipf.create ~n:keys ~skew:0.99 and rng = Torture.rng_create 1 in
  let mix =
    Array.init 4096 (fun _ ->
        let key = Service.Zipf.draw zipf rng in
        if Torture.rng_int rng 1_000 < Service.Client.default_read_permille then
          (key, Robjects.Read)
        else (key, Robjects.Update (Torture.rng_int rng 1_024)))
  in
  let next_op = cycle (Array.length mix) in
  let objs = Robjects.create ~keys in
  let p = Robjects.pending_create () and cp = Runtime.Crash.create () in
  let run_op ~crash =
    let key, op = mix.(next_op ()) in
    Robjects.begin_op p ~key op;
    if crash then begin
      Runtime.Crash.arm cp 0;
      (try ignore (Robjects.exec objs ~cp p) with Runtime.Crash.Crashed -> ());
      Runtime.Crash.disarm cp;
      ignore (Robjects.recover objs ~cp p)
    end
    else ignore (Robjects.exec objs ~cp p);
    Robjects.end_op p
  in
  let objects =
    [
      probe "robjects.exec_ns" (fun () -> est (fun () -> run_op ~crash:false));
      probe "robjects.recover_ns" (fun () -> est (fun () -> run_op ~crash:true));
    ]
  in
  (* push a batch into an idle shard, then let Shard.run drain it in this
     domain; median per request over several batches *)
  let batch = if smoke then 256 else 4_096 and batches = if smoke then 3 else 9 in
  let push = Array.make batches 0. and drain = Array.make batches 0. in
  ignore
    (span "bench.probe.shard" (fun _ ->
         for b = 0 to batches - 1 do
           let sh = Shard.create ~sid:0 ~keys ~seed:1 (shard_config ~queue_bound:batch) in
           let rqs =
             Array.init batch (fun _ ->
                 let key, op = mix.(next_op ()) in
                 Shard.request ~key op)
           in
           let t0 = Obs.Clock.now_ns () in
           Array.iter (fun rq -> ignore (Shard.try_push sh rq)) rqs;
           let t1 = Obs.Clock.now_ns () in
           Atomic.set sh.Shard.stop true;
           Shard.run sh;
           let t2 = Obs.Clock.now_ns () in
           push.(b) <- float_of_int (t1 - t0) /. float_of_int batch;
           drain.(b) <- float_of_int (t2 - t1) /. float_of_int batch
         done));
  let median a = quantile (Array.to_list a) 0.5 in
  fingerprint @ machine @ objects
  @ [ ("shard.push_ns", median push); ("shard.drain_ns", median drain) ]

let run_serve ~seconds ~sink ~seed ~probed =
  let schedule ~seed duration =
    Service.Adversary.schedule Service.Adversary.Poisson ~seed ~duration ~interval:0.05
  in
  let kills ~seed duration = Array.length (schedule ~seed duration) in
  let window = Float.min 0.5 seconds in
  (* Engine.run builds its own shard, key sampler and kill schedule; the
     set-up times building the same pieces for one window *)
  ignore
    (setup (fun () ->
         ( Shard.create ~sid:0 ~keys:250 ~seed (shard_config ~queue_bound:512),
           Service.Zipf.create ~n:250 ~skew:0.99,
           schedule ~seed window )));
  match sink with
  | None ->
    (* half-second windows, reported by their medians: a window disturbed
       by the host moves none of the results *)
    let rs =
      repeat_for seconds (fun w ->
          serve_window ~seed:(seed + w) ~duration:window ~kills:(kills ~seed:(seed + w) window) ())
    in
    let med f = quantile (List.map f rs) 0.5 in
    Printf.printf "# serve: p99 %.0f ns, recovery p50 %.0f ns over %d windows (medians)\n"
      (med (fun r -> latency_quantile r.Engine.r_lat 0.99))
      (med (fun r -> latency_quantile r.Engine.r_recovery 0.5))
      (List.length rs);
    [
      ("setup_s", setup_s ());
      ("latency_p50_ms", med p50_ns /. 1e6);
      ("throughput_per_s", med (fun r -> r.Engine.r_throughput));
      ("peak_rss_mb", peak_rss_mb ());
    ]
  | Some sink ->
    let half = seconds /. 2. in
    let plain = serve_window ~seed ~duration:half ~kills:(kills ~seed half) () in
    let reg = Metrics.create () in
    let depth_sum = ref 0 and depth_n = ref 0 in
    let on_tick _ shards =
      Array.iter
        (fun sh ->
          depth_sum := !depth_sum + Shard.queue_length sh;
          incr depth_n)
        shards
    in
    let r = serve_window ~obs:reg ~on_tick ~seed ~duration:half ~kills:(kills ~seed half) () in
    Obs.Trace.metrics sink reg;
    let probe name = List.assoc name probed in
    let depth = float_of_int !depth_sum /. float_of_int (max 1 !depth_n) in
    let p50 = p50_ns r in
    let push = probe "shard.push_ns"
    and drain = probe "shard.drain_ns"
    and exec = probe "robjects.exec_ns" in
    let residual = p50 -. push -. ((depth +. 1.) *. drain) -. exec in
    let mean = Latency.mean r.Engine.r_lat in
    (* a closed loop's cycle is sessions / throughput; what latency does
       not cover is client time between an answer and the next issue *)
    let cycle = float_of_int sessions /. r.Engine.r_throughput *. 1e9 in
    Printf.printf
      "# adds up: lat_p50 %.0f ns = push %.0f + (depth %.2f + 1) x drain %.0f + exec %.0f + \
       residual %.0f ns\n\
       # little: cycle %.0f ns = mean latency %.0f + client gap %.0f ns\n"
      p50 push depth drain exec residual cycle mean (cycle -. mean);
    let refused =
      counter reg Obs.Names.service_unavailable
      +. counter reg Obs.Names.service_rejected
      +. counter reg Obs.Names.service_timeouts
    in
    [
      ("shard.queue_depth_mean", depth);
      ( "service.refusal_pct",
        pct refused
          (counter reg Obs.Names.service_requests +. counter reg Obs.Names.service_retries) );
      ("service.little_ratio", mean /. cycle);
      ("service.residual_pct", pct residual p50);
      ("trace.overhead_pct", pct p50 (p50_ns plain) -. 100.);
    ]

(* {1 Main} *)

let print_result metrics =
  List.iter (fun (n, v, u) -> Printf.printf "%s %.6g %s\n" n v u) metrics;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    !correct !attempted !failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (num v) u)
          metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. in
  let trace = ref "" and smoke = ref false in
  let usage = "nrlbench.exe --workload NAME [--seed N] [--seconds S] [--trace FILE] [--smoke]" in
  (try
     Arg.parse_argv Sys.argv
       [
         ("--workload", Arg.Set_string workload, "NAME workload to run");
         ("--seed", Arg.Set_int seed, "N input seed (explore workloads are exhaustive and ignore it)");
         ("--seconds", Arg.Set_float seconds, "S measured seconds (default 20)");
         ("--trace", Arg.Set_string trace, "FILE traced run: per-layer metrics, spans to FILE");
         ("--smoke", Arg.Set smoke, " tiny instances, for the runtest smoke");
       ]
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with
   | Arg.Help msg ->
     print_string msg;
     exit 0
   | Arg.Bad msg ->
     prerr_string msg;
     exit 124);
  let sink =
    if !trace = "" then None
    else begin
      recording := true;
      Some (Obs.Trace.create ~path:!trace)
    end
  in
  let seconds = !seconds and smoke = !smoke in
  (* the probes run first, so the serve run can decompose its latency *)
  let probed = if sink = None then [] else probes ~smoke in
  let measured =
    match !workload, instance ~smoke !workload with
    | _, Some inst -> run_explore ~seconds ~sink inst
    | "torture-long", None -> run_torture ~seconds ~sink ~base_seed:!seed
    | "serve-poisson", None -> run_serve ~seconds ~sink ~seed:!seed ~probed
    | w, None ->
      Printf.eprintf "nrlbench: unknown workload %S\n%s\n" w usage;
      exit 124
  in
  let names = if sink = None then end_to_end else per_layer in
  let measured = measured @ probed in
  Option.iter
    (fun sink ->
      write_spans sink;
      Obs.Trace.close sink)
    sink;
  print_result
    (List.map
       (fun (n, u) -> (n, Option.value ~default:0. (List.assoc_opt n measured), u))
       names);
  if not !correct then exit 2
