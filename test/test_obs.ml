(* The observability layer: registry semantics (merge is an exact sum),
   the engine-invariance contract (counter values identical across
   --jobs, steals and kill-and-resume for the same workload), the one
   JSON codec (Obs.Json: strict RFC 8259 parsing, printing, the metric
   record), the NDJSON trace schema (round-tripped through that codec),
   the torture-harness counters, and
   catalogue coverage (a run cannot emit a metric name the catalogue
   does not document). *)

open Machine

(* {1 Registry semantics} *)

let test_counter_basics () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "x" in
  Obs.Metrics.Counter.incr c;
  Obs.Metrics.Counter.add c 4;
  Alcotest.(check int) "value" 5 (Obs.Metrics.Counter.value c);
  (* the handle is stable: a second lookup sees the same cell *)
  Obs.Metrics.Counter.incr (Obs.Metrics.counter reg "x");
  Alcotest.(check int) "shared cell" 6 (Obs.Metrics.Counter.value c);
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Obs.Metrics: x already exists as a counter (wanted a timer)")
    (fun () -> ignore (Obs.Metrics.timer reg "x"))

let test_histogram_buckets () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg "h" in
  List.iter (Obs.Metrics.Histogram.observe h) [ 0; 1; 2; 3; 4; 1000 ];
  Alcotest.(check int) "count" 6 (Obs.Metrics.Histogram.count h);
  Alcotest.(check int) "sum" 1010 (Obs.Metrics.Histogram.sum h);
  Alcotest.(check int) "max" 1000 (Obs.Metrics.Histogram.max_value h);
  match Obs.Metrics.view reg "h" with
  | Some (Obs.Metrics.Histogram { buckets; _ }) ->
    (* values below 16 are exact; 1000 is in [992, 1023], the last
       sixteenth of the octave [512, 1023] *)
    Alcotest.(check (list (pair int int)))
      "buckets"
      [ (0, 1); (1, 1); (2, 1); (3, 1); (4, 1); (1023, 1) ]
      buckets;
    (* a record of the earlier power-of-two buckets (bounds 2^i - 1, each
       the top edge of a log-linear bucket), as old traces and
       checkpoints hold it, absorbs into the same bounds with its count,
       sum and max intact *)
    let old_buckets = List.init 63 (fun i -> ((1 lsl i) - 1, i + 1)) in
    let count = List.fold_left (fun acc (_, n) -> acc + n) 0 old_buckets in
    let old =
      Obs.Metrics.Histogram { count; sum = 123_456; max_value = max_int; buckets = old_buckets }
    in
    let resumed = Obs.Metrics.create () in
    Obs.Metrics.absorb ~into:resumed "old" old;
    Alcotest.(check bool) "power-of-two record absorbs exactly" true
      (Obs.Metrics.view resumed "old" = Some old)
  | _ -> Alcotest.fail "histogram view missing"

(* [bucket_of] against a reference, the bucket loop of the service's
   former latency histogram: walk up to the value's octave one bit at a
   time, negatives clamped to 0, indices to its 960 slots *)
let test_bucket_of () =
  let reference v =
    let v = max v 0 in
    let b =
      if v < 16 then v
      else begin
        let o = ref 4 in
        while v lsr !o > 1 do
          incr o
        done;
        ((!o - 3) * 16) + ((v lsr (!o - 4)) land 15)
      end
    in
    min b 959
  in
  let check v =
    Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) (reference v) (Obs.Metrics.bucket_of v)
  in
  List.iter check [ 0; -1; -2; min_int; max_int; max_int - 1 ];
  for k = 0 to 62 do
    check ((1 lsl k) - 1);
    check (1 lsl k);
    check ((1 lsl k) + 1)
  done;
  let rng = Random.State.make [| 15 |] in
  for _ = 1 to 10_000 do
    check (Random.State.bits rng lsl Random.State.int rng 40 lxor Random.State.bits rng);
    check (Random.State.full_int rng max_int)
  done

let test_merge_is_exact_sum () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  Obs.Metrics.Counter.add (Obs.Metrics.counter a "c") 3;
  Obs.Metrics.Counter.add (Obs.Metrics.counter b "c") 4;
  Obs.Metrics.Timer.add (Obs.Metrics.timer b "t") 100;
  Obs.Metrics.Histogram.observe (Obs.Metrics.histogram a "h") 2;
  Obs.Metrics.Histogram.observe (Obs.Metrics.histogram b "h") 9;
  Obs.Metrics.merge ~into:a b;
  (match Obs.Metrics.view a "c" with
  | Some (Obs.Metrics.Counter n) -> Alcotest.(check int) "counter sum" 7 n
  | _ -> Alcotest.fail "counter missing");
  (match Obs.Metrics.view a "t" with
  | Some (Obs.Metrics.Timer { ns; intervals }) ->
    Alcotest.(check int) "timer ns" 100 ns;
    Alcotest.(check int) "timer intervals" 1 intervals
  | _ -> Alcotest.fail "timer missing");
  (match Obs.Metrics.view a "h" with
  | Some (Obs.Metrics.Histogram { count; sum; max_value; _ }) ->
    Alcotest.(check int) "hist count" 2 count;
    Alcotest.(check int) "hist sum" 11 sum;
    Alcotest.(check int) "hist max" 9 max_value
  | _ -> Alcotest.fail "histogram missing");
  (* source unchanged *)
  match Obs.Metrics.view b "c" with
  | Some (Obs.Metrics.Counter n) -> Alcotest.(check int) "source intact" 4 n
  | _ -> Alcotest.fail "source counter missing"

(* {1 Engine invariance} *)

let crashy_cfg =
  { Explore.default_config with max_steps = 100; max_crashes = 1; crash_procs = [ 0 ] }

let explore_registry ~jobs ~incremental () =
  let reg = Obs.Metrics.create () in
  let scen = Workload.Scenarios.register ~nprocs:2 ~ops:1 () in
  let sim = Sim.create ~nprocs:2 () in
  scen.Workload.Trial.build sim;
  let check_mode =
    if incremental then `Incremental (Workload.Check.nrl_incremental ()) else `Terminal
  in
  let viol, _ =
    Explore.find_violation ~cfg:crashy_cfg ~jobs ~obs:reg ~check_mode
      ~check:Workload.Check.nrl_violation sim
  in
  Alcotest.(check bool) "no violation" true (viol = None);
  reg

let invariant_counters reg =
  List.filter_map
    (fun (name, v) ->
      match v with
      | Obs.Metrics.Counter n when Obs.Names.engine_invariant name -> Some (name, n)
      | _ -> None)
    (Obs.Metrics.to_list reg)

let test_counters_invariant_across_engines () =
  List.iter
    (fun incremental ->
      let baseline =
        invariant_counters (explore_registry ~jobs:1 ~incremental ())
      in
      Alcotest.(check bool) "baseline counts something" true (baseline <> []);
      List.iter
        (fun jobs ->
          let got = invariant_counters (explore_registry ~jobs ~incremental ()) in
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "jobs=%d incremental=%b" jobs incremental)
            baseline got)
        [ 1; 2; 4 ])
    [ false; true ]

(* The undo-trail metrics of one small direct search, pinned literally:
   one [trail.undos] per backtracked edge, and the histogram of trail
   entries each undo reverted.  Neither is engine-invariant (the pool
   also undoes while repositioning), so only jobs 1 is pinned. *)
let test_trail_metrics_pinned () =
  let reg = explore_registry ~jobs:1 ~incremental:false () in
  (match Obs.Metrics.view reg Obs.Names.trail_undos with
  | Some (Obs.Metrics.Counter n) -> Alcotest.(check int) "trail.undos" 18976 n
  | _ -> Alcotest.fail "trail.undos missing");
  match Obs.Metrics.view reg Obs.Names.trail_undo_depth with
  | Some (Obs.Metrics.Histogram { count; sum; max_value; buckets }) ->
    Alcotest.(check int) "count" 18976 count;
    Alcotest.(check int) "sum" 35778 sum;
    Alcotest.(check int) "max" 2 max_value;
    Alcotest.(check (list (pair int int))) "buckets" [ (1, 2174); (2, 16802) ] buckets
  | _ -> Alcotest.fail "trail.undo.depth missing"

(* the resume axis of the matrix: a search interrupted by a node budget
   and resumed from its checkpoint must report the same invariant
   counters as an uninterrupted search, for every engine configuration.
   The interrupted search is unobserved, so its checkpoint must carry no
   timer: the phase timers only run when the caller observes. *)
let resumed_registry ~jobs ~incremental ~interrupt () =
  let reg = Obs.Metrics.create () in
  let scen = Workload.Scenarios.register ~nprocs:2 ~ops:1 () in
  let build () =
    let sim = Sim.create ~nprocs:2 () in
    scen.Workload.Trial.build sim;
    sim
  in
  let check_mode () =
    if incremental then `Incremental (Workload.Check.nrl_incremental ()) else `Terminal
  in
  let outcome =
    if not interrupt then
      fst
        (Explore.search ~cfg:crashy_cfg ~jobs ~obs:reg ~check_mode:(check_mode ())
           ~check:Workload.Check.nrl_violation (build ()))
    else begin
      let path = Filename.temp_file "nrl_obs_resume" ".ndjson" in
      let spec = { Explore.cp_path = path; cp_interval_s = 0.0; cp_scenario = [] } in
      (match
         Explore.search ~cfg:crashy_cfg ~jobs
           ~budget:{ Explore.no_budget with max_nodes = Some 2_000 }
           ~checkpoint:spec ~check_mode:(check_mode ())
           ~check:Workload.Check.nrl_violation (build ())
       with
      | Explore.Exhausted _, _ -> ()
      | _ -> Alcotest.fail "budget should have cut the search");
      let ck =
        match Checkpoint.load path with Ok ck -> ck | Error e -> Alcotest.fail e
      in
      Sys.remove path;
      Alcotest.(check (list string))
        "an unobserved checkpoint holds no timer" []
        (List.filter_map
           (function name, Obs.Metrics.Timer _ -> Some name | _ -> None)
           ck.Checkpoint.metrics);
      Alcotest.(check bool) "but it holds counters" true
        (List.exists
           (function _, Obs.Metrics.Counter _ -> true | _ -> false)
           ck.Checkpoint.metrics);
      fst
        (Explore.search ~cfg:crashy_cfg ~jobs ~obs:reg ~resume:ck
           ~check_mode:(check_mode ()) ~check:Workload.Check.nrl_violation (build ()))
    end
  in
  Alcotest.(check bool) "clean search" true (outcome = Explore.Clean);
  reg

(* the steal axis: the jobs > 1 rows above are only evidence if work was
   actually stolen between domains.  Pin a run in which steals happened
   (workers other than the seed owner must steal their first task, so on
   a multi-queue pool this is the common case; retry for scheduler luck)
   and assert the engine-invariant counters are still byte-identical. *)
let test_counters_invariant_under_steals () =
  let baseline =
    invariant_counters (explore_registry ~jobs:1 ~incremental:true ())
  in
  let steals_of reg =
    match Obs.Metrics.view reg Obs.Names.explore_ws_steals with
    | Some (Obs.Metrics.Counter n) -> n
    | _ -> 0
  in
  let rec attempt k =
    let reg = explore_registry ~jobs:4 ~incremental:true () in
    if steals_of reg > 0 then reg
    else if k = 0 then Alcotest.fail "no steals observed at jobs=4 in 25 runs"
    else attempt (k - 1)
  in
  let reg = attempt 25 in
  Alcotest.(check (list (pair string int)))
    "invariant counters identical in a run with real steals" baseline
    (invariant_counters reg)

let test_counters_invariant_across_resume () =
  List.iter
    (fun incremental ->
      let baseline =
        invariant_counters
          (resumed_registry ~jobs:1 ~incremental ~interrupt:false ())
      in
      Alcotest.(check bool) "baseline counts something" true (baseline <> []);
      List.iter
        (fun jobs ->
          let got = invariant_counters (resumed_registry ~jobs ~incremental ~interrupt:true ()) in
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "resumed jobs=%d incremental=%b" jobs incremental)
            baseline got)
        [ 1; 2 ])
    [ false; true ]

(* {1 The JSON codec} *)

module J = Obs.Json

let test_json_strict () =
  List.iter
    (fun input ->
      match J.parse input with
      | v -> Alcotest.failf "accepted %S as %s" input (J.to_line v)
      | exception J.Bad _ -> ())
    [
      "[1.]"; "[01]"; "[+1]"; "[.5]"; "[-]"; "[1e]"; "[1,]"; "{\"a\":1,}"; "\"a\tb\"";
      "\"\\ud800\""; "\"\\udc00\""; "\"\\u12g4\""; "\"\\x\""; "tru"; "[1] 2"; "";
    ];
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected (J.to_string (J.parse input)))
    [
      ("\"\\u4e2d\"", "\xe4\xb8\xad");
      ("\"\\u00e9\"", "\xc3\xa9");
      ("\"\\ud83d\\ude00\"", "\xf0\x9f\x98\x80");
      ("\"\\u0041\\/\\b\\f\"", "A/\b\012");
    ];
  Alcotest.(check bool) "exponents and fractions are numbers" true
    (J.parse " [-0.5e+2, 1E3, 0] " = J.Arr [ J.Num (-50.); J.Num 1000.; J.Int 0 ])

let test_json_numbers () =
  List.iter
    (fun i ->
      Alcotest.(check string) "integers print exactly" (string_of_int i) (J.to_line (J.Int i));
      Alcotest.(check bool) "and parse to the exact Int" true (J.parse (string_of_int i) = J.Int i))
    [ max_int; min_int; 0; 0x1F_FFFF_FFFF_FFFF + 1 ];
  Alcotest.(check bool) "an integer beyond int range is a Num" true
    (J.parse "46116860184273879040" = J.Num 46116860184273879040.);
  List.iter
    (fun (f, text) ->
      Alcotest.(check string) "float spelling" text (J.to_line (J.Num f));
      Alcotest.(check bool) (text ^ " round-trips") true (J.parse text = J.Num f))
    [
      (12.5, "12.5"); (3., "3.0"); (0.1, "0.1"); (1e300, "1e+300"); (1. /. 3., "0.33333333333333331");
    ];
  List.iter
    (fun f -> Alcotest.(check string) "non-finite is null" "null" (J.to_line (J.Num f)))
    [ nan; infinity; neg_infinity ]

let test_json_printers () =
  let v =
    J.Obj
      [
        ("s", J.Str "q\"b\\n\n\001\xc3\xa9");
        ( "rows",
          J.Arr [ J.Obj [ ("a", J.Int 1); ("b", J.Arr [ J.Bool true; J.Null ]) ]; J.Num 2.5 ] );
        ("empty", J.Arr []);
        ("o", J.Obj [ ("x", J.Num (-0.25)) ]);
      ]
  in
  Alcotest.(check string) "compact line"
    ({|{"s":"q\"b\\n\n\u0001|} ^ "\xc3\xa9"
    ^ {|","rows":[{"a":1,"b":[true,null]},2.5],"empty":[],"o":{"x":-0.25}}|})
    (J.to_line v);
  Alcotest.(check string) "document layout"
    ({|{
  "s": "q\"b\\n\n\u0001|} ^ "\xc3\xa9" ^ {|",
  "rows": [
    {"a": 1, "b": [true, null]},
    2.5
  ],
  "empty": [],
  "o": {"x": -0.25}
}
|})
    (J.to_doc v);
  Alcotest.(check bool) "line parses back" true (J.parse (J.to_line v) = v);
  Alcotest.(check bool) "document parses back" true (J.parse (J.to_doc v) = v)

let test_metric_records () =
  List.iter
    (fun (name, v) ->
      let j = Obs.Metrics.record name v in
      Alcotest.(check bool) (name ^ " round-trips") true
        (Obs.Metrics.of_record (J.parse (J.to_line j)) = (name, v)))
    [
      ("c", Obs.Metrics.Counter 7);
      ("t", Obs.Metrics.Timer { ns = max_int; intervals = 3 });
      ( "h",
        Obs.Metrics.Histogram { count = 3; sum = 10; max_value = 8; buckets = [ (1, 1); (15, 2) ] } );
      ("h0", Obs.Metrics.Histogram { count = 0; sum = 0; max_value = 0; buckets = [] });
    ];
  Alcotest.(check string) "counter record bytes" {|{"type":"counter","name":"c","value":7}|}
    (J.to_line (Obs.Metrics.record "c" (Obs.Metrics.Counter 7)));
  match Obs.Metrics.of_record (J.parse {|{"type":"task","name":"x"}|}) with
  | _ -> Alcotest.fail "a task record decoded as a metric"
  | exception J.Bad _ -> ()

(* {1 The NDJSON trace schema} *)

let test_trace_roundtrip () =
  let path = Filename.temp_file "nrl_trace" ".ndjson" in
  let tr = Obs.Trace.create ~path in
  Obs.Trace.event tr ~name:"e"
    [
      ("i", Obs.Trace.Int 42);
      ("s", Obs.Trace.Str "quote\"back\\slash");
      ("b", Obs.Trace.Bool true);
      ("nan", Obs.Trace.Float Float.nan);
    ];
  Obs.Trace.span tr ~name:"sp" ~start_ns:5 ~dur_ns:7 [ ("w", Obs.Trace.Int 0) ];
  let reg = Obs.Metrics.create () in
  Obs.Metrics.Counter.add (Obs.Metrics.counter reg Obs.Names.explore_nodes) 42;
  Obs.Metrics.Timer.add (Obs.Metrics.timer reg Obs.Names.explore_time_total) 1234;
  Obs.Metrics.Histogram.observe (Obs.Metrics.histogram reg Obs.Names.trail_undo_depth) 3;
  Obs.Trace.metrics tr reg;
  Obs.Trace.close tr;
  Obs.Trace.close tr (* idempotent *);
  (* every line is a standalone JSON object with a "type" field *)
  let parsed = J.read_ndjson path in
  Sys.remove path;
  Alcotest.(check int) "line count" 6 (List.length parsed);
  let str k j = J.to_string (J.member k j) and int k j = J.to_int (J.member k j) in
  let typed ty = List.find (fun j -> str "type" j = ty) parsed in
  let meta = List.hd parsed in
  Alcotest.(check string) "meta first" "meta" (str "type" meta);
  Alcotest.(check string) "schema tag" Obs.Trace.schema_version (str "schema" meta);
  Alcotest.(check string) "clock contract" "ns-since-process-start" (str "clock" meta);
  let event = typed "event" in
  let fields = J.member "fields" event in
  Alcotest.(check string) "event name" "e" (str "name" event);
  Alcotest.(check bool) "event has timestamp" true (int "ts_ns" event >= 0);
  Alcotest.(check int) "int field" 42 (int "i" fields);
  Alcotest.(check string) "escaped string survives" "quote\"back\\slash" (str "s" fields);
  Alcotest.(check bool) "bool field" true (J.to_bool (J.member "b" fields));
  Alcotest.(check bool) "nan must serialise as null" true (J.member "nan" fields = J.Null);
  let span = typed "span" in
  Alcotest.(check int) "span start" 5 (int "start_ns" span);
  Alcotest.(check int) "span duration" 7 (int "dur_ns" span);
  Alcotest.(check bool) "metric lines decode" true
    (List.map Obs.Metrics.of_record [ typed "counter"; typed "histogram"; typed "timer" ]
    = [
        (Obs.Names.explore_nodes, Obs.Metrics.Counter 42);
        ( Obs.Names.trail_undo_depth,
          Obs.Metrics.Histogram { count = 1; sum = 3; max_value = 3; buckets = [ (3, 1) ] } );
        (Obs.Names.explore_time_total, Obs.Metrics.Timer { ns = 1234; intervals = 1 });
      ])

let test_explore_trace_is_schema_valid () =
  let path = Filename.temp_file "nrl_explore_trace" ".ndjson" in
  let tr = Obs.Trace.create ~path in
  let reg = Obs.Metrics.create () in
  let scen = Workload.Scenarios.register ~nprocs:2 ~ops:1 () in
  let sim = Sim.create ~nprocs:2 () in
  scen.Workload.Trial.build sim;
  let _ =
    Explore.find_violation ~cfg:crashy_cfg ~jobs:2 ~obs:reg ~trace:tr
      ~check:Workload.Check.nrl_violation sim
  in
  Obs.Trace.metrics tr reg;
  Obs.Trace.close tr;
  let parsed = J.read_ndjson path in
  Sys.remove path;
  Alcotest.(check bool) "trace non-trivial" true (List.length parsed > 3);
  List.iteri
    (fun i j ->
      let typ = J.to_string (J.member "type" j) in
      if i = 0 then Alcotest.(check string) "meta first" "meta" typ
      else
        Alcotest.(check bool)
          (Printf.sprintf "line %d has a known type (%s)" i typ)
          true
          (List.mem typ [ "event"; "span"; "counter"; "timer"; "histogram" ]))
    parsed

(* {1 Catalogue coverage} *)

let test_run_emits_only_catalogued_names () =
  let reg = explore_registry ~jobs:2 ~incremental:true () in
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s is catalogued" name)
        true
        (Obs.Names.kind_of name <> None))
    (Obs.Metrics.to_list reg)

let test_catalogue_kinds_match_registry () =
  let reg = explore_registry ~jobs:1 ~incremental:false () in
  List.iter
    (fun (name, v) ->
      let kind =
        match (v : Obs.Metrics.view) with
        | Obs.Metrics.Counter _ -> Obs.Names.Counter
        | Obs.Metrics.Timer _ -> Obs.Names.Timer
        | Obs.Metrics.Histogram _ -> Obs.Names.Histogram
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s kind matches catalogue" name)
        true
        (Obs.Names.kind_of name = Some kind))
    (Obs.Metrics.to_list reg)

(* {1 Torture-harness counters} *)

let test_torture_counters () =
  let reg = Obs.Metrics.create () in
  let c = Runtime.Rcounter.create ~nprocs:1 in
  let stats = Runtime.Torture.stats_zero () in
  let rng = Runtime.Torture.rng_create 42 in
  let n = 500 in
  for _ = 1 to n do
    Runtime.Torture.rcounter_inc ~rng ~crash_prob:0.3 ~stats ~obs:reg c ~pid:0
  done;
  let cval name =
    match Obs.Metrics.view reg name with Some (Obs.Metrics.Counter v) -> v | _ -> 0
  in
  Alcotest.(check int) "ops mirrors stats" stats.Runtime.Torture.ops
    (cval Obs.Names.torture_ops);
  Alcotest.(check int) "ops count" n (cval Obs.Names.torture_ops);
  Alcotest.(check int) "crashes mirrors stats" stats.Runtime.Torture.crashes
    (cval Obs.Names.torture_crashes);
  Alcotest.(check bool) "crash injection exercised" true
    (cval Obs.Names.torture_crashes > 0);
  Alcotest.(check int) "retries mirrors stats" stats.Runtime.Torture.retries
    (cval Obs.Names.torture_retries);
  Alcotest.(check bool) "crashes are retried" true (cval Obs.Names.torture_retries > 0);
  (* the pinned harness relation: every fired crash point leads to
     exactly one more recovery attempt, unless the watchdog aborted *)
  Alcotest.(check int) "crashes = retries + aborted_recoveries"
    (cval Obs.Names.torture_crashes)
    (cval Obs.Names.torture_retries + cval Obs.Names.torture_aborted_recoveries)

(* {1 Progress reporter} *)

let test_progress_final_line () =
  let path = Filename.temp_file "nrl_progress" ".txt" in
  let oc = open_out path in
  let p = Obs.Progress.create ~out:oc ~interval:3600.0 ~label:"t" () in
  Obs.Progress.set_tasks p 4;
  Obs.Progress.task_done p;
  Obs.Progress.tick p ~nodes:100 (* interval not elapsed: stays silent *);
  Obs.Progress.finish p ~nodes:123;
  close_out oc;
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Sys.remove path;
  match lines with
  | [ line ] ->
    Alcotest.(check bool) "exact node total" true
      (let has sub =
         let n = String.length line and m = String.length sub in
         let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
         go 0
       in
       has "123 nodes" && has "tasks 1/4" && has "done")
  | l -> Alcotest.fail (Printf.sprintf "expected exactly the final line, got %d" (List.length l))

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "merge is an exact sum" `Quick test_merge_is_exact_sum;
    Alcotest.test_case "counters invariant across jobs" `Slow
      test_counters_invariant_across_engines;
    Alcotest.test_case "counters invariant under real steals" `Slow
      test_counters_invariant_under_steals;
    Alcotest.test_case "counters invariant across kill-and-resume" `Slow
      test_counters_invariant_across_resume;
    Alcotest.test_case "json: strict RFC 8259 parsing" `Quick test_json_strict;
    Alcotest.test_case "json: exact ints, shortest floats" `Quick test_json_numbers;
    Alcotest.test_case "json: line and document printers" `Quick test_json_printers;
    Alcotest.test_case "metric records round-trip" `Quick test_metric_records;
    Alcotest.test_case "trace round-trips through the JSON reader" `Quick test_trace_roundtrip;
    Alcotest.test_case "explorer trace is schema-valid" `Quick
      test_explore_trace_is_schema_valid;
    Alcotest.test_case "runs emit only catalogued names" `Quick
      test_run_emits_only_catalogued_names;
    Alcotest.test_case "catalogue kinds match the registry" `Quick
      test_catalogue_kinds_match_registry;
    Alcotest.test_case "torture counters" `Quick test_torture_counters;
    Alcotest.test_case "progress final line" `Quick test_progress_final_line;
    Alcotest.test_case "trail metrics of a direct search pinned" `Quick
      test_trail_metrics_pinned;
    Alcotest.test_case "bucket_of = bit length" `Quick test_bucket_of;
  ]
