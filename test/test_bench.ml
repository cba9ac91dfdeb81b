(* The one bench document (Obs.Bench, schema nrl-bench/6): what the three
   producers render must parse as strict JSON with Obs.Json, the parser
   every reader in the repo shares, and carry the keys CI reads; so must
   the three checked-in artifacts.  CI's native latency gate divides by
   two baselines of BENCH_native.json, pinned here as literals, and the
   cheap sections of BENCH_explore.json are re-run against their
   checked-in counts.  Three suites, one per producer: the simulator
   bench (bench-json), the native suite (bench-native-json) and the
   service engine (service-json). *)

module B = Obs.Bench

open Obs.Json

let read_file path = In_channel.with_open_bin path In_channel.input_all
let rows doc = to_list (member "rows" doc)
let str k r = to_string (member k r)
let named name rows = List.find (fun r -> str "name" r = name) rows
let in_section s rows = List.filter (fun r -> str "section" r = s) rows
let has k = function Obj kv -> List.mem_assoc k kv | _ -> false

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* every row starts with its layer, section and name *)
let check_row_header r =
  (match r with
  | Obj (("layer", Str l) :: ("section", Str _) :: ("name", Str _) :: _) ->
    if not (List.mem l [ "native"; "machine"; "explore"; "service" ]) then
      Alcotest.failf "unknown layer %s" l
  | _ -> Alcotest.failf "row without layer/section/name: %s" (to_line r));
  ignore (str "name" r)

let check_header doc =
  Alcotest.(check string) "schema tag" B.schema (str "schema" doc);
  Alcotest.(check bool) "domains honest" true
    (to_int (member "domains_available" (member "host" doc)) >= 1);
  ignore (member "config" doc);
  List.iter check_row_header (rows doc)

(* {1 A representative document} *)

let sample () =
  {
    B.config = [ ("sections", Arr [ Str "T5"; Str "F3" ]) ];
    rows =
      [
        B.row Native ~section:"F3" "plain \"write\"" [ ("ns", Num 12.5) ];
        B.row Native ~section:"T2" "recoverable faa" [ ("ns", Num nan) ];
        B.row Machine ~section:"T5" "register WRITE N=2"
          [ ("op", Str "register WRITE"); ("nprocs", Int 2); ("accesses", Int 3) ];
        B.row Native ~section:"T10" "stack plain uncontended w=8 d=1"
          [ ("ops", Int 10); ("ops_per_sec", Num infinity) ];
        B.row Explore ~section:"T6" "register jobs=1" [ ("nodes", Int 100) ];
        B.row Service ~section:"T11" "none" [ ("crashes", Int 0) ];
      ];
  }

let test_parses_and_keys () =
  let doc = parse (B.render (sample ())) in
  check_header doc;
  Alcotest.(check string) "ocaml version stamped" Sys.ocaml_version
    (str "ocaml" (member "host" doc));
  Alcotest.(check int) "config kept" 2
    (List.length (to_list (member "sections" (member "config" doc))));
  let rs = rows doc in
  Alcotest.(check (list string)) "rows survive, layers spelled"
    [ "native"; "native"; "machine"; "native"; "explore"; "service" ]
    (List.map (str "layer") rs);
  let r0 = List.hd rs in
  Alcotest.(check string) "layer" "native" (str "layer" r0);
  Alcotest.(check string) "section" "F3" (str "section" r0);
  Alcotest.(check string) "escaped name round-trips" "plain \"write\"" (str "name" r0);
  Alcotest.(check bool) "ns value" true (to_float (member "ns" r0) = 12.5);
  Alcotest.(check bool) "nan becomes null" true (member "ns" (List.nth rs 1) = Null);
  let pe = List.nth rs 2 in
  Alcotest.(check string) "persist op" "register WRITE" (str "op" pe);
  Alcotest.(check int) "persist accesses" 3 (to_int (member "accesses" pe));
  Alcotest.(check bool) "infinite rate becomes null, not inf" true
    (member "ops_per_sec" (List.nth rs 3) = Null)

(* the derived rates: count / seconds, null on a zero-length window.  The
   checked-in explore rows carry them too; older producers printed
   [seconds] and the rates to three decimals, so the check is that the
   rate implies that time up to the rounding *)
let test_explore_rows () =
  Alcotest.(check bool) "nodes/s derived" true
    (Float.abs (to_float (B.per_sec 265631 0.5) -. (265631. /. 0.5)) < 1.);
  Alcotest.(check bool) "zero-duration rate is null, not inf" true (B.per_sec 100 0. = Null);
  let doc = parse (read_file "../BENCH_explore.json") in
  let explore = List.filter (fun r -> str "layer" r = "explore") (rows doc) in
  Alcotest.(check bool) "explore rows present" true (explore <> []);
  List.iter
    (fun r ->
      let seconds = to_float (member "seconds" r) in
      List.iter
        (fun (count, rate) ->
          let implied = float_of_int (to_int (member count r)) /. to_float (member rate r) in
          if Float.abs (implied -. seconds) > 5e-4 +. (1e-4 *. seconds) then
            Alcotest.failf "%s: %s implies %gs, row says %gs" (str "name" r) rate implied
              seconds)
        [ ("nodes", "nodes_per_sec"); ("terminals", "terminals_per_sec") ];
      ignore (str "mode" r, str "persist" r, to_bool (member "symmetry" r));
      ignore (to_int (member "flushes" r), to_int (member "fences" r));
      if has "trail" r then Alcotest.failf "%s: trail key (gone since nrl-bench/5)" (str "name" r))
    explore;
  let some what p = Alcotest.(check bool) what true (List.exists p explore) in
  some "explicit-persist row" (fun r -> str "persist" r = "explicit");
  some "symmetry recorded (on)" (fun r -> to_bool (member "symmetry" r));
  some "enumeration row" (fun r -> str "mode" r = "dfs")

let test_empty_arrays_parse () =
  let doc = parse (B.render { B.config = []; rows = [] }) in
  check_header doc;
  Alcotest.(check int) "empty rows array" 0 (List.length (rows doc));
  Alcotest.(check bool) "empty config object" true (member "config" doc = Obj [])

(* {1 The checked-in artifacts} *)

let test_checked_in_explore () =
  let doc = parse (read_file "../BENCH_explore.json") in
  check_header doc;
  let rs = rows doc in
  (* one producer per number: [nrlsim bench-explore] writes the
     artifact, and every native row is [nrlsim bench-native]'s *)
  Alcotest.(check bool) "host.ocaml stamped" true (member "ocaml" (member "host" doc) <> Null);
  List.iter
    (fun r ->
      match str "layer" r with
      | "native" -> Alcotest.failf "native row %s (bench-native's)" (str "name" r)
      | "explore" -> ignore (to_float (member "cpu_s" r))
      | _ -> ())
    rs;
  List.iter
    (fun s ->
      if in_section s rs = [] then Alcotest.failf "section %s missing from the artifact" s)
    [ "T5"; "T6"; "T7"; "T8"; "T9"; "T12"; "F2"; "F5" ];
  (* one native implementation per primitive: no "(poly)" twin rows *)
  List.iter
    (fun r ->
      let name = str "name" r in
      if contains name "(poly)" then Alcotest.failf "poly row %s" name)
    rs

(* the cheap sections, re-run: every count field of every row equals the
   checked-in row with the same section and name, and no checked-in row
   of those sections goes unproduced *)
let test_explore_counts_pinned () =
  let sections = [ "T5"; "T7"; "T9"; "F5" ] in
  let key r = (str "section" r, str "name" r) in
  let checked_in =
    List.filter
      (fun r -> List.mem (str "section" r) sections)
      (rows (parse (read_file "../BENCH_explore.json")))
  in
  let live = rows (parse (B.render (Workload.Bench_explore.run sections))) in
  Alcotest.(check (list (pair string string)))
    "same rows as the artifact" (List.map key checked_in) (List.map key live);
  List.iter2
    (fun want got ->
      List.iter
        (fun k ->
          if has k want || has k got then
            Alcotest.(check int)
              (Printf.sprintf "%s %s: %s" (str "section" got) (str "name" got) k)
              (to_int (member k want)) (to_int (member k got)))
        [ "accesses"; "nodes"; "terminals"; "truncated"; "dup"; "flushes"; "fences" ])
    checked_in live

let native_keys = [ "ns"; "ns_min"; "ns_q1"; "ns_q3" ]

(* a T10 throughput row's keys, each read at its type *)
let check_throughput_row r =
  ignore (str "object" r, str "impl" r, str "mode" r);
  ignore (to_int (member "width" r), to_int (member "domains" r), to_int (member "ops" r));
  ignore (to_float (member "seconds" r), to_float (member "ops_per_sec" r))

let test_checked_in_native () =
  let doc = parse (read_file "../BENCH_native.json") in
  check_header doc;
  let rs = rows doc in
  List.iter
    (fun r ->
      Alcotest.(check string) (str "name" r ^ ": layer") "native" (str "layer" r);
      if has "ops" r then check_throughput_row r
      else if has "ns" r then ignore (to_float (member "ns" r))
      else Alcotest.failf "%s: neither a throughput nor a latency row" (str "name" r);
      if has "words" r then ignore (to_float (member "words" r)))
    rs;
  (* the rows the CI latency gate reads *)
  List.iter
    (fun name ->
      Alcotest.(check bool) name true (to_float (member "ns" (named name rs)) > 0.))
    [ "recoverable faa"; "recoverable t&s (fresh, win)" ];
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " allocation-free") true
        (to_float (member "words" (named name rs)) = 0.))
    [ "recoverable write"; "recoverable cas"; "recoverable faa"; "recoverable counter inc" ]

(* CI's latency gate divides by these two baselines: converting or
   regenerating the artifact must not move them silently *)
let test_gated_baselines_pinned () =
  let rs = rows (parse (read_file "../BENCH_native.json")) in
  List.iter
    (fun (name, ns) ->
      Alcotest.(check (float 0.)) name ns (to_float (member "ns" (named name rs))))
    [ ("recoverable faa", 16.485); ("recoverable t&s (fresh, win)", 42.574) ]

(* the healthy-ledger invariants of a service row: every scheduled kill
   delivered and recovered, nothing lost or doubled *)
let check_service_row r =
  let mode = str "mode" r in
  let geti k = to_int (member k r) in
  let crashes = geti "crashes" in
  Alcotest.(check string) (mode ^ ": named after its mode") mode (str "name" r);
  Alcotest.(check int) (mode ^ ": recoveries = crashes") crashes (geti "recoveries");
  Alcotest.(check int) (mode ^ ": schedule delivered") crashes (geti "schedule_len");
  Alcotest.(check int) (mode ^ ": zero violations") 0 (geti "conservation_violations");
  ignore (to_float (member "throughput_rps" r), to_float (member "shed_rate" r));
  List.iter
    (fun h ->
      List.iter
        (fun k -> ignore (to_float (member k (member h r))))
        [ "count"; "p50_ns"; "p99_ns"; "max_ns"; "mean_ns" ])
    [ "latency_ns"; "recovery_ns" ];
  crashes

let service_config_keys =
  [
    "seed"; "shards"; "sessions"; "client_domains"; "keys"; "skew"; "duration_s";
    "deadline_ms"; "queue_bound"; "shed_fraction"; "recrash_prob";
  ]

let test_checked_in_service () =
  let doc = parse (read_file "../BENCH_service.json") in
  check_header doc;
  let cfg = member "config" doc in
  List.iter (fun k -> ignore (to_float (member k cfg))) service_config_keys;
  let rs = rows doc in
  let total_crashes = ref 0 in
  List.iter
    (fun r ->
      let m = str "mode" r in
      Alcotest.(check string) (m ^ ": layer") "service" (str "layer" r);
      let crashes = check_service_row r in
      total_crashes := !total_crashes + crashes;
      Alcotest.(check int) (m ^ ": no giveups") 0 (to_int (member "giveups" r));
      if m <> "none" then begin
        Alcotest.(check bool) (m ^ ": crashes injected") true (crashes > 0);
        Alcotest.(check bool) (m ^ ": recovery times recorded") true
          (to_int (member "count" (member "recovery_ns" r)) >= crashes)
      end;
      Alcotest.(check bool) (m ^ ": traffic flowed") true (to_int (member "ok" r) > 0))
    rs;
  let modes = List.map (str "mode") rs in
  List.iter
    (fun m ->
      if not (List.mem m modes) then Alcotest.failf "mode %s missing from the artifact" m)
    [ "none"; "periodic"; "poisson"; "hot" ];
  Alcotest.(check bool) "survived >= 50 injected crashes" true (!total_crashes >= 50)

(* {1 Live producers} *)

(* one short native run, shared by the three cases that read its rows *)
let live_native =
  lazy
    (let cfg = { Runtime.Bench_native.domains_list = [ 1 ]; width = 1; duration = 0.005 } in
     parse (B.render (Runtime.Bench_native.run cfg)))

let test_native_header () =
  let doc = Lazy.force live_native in
  check_header doc;
  Alcotest.(check string) "ocaml version stamped" Sys.ocaml_version
    (str "ocaml" (member "host" doc));
  Alcotest.(check bool) "duration in config" true
    (to_float (member "duration_s" (member "config" doc)) = 0.005);
  List.iter
    (fun r -> Alcotest.(check string) (str "name" r ^ ": layer") "native" (str "layer" r))
    (rows doc)

let test_native_throughput_rows () =
  let throughput = List.filter (has "ops") (rows (Lazy.force live_native)) in
  Alcotest.(check int) "one row per (object, impl, mode) cell" 18 (List.length throughput);
  List.iter
    (fun r ->
      check_throughput_row r;
      let one_of k l =
        Alcotest.(check bool) (str "name" r ^ ": " ^ k) true (List.mem (str k r) l)
      in
      Alcotest.(check string) (str "name" r ^ ": section") "T10" (str "section" r);
      one_of "object" [ "cas"; "counter"; "counter 90/10"; "faa"; "stack" ];
      one_of "impl" [ "recoverable"; "plain" ];
      one_of "mode" [ "contended"; "uncontended" ];
      Alcotest.(check int) "domains" 1 (to_int (member "domains" r));
      Alcotest.(check int) "width" 1 (to_int (member "width" r));
      Alcotest.(check bool) "ops counted" true (to_int (member "ops" r) > 0);
      let v k = to_float (member k r) in
      Alcotest.(check bool) (str "name" r ^ ": min <= q1 <= median <= q3") true
        (v "ops_per_sec_min" <= v "ops_per_sec_q1"
        && v "ops_per_sec_q1" <= v "ops_per_sec"
        && v "ops_per_sec" <= v "ops_per_sec_q3"))
    throughput;
  (* the 90% inc / 10% read mix, recoverable only *)
  let mix = named "counter 90/10 recoverable contended w=1 d=1" throughput in
  Alcotest.(check string) "read mix: impl" "recoverable" (str "impl" mix)

let test_native_latency_alloc_rows () =
  let rs = rows (Lazy.force live_native) in
  List.iter
    (fun (section, name, _) ->
      let r = named name rs in
      Alcotest.(check string) (name ^ ": section") section (str "section" r);
      let v k = to_float (member k r) in
      List.iter (fun k -> ignore (v k)) native_keys;
      Alcotest.(check bool) (name ^ ": min <= q1 <= median <= q3") true
        (v "ns_min" <= v "ns_q1" && v "ns_q1" <= v "ns" && v "ns" <= v "ns_q3"))
    (Runtime.Bench_native.latency_thunks ());
  (* F3's CAS recovery row scan, one row per N *)
  Alcotest.(check (list string)) "F3 rows"
    [ "scan2"; "scan4"; "scan8"; "scan16"; "scan32"; "scan64"; "scan128" ]
    (List.map (str "name") (in_section "F3" rs));
  (* F1's crash-plus-recovery rows, one per crash position *)
  Alcotest.(check (list string)) "F1 rows"
    (List.init 4 (Printf.sprintf "write crash@%d + recover")
    @ List.init 5 (Printf.sprintf "t&s (fresh) crash@%d + recover")
    @ List.init 3 (Printf.sprintf "cas crash@%d + recover"))
    (List.map (str "name") (in_section "F1" rs));
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " allocation-free") true
        (to_float (member "words" (named name rs)) = 0.))
    [ "recoverable write"; "recoverable cas"; "recoverable faa"; "recoverable counter inc" ];
  Alcotest.(check bool) "stack allocation documented" true
    (to_float (member "words" (named "recoverable stack push+pop" rs)) = 9.)

(* a native document whose sweep is empty: no domains, no rows *)
let test_native_empty_arrays () =
  let config = [ ("domains", Arr []); ("width", Int 1); ("duration_s", Num 0.) ] in
  let doc = parse (B.render { B.config; rows = [] }) in
  check_header doc;
  Alcotest.(check int) "empty domains array" 0
    (List.length (to_list (member "domains" (member "config" doc))));
  Alcotest.(check int) "empty rows array" 0 (List.length (rows doc))

let test_live_service () =
  let cfg =
    {
      Service.Engine.default with
      Service.Engine.shards = 1;
      sessions = 4;
      client_domains = 1;
      keys = 10;
      duration = 0.2;
      mode = Service.Adversary.Poisson;
      crash_interval = 0.05;
      seed = 3;
    }
  in
  let r = Service.Engine.run cfg in
  let doc = parse (B.render (Service.Engine.bench cfg [ r ])) in
  check_header doc;
  let c = member "config" doc in
  Alcotest.(check int) "seed recorded" 3 (to_int (member "seed" c));
  Alcotest.(check int) "shards" 1 (to_int (member "shards" c));
  Alcotest.(check int) "sessions" 4 (to_int (member "sessions" c));
  Alcotest.(check bool) "skew" true (to_float (member "skew" c) = 0.99);
  List.iter (fun k -> ignore (member k c)) service_config_keys;
  match rows doc with
  | [ row ] ->
    Alcotest.(check string) "layer" "service" (str "layer" row);
    Alcotest.(check string) "mode name" "poisson" (str "mode" row);
    ignore (check_service_row row : int)
  | rs -> Alcotest.failf "%d rows, expected one" (List.length rs)

let suite =
  [
    Alcotest.test_case "document parses; ns and persist rows" `Quick test_parses_and_keys;
    Alcotest.test_case "explore rows carry mode/rates" `Quick test_explore_rows;
    Alcotest.test_case "empty arrays stay valid JSON" `Quick test_empty_arrays_parse;
    Alcotest.test_case "checked-in BENCH_explore.json parses" `Quick test_checked_in_explore;
    Alcotest.test_case "cheap sections reproduce the artifact" `Quick
      test_explore_counts_pinned;
  ]

let native_suite =
  [
    Alcotest.test_case "document parses; header fields" `Quick test_native_header;
    Alcotest.test_case "throughput rows round-trip" `Quick test_native_throughput_rows;
    Alcotest.test_case "latency/alloc rows round-trip" `Quick test_native_latency_alloc_rows;
    Alcotest.test_case "empty arrays stay valid JSON" `Quick test_native_empty_arrays;
    Alcotest.test_case "checked-in BENCH_native.json parses" `Quick test_checked_in_native;
    Alcotest.test_case "gated latency baselines pinned" `Quick test_gated_baselines_pinned;
  ]

let service_suite =
  [
    Alcotest.test_case "live engine run renders strict JSON" `Quick test_live_service;
    Alcotest.test_case "checked-in BENCH_service.json is healthy" `Quick
      test_checked_in_service;
  ]
