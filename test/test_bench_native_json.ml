(* The BENCH_native.json document ([nrlsim bench-native --json]) must
   stay parseable by strict JSON consumers — the CI trend scripts read
   it with stock parsers.  Mirrors test_bench_json.ml (the simulator
   suite's document), parsing with the same strict Obs.Json. *)

module B = Runtime.Bench_native_json

open Obs.Json

(* {1 A representative document} *)

let sample () =
  {
    B.domains_available = 4;
    duration_s = 0.25;
    throughput =
      [
        {
          B.tp_object = "cas";
          tp_impl = "recoverable";
          tp_mode = "contended";
          tp_width = 1;
          tp_domains = 2;
          tp_ops = 1_000_000;
          tp_seconds = 0.25;
          tp_ops_per_sec = 4_000_000.;
        };
        {
          B.tp_object = "stack";
          tp_impl = "plain";
          tp_mode = "uncontended";
          tp_width = 8;
          tp_domains = 1;
          tp_ops = 10;
          tp_seconds = 0.;
          tp_ops_per_sec = infinity (* a degenerate window must render as null *);
        };
      ];
    latency =
      [
        { B.ns_name = "recoverable t&s (fresh, win)"; ns_ns = 49.2 };
        { B.ns_name = "with \"quotes\""; ns_ns = nan };
      ];
    alloc_per_op =
      [
        { B.al_name = "recoverable faa"; al_words = 0. };
        { B.al_name = "recoverable stack push+pop"; al_words = 9. };
      ];
  }

let test_parses_and_keys () =
  let doc = parse (B.render (sample ())) in
  Alcotest.(check string) "schema tag" B.schema_version (to_string (member "schema" doc));
  Alcotest.(check int) "domains honest" 4
    (to_int (member "domains_available" doc));
  Alcotest.(check bool) "duration recorded" true
    (to_float (member "duration_s" doc) = 0.25)

let test_throughput_rows () =
  let doc = parse (B.render (sample ())) in
  let rows = to_list (member "throughput" doc) in
  Alcotest.(check int) "both rows survive" 2 (List.length rows);
  let r0 = List.hd rows in
  Alcotest.(check string) "object" "cas" (to_string (member "object" r0));
  Alcotest.(check string) "impl" "recoverable" (to_string (member "impl" r0));
  Alcotest.(check string) "mode" "contended" (to_string (member "mode" r0));
  Alcotest.(check int) "width" 1 (to_int (member "width" r0));
  Alcotest.(check int) "domains" 2 (to_int (member "domains" r0));
  Alcotest.(check int) "ops" 1_000_000 (to_int (member "ops" r0));
  Alcotest.(check bool) "rate" true (to_float (member "ops_per_sec" r0) = 4_000_000.);
  let r1 = List.nth rows 1 in
  Alcotest.(check bool) "infinite rate becomes null, not inf" true
    (member "ops_per_sec" r1 = Null)

let test_latency_and_alloc_rows () =
  let doc = parse (B.render (sample ())) in
  let ns = to_list (member "latency" doc) in
  let r0 = List.hd ns in
  Alcotest.(check string) "latency names shared with BENCH_explore"
    "recoverable t&s (fresh, win)" (to_string (member "name" r0));
  Alcotest.(check bool) "ns value" true (to_float (member "ns" r0) = 49.2);
  Alcotest.(check string) "escaped name round-trips" "with \"quotes\""
    (to_string (member "name" (List.nth ns 1)));
  Alcotest.(check bool) "nan becomes null" true (member "ns" (List.nth ns 1) = Null);
  let al = to_list (member "alloc_per_op" doc) in
  Alcotest.(check bool) "alloc-free row is 0.0" true
    (to_float (member "words" (List.hd al)) = 0.);
  Alcotest.(check bool) "stack allocation documented" true
    (to_float (member "words" (List.nth al 1)) = 9.)

let test_empty_arrays_parse () =
  let doc =
    parse
      (B.render
         {
           B.domains_available = 1;
           duration_s = 0.;
           throughput = [];
           latency = [];
           alloc_per_op = [];
         })
  in
  Alcotest.(check int) "no throughput rows" 0 (List.length (to_list (member "throughput" doc)));
  Alcotest.(check int) "no latency rows" 0 (List.length (to_list (member "latency" doc)));
  Alcotest.(check int) "no alloc rows" 0 (List.length (to_list (member "alloc_per_op" doc)))

let test_checked_in_artifact () =
  let doc = parse (Test_bench_json.read_file "../BENCH_native.json") in
  Alcotest.(check string) "schema tag" B.schema_version (to_string (member "schema" doc));
  Alcotest.(check bool) "domains honest" true (to_int (member "domains_available" doc) >= 1);
  List.iter
    (fun r ->
      ignore (to_string (member "object" r), to_int (member "ops" r));
      ignore (to_float (member "ops_per_sec" r)))
    (to_list (member "throughput" doc));
  let ns name rows = List.find (fun r -> to_string (member "name" r) = name) rows in
  let latency = to_list (member "latency" doc) in
  (* the rows the CI latency gate reads *)
  List.iter
    (fun name -> Alcotest.(check bool) name true (to_float (member "ns" (ns name latency)) > 0.))
    [ "recoverable faa"; "recoverable t&s (fresh, win)" ];
  List.iter (fun r -> ignore (to_float (member "words" r))) (to_list (member "alloc_per_op" doc))

let suite =
  [
    Alcotest.test_case "document parses; header fields" `Quick test_parses_and_keys;
    Alcotest.test_case "throughput rows round-trip" `Quick test_throughput_rows;
    Alcotest.test_case "latency/alloc rows round-trip" `Quick test_latency_and_alloc_rows;
    Alcotest.test_case "empty arrays stay valid JSON" `Quick test_empty_arrays_parse;
    Alcotest.test_case "checked-in BENCH_native.json parses" `Quick test_checked_in_artifact;
  ]
