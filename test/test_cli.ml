(* Golden/expect tests for the nrlsim CLI: the help surface, the shape of
   the --stats counter section, the byte-exact [theorem] report, and the
   exit-code contract pinned in
   docs/cli.md (0 clean, 2 violation found, 3 budget/signal cut short,
   124 command-line error).

   The executable is a declared dune dependency of this test, so it is
   always the one built from the current tree.  Tests run with the test
   directory as the working directory; the binary lives at
   ../bin/nrlsim.exe in the build tree. *)

let exe = Filename.concat (Filename.concat ".." "bin") "nrlsim.exe"

(* Run [exe args], capturing the output selected by [redirect] (appended
   to the command line) and the exit code. *)
let run_cli_redirect redirect args =
  let out = Filename.temp_file "nrl_cli" ".out" in
  let cmd =
    Printf.sprintf "%s > %s%s"
      (Filename.quote_command exe args)
      (Filename.quote out) redirect
  in
  let code = Sys.command cmd in
  let output = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, output)

(* Combined stdout+stderr. *)
let run_cli = run_cli_redirect " 2>&1"

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let assert_contains out needle =
  if not (contains ~needle out) then
    Alcotest.failf "output does not mention %S:\n%s" needle out

(* {2 Help surface} *)

let test_help_lists_subcommands () =
  let code, out = run_cli [ "--help=plain" ] in
  Alcotest.(check int) "--help exits 0" 0 code;
  (* the golden part: every subcommand with its one-line purpose *)
  List.iter (assert_contains out)
    [
      "check [OPTION]";
      "One seeded run with the full history and NRL verdict";
      "explore [OPTION]";
      "Bounded exhaustive schedule exploration (use small instances)";
      "fuzz [OPTION]";
      "Coverage-guided scenario fuzzing with counterexample shrinking";
      "list [OPTION]";
      "List available scenarios";
      "run [OPTION]";
      "Randomized crash-torture batch with NRL checking";
      "serve [OPTION]";
      "Run the sharded recoverable-object service";
      "bench-service [OPTION]";
      "Crash-adversarial service bench";
      "bench-explore [--json] [--out=FILE]";
      "Simulator and explorer benchmark";
      "theorem [OPTION]";
      "Theorem 4 analysis";
    ]

let test_fuzz_help_lists_flags () =
  let code, out = run_cli [ "fuzz"; "--help=plain" ] in
  Alcotest.(check int) "fuzz --help exits 0" 0 code;
  List.iter (assert_contains out)
    [
      "--seeds"; "--seed"; "--kinds"; "--budget"; "--corpus"; "--resume"; "--shrink";
      "--zoo"; "--zoo-budget"; "--replay"; "--stats"; "--trace";
    ]

(* {2 docs/cli.md stays in sync with the help surface} *)

let cli_md = Filename.concat (Filename.concat ".." "docs") "cli.md"

(* Every maximal [--foo-bar] token in [s], in sorted order.  Runs of
   dashes (markdown table rules) and mid-word dashes never match: a flag
   starts with exactly two dashes followed by a lowercase letter. *)
let extract_flags s =
  let n = String.length s in
  let is_body = function 'a' .. 'z' | '0' .. '9' | '-' -> true | _ -> false in
  let rec go i acc =
    if i + 2 >= n then List.sort_uniq compare acc
    else if
      s.[i] = '-'
      && s.[i + 1] = '-'
      && (i = 0 || s.[i - 1] <> '-')
      && (match s.[i + 2] with 'a' .. 'z' -> true | _ -> false)
    then (
      let j = ref (i + 2) in
      while !j < n && is_body s.[!j] do
        incr j
      done;
      go !j (String.sub s i (!j - i) :: acc))
    else go (i + 1) acc
  in
  go 0 []

let test_docs_flags_match_help () =
  let doc = In_channel.with_open_bin cli_md In_channel.input_all in
  let doc_flags = extract_flags doc in
  let help_flags =
    List.concat_map
      (fun sub ->
        let code, out = run_cli [ sub; "--help=plain" ] in
        Alcotest.(check int) (sub ^ " --help exits 0") 0 code;
        extract_flags out)
      [ "run"; "check"; "explore"; "fuzz"; "theorem"; "bench-explore"; "bench-native";
        "serve"; "bench-service"; "list" ]
    |> List.sort_uniq compare
    |> List.filter (fun f -> f <> "--version")
  in
  (* every flag the binary accepts is documented *)
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " documented in docs/cli.md") true
        (List.mem f doc_flags))
    help_flags;
  (* every flag the documentation mentions still exists *)
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " in docs/cli.md is a real flag") true
        (List.mem f help_flags))
    doc_flags;
  (* the fuzz --kinds default row lists the object-kind catalogue *)
  let kinds_row =
    List.find_opt
      (fun l -> String.starts_with ~prefix:"| `--kinds" l)
      (String.split_on_char '\n' doc)
  in
  match Option.map (String.split_on_char '|') kinds_row with
  | Some (_ :: _ :: default :: _) ->
    Alcotest.(check string) "docs/cli.md --kinds default is Fuzz.Gen.base_kinds"
      ("`" ^ String.concat "," Fuzz.Gen.base_kinds ^ "`")
      (String.trim default)
  | _ -> Alcotest.fail "no --kinds row in docs/cli.md"

(* {2 --stats counter section shape} *)

let test_run_stats_counter_section () =
  let code, out = run_cli [ "run"; "counter"; "--trials"; "5"; "--stats" ] in
  Alcotest.(check int) "clean batch exits 0" 0 code;
  let lines = String.split_on_char '\n' out in
  let rec after = function
    | [] -> Alcotest.failf "no 'counters:' section in:\n%s" out
    | "counters:" :: tl -> tl
    | _ :: tl -> after tl
  in
  let rec section acc = function
    | l :: tl when String.length l > 2 && String.sub l 0 2 = "  " -> section (l :: acc) tl
    | _ -> List.rev acc
  in
  let counters = section [] (after lines) in
  if counters = [] then Alcotest.failf "empty counter section in:\n%s" out;
  let names =
    List.map
      (fun l ->
        match String.split_on_char ' ' (String.trim l) with
        | name :: rest ->
          (* shape: two-space indent, name, spaces, integer value *)
          (match List.filter (fun s -> s <> "") rest with
          | [ v ] when int_of_string_opt v <> None -> name
          | _ -> Alcotest.failf "malformed counter line %S" l)
        | [] -> Alcotest.failf "malformed counter line %S" l)
      counters
  in
  (* every printed counter is catalogued, engine-invariant, and the
     section is sorted by name *)
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (n ^ " catalogued as a counter") true
        (Obs.Names.kind_of n = Some Obs.Names.Counter);
      Alcotest.(check bool) (n ^ " engine-invariant") true (Obs.Names.engine_invariant n))
    names;
  Alcotest.(check (list string)) "sorted by name" (List.sort compare names) names;
  (* the core machine counters are always present for a torture batch *)
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " present") true (List.mem n names))
    [ "sim.steps"; "sim.crashes"; "sim.recoveries"; "nrl.checks" ]

(* {2 The theorem report, byte for byte} *)

(* theorem.expected pins every number of the report: configurations
   explored, critical depths, crash extensions and violation strings. *)
let test_theorem_golden () =
  let code, out = run_cli_redirect "" [ "theorem" ] in
  Alcotest.(check int) "theorem exits 0" 0 code;
  let expected = In_channel.with_open_bin "theorem.expected" In_channel.input_all in
  Alcotest.(check string) "stdout matches theorem.expected" expected out

(* zoo.expected pins the bug zoo's report: each mutant's detecting seed
   and descriptor and its shrink-run count, all deterministic. *)
let test_zoo_golden () =
  let code, out = run_cli_redirect "" [ "fuzz"; "--zoo" ] in
  Alcotest.(check int) "fuzz --zoo exits 0" 0 code;
  let expected = In_channel.with_open_bin "zoo.expected" In_channel.input_all in
  Alcotest.(check string) "stdout matches zoo.expected" expected out

(* list.expected pins the scenario names and their order: the object-kind
   catalogue, the other named scenarios, then every zoo mutant. *)
let test_list_golden () =
  let code, out = run_cli_redirect "" [ "list" ] in
  Alcotest.(check int) "list exits 0" 0 code;
  let expected = In_channel.with_open_bin "list.expected" In_channel.input_all in
  Alcotest.(check string) "stdout matches list.expected" expected out

(* {2 Exit codes (docs/cli.md)} *)

let test_exit_0_clean () =
  let code, _ = run_cli [ "run"; "counter"; "--trials"; "3" ] in
  Alcotest.(check int) "clean run exits 0" 0 code

let test_exit_2_violation () =
  (* counter-read-skip-persist is pinned (test_fuzz) to violate at the
     very first campaign seed *)
  let code, out =
    run_cli [ "fuzz"; "--kinds"; "counter-read-skip-persist"; "--seeds"; "1"; "--shrink"; "false" ]
  in
  Alcotest.(check int) "violation exits 2" 2 code;
  assert_contains out "violation at seed"

let test_exit_3_budget () =
  (* a seed budget far beyond what fits into ~1s of wall clock *)
  let code, out = run_cli [ "fuzz"; "--seeds"; "1000000"; "--budget"; "1s" ] in
  Alcotest.(check int) "budget cut exits 3" 3 code;
  assert_contains out "stopped:"

let test_exit_124_cli_errors () =
  let cases =
    [
      [ "run"; "--no-such-flag" ];
      [ "fuzz"; "--replay"; "garbage" ];
      [ "fuzz"; "--kinds"; "no-such-kind"; "--seeds"; "1" ];
      [ "fuzz"; "--budget"; "soon" ];
      [ "bench-service"; "--duration"; "0" ];
      [ "bench-service"; "--crash"; "meteor" ];
      [ "serve"; "--shards"; "0" ];
      [ "explore"; "nosuch" ];
      [ "run"; "nosuch" ];
      [ "fuzz"; "--resume" ];
      (* one case per validated flag kind: counts, probabilities,
         positive and non-negative durations *)
      [ "run"; "register"; "-n"; "0"; "--trials"; "1" ];
      [ "run"; "register"; "--trials"; "0" ];
      [ "explore"; "register"; "-n"; "2"; "--ops"; "0" ];
      [ "explore"; "register"; "-n"; "2"; "--max-steps"; "0" ];
      [ "explore"; "register"; "--crashes=-1" ];
      [ "fuzz"; "--seeds"; "0" ];
      [ "run"; "register"; "--crash-prob"; "2" ];
      [ "bench-native"; "--duration"; "0" ];
      [ "bench-explore"; "T99" ];
      [ "explore"; "register"; "--deadline=-1" ];
    ]
  in
  List.iter
    (fun args ->
      let code, _ = run_cli args in
      Alcotest.(check int) (String.concat " " args ^ " exits 124") 124 code)
    cases;
  (* the boundary values documented as valid stay accepted *)
  List.iter
    (fun (args, want) ->
      let code, _ = run_cli args in
      Alcotest.(check int) (String.concat " " args ^ " is accepted") want code)
    [
      ([ "run"; "register"; "--trials"; "1"; "--max-crashes"; "0"; "--system-crash-prob"; "0" ], 0);
      ( [ "explore"; "register"; "-n"; "2"; "--ops"; "1"; "--crashes"; "0"; "--deadline"; "0";
          "--checkpoint-interval"; "0" ],
        3 );
    ]

(* A mutant scenario is named like a base one: the mutant, then the
   process and operation counts it runs. *)
let test_mutant_scenario_name () =
  let code, out = run_cli [ "run"; "rw-skip-log"; "-n"; "2"; "--ops"; "2"; "--trials"; "3" ] in
  Alcotest.(check int) "clean batch exits 0" 0 code;
  assert_contains out "rw-skip-log/n2/ops2: 3/3 passed NRL";
  (* T&S scripts one op per process, so its names carry no op count *)
  let code, out = run_cli [ "run"; "tas-skip-res"; "-n"; "2"; "--trials"; "3" ] in
  Alcotest.(check int) "clean batch exits 0" 0 code;
  assert_contains out "tas-skip-res/n2: 3/3 passed NRL"

(* A named scenario's batch is named after the scenario it runs, so the
   printed name is one [nrlsim] accepts. *)
let test_named_scenario_name () =
  let _, out = run_cli [ "run"; "naive-tas"; "-n"; "3"; "--trials"; "3" ] in
  assert_contains out "naive-tas/n3: "

(* The first "seed=N" printed by a failing run batch. *)
let failure_seed out =
  let marker = "first failure seed=" in
  let rec find i =
    if i + String.length marker > String.length out then
      Alcotest.failf "no failure seed in:\n%s" out
    else if String.sub out i (String.length marker) = marker then i + String.length marker
    else find (i + 1)
  in
  let start = find 0 in
  let stop = String.index_from out start ':' in
  String.sub out start (stop - start)

let test_run_seed_replays_in_check () =
  (* only a system crash loses pending writes under the explicit model,
     so this batch fails solely through --system-crash-prob; check must
     take the same flag to reproduce it *)
  let flags =
    [ "rw-write-skip-flush-r"; "-n"; "2"; "--ops"; "4"; "--persist-model"; "explicit";
      "--system-crash-prob"; "0.05" ]
  in
  let code, out = run_cli (("run" :: flags) @ [ "--trials"; "40" ]) in
  Alcotest.(check int) "failing batch exits 2" 2 code;
  let seed = failure_seed out in
  let code, out = run_cli (("check" :: flags) @ [ "--seed"; seed ]) in
  Alcotest.(check int) ("check --seed " ^ seed ^ " exits 2") 2 code;
  assert_contains out "NRL: "

(* {2 One explore reporter for the direct search and the task pool} *)

let test_explore_reporter () =
  let ck = Filename.temp_file "nrl_cli" ".ck" in
  (* [args] searched directly, then through the checkpointing task pool *)
  let both args =
    let direct = run_cli ("explore" :: args) in
    let pooled = run_cli (("explore" :: args) @ [ "--checkpoint"; ck ]) in
    (direct, pooled)
  in
  (* "no violation: ... (N jobs, 0.1s)" up to its wall-clock field *)
  let up_to_clock out =
    let line = List.hd (String.split_on_char '\n' out) in
    String.sub line 0 (String.rindex line ',')
  in
  let (c1, o1), (c2, o2) = both [ "register"; "-n"; "2"; "--ops"; "1"; "--crashes"; "1" ] in
  Alcotest.(check (pair int int)) "clean exits 0 both ways" (0, 0) (c1, c2);
  assert_contains o1 "no violation: ";
  Alcotest.(check string) "same clean summary both ways" (up_to_clock o1) (up_to_clock o2);
  let (c1, o1), (c2, o2) =
    both
      [ "rw-write-skip-flush-r"; "-n"; "2"; "--ops"; "4"; "--persist-model"; "explicit"; "--dedup" ]
  in
  Alcotest.(check (pair int int)) "violation exits 2 both ways" (2, 2) (c1, c2);
  assert_contains o1 "VIOLATION:";
  assert_contains o2 "VIOLATION:";
  let (c1, o1), (c2, o2) =
    both [ "register"; "-n"; "2"; "--ops"; "1"; "--crashes"; "1"; "--max-nodes"; "500" ]
  in
  Alcotest.(check (pair int int)) "node budget exits 3 both ways" (3, 3) (c1, c2);
  assert_contains o1 "exhausted (max-nodes)";
  assert_contains o2 "exhausted (max-nodes)";
  Sys.remove ck

let test_replay_roundtrip () =
  (* a violating campaign prints a replay line; replaying it must violate *)
  let _, out =
    run_cli [ "fuzz"; "--kinds"; "tas-skip-res"; "--seeds"; "1" ]
  in
  let marker = "--replay '" in
  let idx =
    let rec find i =
      if i + String.length marker > String.length out then
        Alcotest.failf "no replay line in:\n%s" out
      else if String.sub out i (String.length marker) = marker then i + String.length marker
      else find (i + 1)
    in
    find 0
  in
  let stop = String.index_from out idx '\'' in
  let desc = String.sub out idx (stop - idx) in
  let code, out2 = run_cli [ "fuzz"; "--replay"; desc ] in
  Alcotest.(check int) "replayed reproducer exits 2" 2 code;
  assert_contains out2 "VIOLATION"

let suite =
  [
    Alcotest.test_case "help lists all subcommands" `Quick test_help_lists_subcommands;
    Alcotest.test_case "fuzz help lists its flags" `Quick test_fuzz_help_lists_flags;
    Alcotest.test_case "docs/cli.md flag list matches --help" `Quick
      test_docs_flags_match_help;
    Alcotest.test_case "run --stats counter section shape" `Quick
      test_run_stats_counter_section;
    Alcotest.test_case "exit 0 on a clean run" `Quick test_exit_0_clean;
    Alcotest.test_case "exit 2 on a violation" `Quick test_exit_2_violation;
    Alcotest.test_case "exit 3 on budget exhaustion" `Quick test_exit_3_budget;
    Alcotest.test_case "exit 124 on CLI errors" `Quick test_exit_124_cli_errors;
    Alcotest.test_case "printed reproducers replay" `Quick test_replay_roundtrip;
    Alcotest.test_case "run failure seeds replay in check" `Quick
      test_run_seed_replays_in_check;
    Alcotest.test_case "mutant scenarios are named like base ones" `Quick
      test_mutant_scenario_name;
    Alcotest.test_case "named scenarios are named after their row" `Quick
      test_named_scenario_name;
    Alcotest.test_case "one explore reporter, direct and pooled" `Quick test_explore_reporter;
    Alcotest.test_case "theorem stdout matches golden" `Quick test_theorem_golden;
    Alcotest.test_case "list stdout matches golden" `Quick test_list_golden;
    Alcotest.test_case "fuzz --zoo stdout matches golden" `Quick test_zoo_golden;
  ]
