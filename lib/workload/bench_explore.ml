(** The simulator and explorer benchmark: T5's solo access counts, the
    exhaustive-search table (T6-T9, T12, F5) and F2's checker cost.  The
    paper (PODC'18) has no empirical evaluation; these rows are the
    evaluation a systems reader would expect, with the expected shapes
    in DESIGN.md section 5. *)

module Sim = Machine.Sim
module Explore = Machine.Explore
open Obs.Json

(* {1 T5: shared accesses (persist events) per solo operation} *)

(* In the paper's model every shared access is immediately persistent, so
   the accesses of one operation are the model's analogue of flush
   complexity: each row runs its script solo on a fresh object *)
let solo_ops =
  let open Objects in
  let arg n = Nvm.Value.Int n in
  [
    ("register WRITE", (fun s -> Rw_obj.make s), [ ("WRITE", [| Opgen.tagged 0 1 |]) ]);
    ("register READ", (fun s -> Rw_obj.make s), [ ("READ", [||]) ]);
    ("cas CAS (success)", Cas_obj.make, [ ("CAS", [| Nvm.Value.Null; Opgen.tagged 0 1 |]) ]);
    ("tas T&S (win)", (fun s -> Tas_obj.make s), [ ("T&S", [||]) ]);
    ("counter INC", Counter_obj.make, [ ("INC", [||]) ]);
    ("counter READ", Counter_obj.make, [ ("READ", [||]) ]);
    ("elect ELECT (slot 0)", (fun s -> Elect_obj.make s), [ ("ELECT", [||]) ]);
    ("faa FAA", (fun s -> Faa_obj.make s), [ ("FAA", [| arg 1 |]) ]);
    ("stack PUSH", Stack_obj.make, [ ("PUSH", [| arg 1 |]) ]);
    ("stack PUSH+POP", Stack_obj.make, [ ("PUSH", [| arg 1 |]); ("POP", [||]) ]);
    ("queue ENQ+DEQ", Queue_obj.make, [ ("ENQ", [| arg 1 |]); ("DEQ", [||]) ]);
    ("max WRITE_MAX (install)", (fun s -> Max_register_obj.make s), [ ("WRITE_MAX", [| arg 5 |]) ]);
    ("histogram RECORD", Histogram_obj.make ~k:4, [ ("RECORD", [| arg 0 |]) ]);
    ("histogram TOTAL (k=4)", Histogram_obj.make ~k:4, [ ("TOTAL", [||]) ]);
  ]

let solo_rows () =
  List.concat_map
    (fun (op, make, script) ->
      List.map
        (fun nprocs ->
          let sim = Sim.create ~nprocs () in
          let inst = make sim ~name:"O" in
          Sim.set_script sim 0 (List.map (fun (o, args) -> (inst, o, Sim.Args args)) script);
          Nvm.Memory.reset_stats (Sim.mem sim);
          (match Machine.Schedule.run sim (Machine.Schedule.round_robin ()) with
          | Completed -> ()
          | _ -> failwith ("T5: " ^ op ^ " did not complete"));
          let st = Nvm.Memory.stats (Sim.mem sim) in
          Obs.Bench.row Machine ~section:"T5"
            (Printf.sprintf "%s N=%d" op nprocs)
            [
              ("op", Str op);
              ("nprocs", Int nprocs);
              ("accesses", Int Nvm.Memory.(st.reads + st.writes + st.rmws));
            ])
        [ 2; 4; 8 ])
    solo_ops

(* {1 F2: NRL check cost vs history length} *)

(* one seeded crash run of the register scenario per length, its history
   checked repeatedly *)
let check_rows () =
  List.map
    (fun ops ->
      let sim = Sim.create ~seed:7 ~nprocs:3 () in
      (Scenarios.register ~nprocs:3 ~ops ()).Trial.build sim;
      ignore
        (Machine.Schedule.run sim
           (Machine.Schedule.random ~crash_prob:0.02 ~max_crashes:4 ~seed:99 ()));
      let ns = Runtime.Bench_native.estimate_ns (fun () -> ignore (Check.nrl sim)) in
      Obs.Bench.row Machine ~section:"F2"
        (Printf.sprintf "register ops=%d" ops)
        [
          ("ops", Int ops);
          ("hist_len", Int (History.length (Sim.history sim)));
          ("check_ns", Num ns);
        ])
    [ 4; 8; 12; 16; 24; 32; 64; 128; 256 ]

(* {1 The exhaustive searches} *)

type mode = Dfs | Terminal | Incremental

let mode_name = function
  | Dfs -> "dfs"
  | Terminal -> "check-terminal"
  | Incremental -> "check-incremental"

let persist_name = function Nvm.Memory.Instant -> "instant" | Explicit -> "explicit"

(* one row of the table: what a search runs and how it is reported *)
type search = {
  section : string;
  name : string;
  scen : Trial.scenario;  (** its [scen_name] is the row's [scenario] field *)
  ops : int;
  cfg : Explore.config;
  persist : Nvm.Memory.mode;
  dedup : bool;
  symmetry : bool;
  mode : mode;
  jobs : int;
  repeats : int;
  truncates : bool;  (** the depth bound cuts branches; no other search may *)
}

(* process 0 may crash once; depth 100 *)
let crash0 = { Explore.default_config with max_steps = 100; max_crashes = 1; crash_procs = [ 0 ] }

let search ?(cfg = crash0) ?(persist = Nvm.Memory.Instant) ?(dedup = true) ?(symmetry = false)
    ?(jobs = 1) ?(repeats = 1) ?(truncates = false) ~mode section name scen ~ops =
  { section; name; scen; ops; cfg; persist; dedup; symmetry; mode; jobs; repeats; truncates }

let named scen_name (scen : Trial.scenario) = { scen with scen_name }

(* F5's instance: two processes alternate WRITE and READ on one register *)
let alternating ~ops =
  let build sim =
    let inst = Objects.Rw_obj.make sim ~name:"R" in
    for p = 0 to 1 do
      Sim.set_script sim p
        (List.init ops (fun k ->
             if k mod 2 = 0 then (inst, "WRITE", Sim.Args [| Opgen.tagged p (k + 1) |])
             else (inst, "READ", Sim.Args [||])))
    done
  in
  { Trial.scen_name = "register"; nprocs = 2; build }

let searches =
  let register ~nprocs ~ops = named "register" (Scenarios.register ~nprocs ~ops ()) in
  let both_persist ?truncates section scen ~ops =
    List.map
      (fun persist ->
        search section (scen.Trial.scen_name ^ " " ^ persist_name persist) scen ~ops ~persist
          ?truncates ~mode:Terminal)
      [ Nvm.Memory.Instant; Explicit ]
  in
  (* T6: work-stealing jobs scaling on the CI speedup gate's instance *)
  List.map
    (fun jobs ->
      search "T6"
        (Printf.sprintf "register jobs=%d" jobs)
        (register ~nprocs:3 ~ops:3) ~ops:3 ~jobs ~repeats:3
        ~mode:Incremental)
    [ 1; 2; 4 ]
  (* T7: raw enumeration, then terminal vs incremental checking *)
  @ List.map
      (fun mode ->
        search "T7" ("register " ^ mode_name mode) (register ~nprocs:3 ~ops:1) ~ops:1
          ~dedup:false ~mode)
      [ Dfs; Terminal; Incremental ]
  (* T8: the symmetric register scenario, any process may crash *)
  @ List.map
      (fun symmetry ->
        let scen =
          { Trial.scen_name = "rw-symmetric"; nprocs = 4;
            build = (fun sim -> ignore (Scenarios.install_symmetric "register" sim ~nprocs:4)) }
        in
        search "T8"
          (Printf.sprintf "rw-symmetric symmetry=%b" symmetry)
          scen ~ops:2 ~symmetry ~mode:Incremental
          ~cfg:{ crash0 with max_steps = 400; crash_procs = [ 0; 1; 2; 3 ] })
      [ false; true ]
  (* T9: the persistency model's cost *)
  @ both_persist "T9" (register ~nprocs:2 ~ops:2) ~ops:2
  (* T12: the recoverable synchronisation primitives *)
  @ both_persist "T12" (named "mutex-pairs" (Scenarios.mutex_pairs ~nprocs:2 ())) ~ops:2
  @ both_persist "T12" (named "consensus" (Scenarios.consensus ~nprocs:2 ~ops:1 ())) ~ops:1
  (* some of pcall's nested-frame branches run deeper than 100 steps *)
  @ both_persist "T12" (named "pcall" (Scenarios.pcall ~nprocs:2 ~ops:2 ())) ~ops:2
      ~truncates:true
  (* F5: exhaustive capacity against operations per process *)
  @ List.map
      (fun ops ->
        search "F5"
          (Printf.sprintf "register ops=%d" ops)
          (alternating ~ops) ~ops ~dedup:false ~mode:Terminal
          ~cfg:{ crash0 with max_steps = 60 * ops })
      [ 1; 2 ]

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

(* one search: its count fields and its (seconds, cpu_s) *)
let explore s =
  let sim = Sim.create ~persist:s.persist ~nprocs:s.scen.nprocs () in
  s.scen.build sim;
  (* a registry only where there are persist events to count *)
  let obs = if s.persist = Explicit then Some (Obs.Metrics.create ()) else None in
  let { cfg; jobs; dedup; symmetry; _ } = s in
  let fail what = failwith (Printf.sprintf "%s %s: %s" s.section s.name what) in
  Gc.compact ();
  let stats, t =
    timed @@ fun () ->
    match s.mode with
    | Dfs -> Explore.dfs ~cfg ~jobs ~dedup ~symmetry ?obs ~on_terminal:ignore sim
    | Terminal | Incremental -> (
      let check_mode =
        if s.mode = Incremental then `Incremental (Check.nrl_incremental ()) else `Terminal
      in
      let check = Check.nrl_violation in
      match Explore.search ~cfg ~jobs ~dedup ~symmetry ?obs ~check_mode ~check sim with
      | Clean, stats -> stats
      | Violation (_, msg), _ -> fail ("violation: " ^ msg)
      | Exhausted _, _ -> fail "exhausted")
  in
  if stats.truncated <> 0 && not s.truncates then fail "truncated";
  let counter name =
    match Option.bind obs (fun o -> Obs.Metrics.view o name) with
    | Some (Obs.Metrics.Counter v) -> v
    | _ -> 0
  in
  ( [
      ("flushes", Int (counter Obs.Names.sim_flushes));
      ("fences", Int (counter Obs.Names.sim_fences));
      ("terminals", Int stats.terminals);
      ("truncated", Int stats.truncated);
      ("nodes", Int stats.nodes);
      ("dup", Int stats.dup);
    ],
    t )

(* a section's searches, their repeats in interleaved rounds so host
   drift lands on every row alike; each row the median run by wall time *)
let explore_rows searches =
  let rounds = List.fold_left (fun m s -> max m s.repeats) 0 searches in
  let runs =
    List.init rounds (fun r ->
        List.map (fun s -> if r < s.repeats then Some (explore s) else None) searches)
  in
  List.mapi
    (fun i s ->
      let mine = List.filter_map (fun round -> List.nth round i) runs in
      let counts = fst (List.hd mine) in
      if List.exists (fun (c, _) -> c <> counts) mine then
        failwith (Printf.sprintf "%s %s: statistics differ across repeats" s.section s.name);
      let seconds, cpu_s = List.nth (List.sort compare (List.map snd mine)) (s.repeats / 2) in
      let count k = to_int (List.assoc k counts) in
      Obs.Bench.row Explore ~section:s.section s.name
        ([
           ("scenario", Str s.scen.scen_name);
           ("nprocs", Int s.scen.nprocs);
           ("ops", Int s.ops);
           ("jobs", Int s.jobs);
           ("dedup", Bool s.dedup);
           ("symmetry", Bool s.symmetry);
           ("mode", Str (mode_name s.mode));
           ("persist", Str (persist_name s.persist));
         ]
        @ counts
        @ [
            ("seconds", Num seconds);
            ("cpu_s", Num cpu_s);
            ("nodes_per_sec", Obs.Bench.per_sec (count "nodes") seconds);
            ("terminals_per_sec", Obs.Bench.per_sec (count "terminals") seconds);
          ]))
    searches

(* {1 Sections} *)

let sections = [ "T5"; "T6"; "T7"; "T8"; "T9"; "T12"; "F2"; "F5" ]
let tags = sections @ [ "T"; "F" ]

(* a tag selects its section, a bare letter every section with that
   letter, no tag every section *)
let select = function
  | [] -> sections
  | picked ->
    List.iter (fun a -> if not (List.mem a tags) then invalid_arg ("unknown section " ^ a)) picked;
    List.filter (fun s -> List.exists (fun a -> a = s || a = String.sub s 0 1) picked) sections

(* one line per row: its section, name and measured fields *)
let log_row log row =
  let shown =
    [ "accesses"; "hist_len"; "check_ns"; "nodes"; "terminals"; "dup"; "flushes"; "fences";
      "seconds"; "cpu_s" ]
  in
  let fields = match row with Obj kv -> kv | _ -> [] in
  let field k =
    Option.map
      (function Num f -> Printf.sprintf "%s=%.3f" k f | v -> k ^ "=" ^ to_line v)
      (List.assoc_opt k fields)
  in
  log
    (Printf.sprintf "%-4s %-30s %s" (to_string (member "section" row))
       (to_string (member "name" row))
       (String.concat " " (List.filter_map field shown)))

let run ?(log = fun (_ : string) -> ()) tags =
  let selected = select tags in
  let rows =
    List.concat_map
      (fun tag ->
        let rows =
          match tag with
          | "T5" -> solo_rows ()
          | "F2" -> check_rows ()
          | _ -> explore_rows (List.filter (fun s -> s.section = tag) searches)
        in
        List.iter (log_row log) rows;
        rows)
      selected
  in
  { Obs.Bench.config = [ ("sections", Arr (List.map (fun s -> Str s) selected)) ]; rows }
