let schema_version = "nrl-bench/5"

type ns_row = { ns_section : string; ns_name : string; ns_ns : float }

type persist_row = { pe_op : string; pe_nprocs : int; pe_accesses : int }

type explore_row = {
  er_section : string;
  er_scenario : string;
  er_nprocs : int;
  er_ops : int;
  er_jobs : int;
  er_dedup : bool;
  er_sym : bool;
  er_mode : string;
  er_persist : string;
  er_flushes : int;
  er_fences : int;
  er_terminals : int;
  er_nodes : int;
  er_dup : int;
  er_seconds : float;
}

type t = {
  domains_available : int;
  ns_per_op : ns_row list;
  persist_events : persist_row list;
  explore : explore_row list;
}

let rate num seconds = if seconds > 0. then float_of_int num /. seconds else nan

let to_json t =
  let open Obs.Json in
  let ns r = Obj [ ("section", Str r.ns_section); ("name", Str r.ns_name); ("ns", Num r.ns_ns) ] in
  let persist r =
    Obj [ ("op", Str r.pe_op); ("nprocs", Int r.pe_nprocs); ("accesses", Int r.pe_accesses) ]
  in
  let explore r =
    Obj
      [
        ("section", Str r.er_section);
        ("scenario", Str r.er_scenario);
        ("nprocs", Int r.er_nprocs);
        ("ops", Int r.er_ops);
        ("jobs", Int r.er_jobs);
        ("dedup", Bool r.er_dedup);
        ("symmetry", Bool r.er_sym);
        ("mode", Str r.er_mode);
        ("persist", Str r.er_persist);
        ("flushes", Int r.er_flushes);
        ("fences", Int r.er_fences);
        ("terminals", Int r.er_terminals);
        ("nodes", Int r.er_nodes);
        ("dup", Int r.er_dup);
        ("seconds", Num r.er_seconds);
        ("nodes_per_sec", Num (rate r.er_nodes r.er_seconds));
        ("terminals_per_sec", Num (rate r.er_terminals r.er_seconds));
      ]
  in
  Obj
    [
      ("schema", Str schema_version);
      ("domains_available", Int t.domains_available);
      ("ns_per_op", Arr (List.map ns t.ns_per_op));
      ("persist_events", Arr (List.map persist t.persist_events));
      ("explore", Arr (List.map explore t.explore));
    ]

let render t = Obs.Json.to_doc (to_json t)
let write ~path t = Obs.Json.write_file ~path (render t)
