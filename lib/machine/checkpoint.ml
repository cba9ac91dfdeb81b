let schema_version = "nrl-checkpoint/3"

(* accepted on load; [save] always writes the current version *)
let compatible_schemas = [ schema_version; "nrl-checkpoint/2"; "nrl-checkpoint/1" ]

(* ---------- decision paths ---------- *)

let decision_token = function
  | Schedule.Dstep p -> "s" ^ string_of_int p
  | Schedule.Dcrash p -> "c" ^ string_of_int p
  | Schedule.Dcrash_sys mask -> "k" ^ string_of_int mask  (* new in schema v3 *)
  | Schedule.Drecover p -> "r" ^ string_of_int p
  | Schedule.Dhalt -> "h"

let decision_of_token tok =
  let fail () = failwith (Printf.sprintf "Checkpoint: bad decision token %S" tok) in
  if tok = "h" then Schedule.Dhalt
  else if String.length tok < 2 then fail ()
  else
    match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
    | None -> fail ()
    | Some p -> (
      match tok.[0] with
      | 's' -> Schedule.Dstep p
      | 'c' -> Schedule.Dcrash p
      | 'k' -> Schedule.Dcrash_sys p
      | 'r' -> Schedule.Drecover p
      | _ -> fail ())

let path_to_string path = String.concat " " (List.map decision_token path)

let path_of_string s =
  String.split_on_char ' ' s
  |> List.filter (fun tok -> tok <> "")
  |> List.map decision_of_token

(* ---------- the checkpoint ---------- *)

type totals = {
  ck_nodes : int;
  ck_terminals : int;
  ck_truncated : int;
  ck_dup : int;
}

type task = {
  ck_path : Schedule.decision list;
  ck_crashes : int;
  ck_done : bool;
}

type t = {
  scenario : (string * string) list;
  tasks : task array;
  totals : totals;
  metrics : (string * Obs.Metrics.view) list;
  result : (string * string) option;
}

let records t =
  let open Obs.Json in
  let record ty fields = Obj (("type", Str ty) :: fields) in
  let task k =
    record "task"
      [
        ("path", Str (path_to_string k.ck_path));
        ("crashes", Int k.ck_crashes);
        ("done", Bool k.ck_done);
      ]
  in
  List.concat
    [
      [ Obj [ ("schema", Str schema_version); ("type", Str "meta") ] ];
      List.map (fun (k, v) -> record "scenario" [ ("k", Str k); ("v", Str v) ]) t.scenario;
      [
        record "totals"
          [
            ("nodes", Int t.totals.ck_nodes);
            ("terminals", Int t.totals.ck_terminals);
            ("truncated", Int t.totals.ck_truncated);
            ("dup", Int t.totals.ck_dup);
          ];
      ];
      List.map task (Array.to_list t.tasks);
      List.map (fun (name, v) -> Obs.Metrics.record name v) t.metrics;
      (match t.result with
      | Some (verdict, detail) ->
        [ record "result" [ ("verdict", Str verdict); ("reason", Str detail) ] ]
      | None -> []);
    ]

let save ~path t = Obs.Json.write_file ~path (Obs.Json.to_ndjson (records t))

let load path =
  try
    match Obs.Json.read_ndjson path with
    | [] -> Error (Printf.sprintf "%s: empty checkpoint" path)
    | meta :: rest ->
      let open Obs.Json in
      let schema = to_string (member "schema" meta) in
      if not (List.mem schema compatible_schemas) then
        Error (Printf.sprintf "%s: unsupported checkpoint schema %S (want %S)" path schema schema_version)
      else begin
        let str k j = to_string (member k j) and int k j = to_int (member k j) in
        let scenario = ref [] and tasks = ref [] and metrics = ref [] and result = ref None in
        let totals = ref { ck_nodes = 0; ck_terminals = 0; ck_truncated = 0; ck_dup = 0 } in
        List.iter
          (fun j ->
            match str "type" j with
            | "scenario" -> scenario := (str "k" j, str "v" j) :: !scenario
            | "totals" ->
              totals :=
                {
                  ck_nodes = int "nodes" j;
                  ck_terminals = int "terminals" j;
                  ck_truncated = int "truncated" j;
                  ck_dup = int "dup" j;
                }
            | "task" ->
              tasks :=
                {
                  ck_path = path_of_string (str "path" j);
                  ck_crashes = int "crashes" j;
                  ck_done = to_bool (member "done" j);
                }
                :: !tasks
            | "counter" | "timer" | "histogram" -> metrics := Obs.Metrics.of_record j :: !metrics
            | "result" -> result := Some (str "verdict" j, str "reason" j)
            | ty -> raise (Bad (Printf.sprintf "unknown record type %S" ty)))
          rest;
        Ok
          {
            scenario = List.rev !scenario;
            tasks = Array.of_list (List.rev !tasks);
            totals = !totals;
            metrics = List.rev !metrics;
            result = !result;
          }
      end
  with
  | Sys_error e -> Error e
  | Obs.Json.Bad e -> Error (Printf.sprintf "%s: malformed checkpoint: %s" path e)
  | Failure e -> Error (Printf.sprintf "%s: malformed checkpoint: %s" path e)
