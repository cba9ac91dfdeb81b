module Json = Obs.Json

let schema_version = "nrl-corpus/2"

type entry = {
  e_index : int;
  e_desc : string;
  e_cov : int list;
}

type violation = {
  x_index : int;
  x_desc : string;
  x_reason : string;
  x_shrunk : string option;
  x_shrunk_reason : string option;
  x_shrink_steps : int;
}

type stats = {
  runs : int;
  new_coverage : int;
  violations : int;
  shrink_steps : int;
  corpus_entries : int;
}

let zero_stats = { runs = 0; new_coverage = 0; violations = 0; shrink_steps = 0; corpus_entries = 0 }

type t = {
  stamp : (string * string) list;
  entries : entry list;
  violations : violation list;
  next : int;
  stats : stats;
  result : (string * string) option;
}

(* {2 Writing} *)

let records t =
  let open Json in
  let record ty fields = Obj (("type", Str ty) :: fields) in
  let entry e =
    record "entry"
      [
        ("index", Int e.e_index);
        ("desc", Str e.e_desc);
        ("cov", Arr (List.map (fun h -> Int h) e.e_cov));
      ]
  in
  let violation x =
    let shrunk =
      match x.x_shrunk, x.x_shrunk_reason with
      | Some d, Some r -> [ ("shrunk", Str d); ("shrunk_reason", Str r) ]
      | _ -> []
    in
    record "violation"
      ([ ("index", Int x.x_index); ("desc", Str x.x_desc); ("reason", Str x.x_reason) ]
      @ shrunk
      @ [ ("shrink_steps", Int x.x_shrink_steps) ])
  in
  let progress =
    record "progress"
      [
        ("next", Int t.next);
        ("runs", Int t.stats.runs);
        ("new_coverage", Int t.stats.new_coverage);
        ("violations", Int t.stats.violations);
        ("shrink_steps", Int t.stats.shrink_steps);
        ("corpus_entries", Int t.stats.corpus_entries);
      ]
  in
  List.concat
    [
      [ Obj [ ("schema", Str schema_version) ] ];
      List.map (fun (k, v) -> record "stamp" [ ("key", Str k); ("value", Str v) ]) t.stamp;
      List.map entry t.entries;
      List.map violation t.violations;
      [ progress ];
      (match t.result with
      | Some (verdict, detail) ->
        [ record "result" [ ("verdict", Str verdict); ("detail", Str detail) ] ]
      | None -> []);
    ]

let to_string t = Json.to_ndjson (records t)

let save ~path t = Json.write_file ~path (to_string t)

(* {2 Reading} *)

let load path =
  match Json.read_ndjson path with
  | exception Sys_error m -> Error m
  | exception Json.Bad m -> Error (Printf.sprintf "%s: %s" path m)
  | [] -> Error (path ^ ": empty corpus")
  | header :: rest -> (
    let str k j = Json.to_string (Json.member k j) and int k j = Json.to_int (Json.member k j) in
    try
      let schema = str "schema" header in
      if schema = "nrl-corpus/1" then
        Error
          (Printf.sprintf
             "%s: schema %S holds coverage hashes of an earlier fingerprint encoding; start a \
              new corpus (expected %S)"
             path schema schema_version)
      else if schema <> schema_version then
        Error (Printf.sprintf "%s: schema %S, expected %S" path schema schema_version)
      else begin
        let record t j =
          match str "type" j with
          | "stamp" -> { t with stamp = (str "key" j, str "value" j) :: t.stamp }
          | "entry" ->
            let e_cov = List.map Json.to_int (Json.to_list (Json.member "cov" j)) in
            let e = { e_index = int "index" j; e_desc = str "desc" j; e_cov } in
            { t with entries = e :: t.entries }
          | "violation" ->
            let opt k =
              match Json.member k j with v -> Some (Json.to_string v) | exception Json.Bad _ -> None
            in
            let x =
              {
                x_index = int "index" j;
                x_desc = str "desc" j;
                x_reason = str "reason" j;
                x_shrunk = opt "shrunk";
                x_shrunk_reason = opt "shrunk_reason";
                x_shrink_steps = int "shrink_steps" j;
              }
            in
            { t with violations = x :: t.violations }
          | "progress" ->
            let stats =
              {
                runs = int "runs" j;
                new_coverage = int "new_coverage" j;
                violations = int "violations" j;
                shrink_steps = int "shrink_steps" j;
                corpus_entries = int "corpus_entries" j;
              }
            in
            { t with next = int "next" j; stats }
          | "result" -> { t with result = Some (str "verdict" j, str "detail" j) }
          | other -> raise (Json.Bad (Printf.sprintf "unknown record type %S" other))
        in
        let t =
          List.fold_left record
            { stamp = []; entries = []; violations = []; next = 0; stats = zero_stats; result = None }
            rest
        in
        Ok
          {
            t with
            stamp = List.rev t.stamp;
            entries = List.rev t.entries;
            violations = List.rev t.violations;
          }
      end
    with
    | Json.Bad m -> Error (Printf.sprintf "%s: %s" path m)
    | Failure m -> Error (Printf.sprintf "%s: %s" path m))
