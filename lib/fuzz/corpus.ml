(** On-disk fuzzing corpus: NDJSON, schema ["nrl-corpus/2"].

    The file is the campaign's whole resumable state: the stamp of what
    was being fuzzed, one record per coverage-increasing seed (with the
    fingerprint hashes it discovered, so the global coverage set
    reconstructs exactly on resume), one record per violation (with its
    shrunk reproducer), a progress record with the next index and the
    running statistics, and — once the campaign ran its budget — a result
    record.  Like {!Machine.Checkpoint}: saves are atomic
    (write-to-temporary then rename), loads are strict, and nothing
    nondeterministic (no timestamps) is written, so a fixed-seed campaign
    produces a byte-identical file however often it is re-run or
    resumed.

    Schema 2 differs from 1 only in where the [cov] hashes come from:
    {!Machine.Fingerprint.hash} changed from a structural hash to a hash
    of the packed key, so the hashes of a schema-1 file name no state a
    current run can reach.  Such a file is refused, not resumed against
    a dead coverage set. *)

module Json = Machine.Checkpoint.Json

let schema_version = "nrl-corpus/2"

type entry = {
  e_index : int;
  e_desc : string;
  e_cov : int list;  (** fingerprint hashes this run saw first, in order *)
}

type violation = {
  x_index : int;
  x_desc : string;
  x_reason : string;
  x_shrunk : string option;  (** minimised descriptor, when shrinking ran *)
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
  entries : entry list;  (** in discovery order *)
  violations : violation list;  (** in discovery order *)
  next : int;  (** first seed index not yet run *)
  stats : stats;
  result : (string * string) option;
}

(* {2 Writing} *)

let esc = Machine.Checkpoint.json_escape

let buf_entry b e =
  Buffer.add_string b
    (Printf.sprintf "{\"type\":\"entry\",\"index\":%d,\"desc\":\"%s\",\"cov\":[" e.e_index
       (esc e.e_desc));
  List.iteri
    (fun i h ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int h))
    e.e_cov;
  Buffer.add_string b "]}\n"

let buf_violation b x =
  Buffer.add_string b
    (Printf.sprintf "{\"type\":\"violation\",\"index\":%d,\"desc\":\"%s\",\"reason\":\"%s\""
       x.x_index (esc x.x_desc) (esc x.x_reason));
  (match x.x_shrunk, x.x_shrunk_reason with
  | Some d, Some r ->
    Buffer.add_string b
      (Printf.sprintf ",\"shrunk\":\"%s\",\"shrunk_reason\":\"%s\"" (esc d) (esc r))
  | _ -> ());
  Buffer.add_string b (Printf.sprintf ",\"shrink_steps\":%d}\n" x.x_shrink_steps)

let to_string t =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "{\"schema\":\"%s\"}\n" schema_version);
  List.iter
    (fun (k, v) ->
      Buffer.add_string b
        (Printf.sprintf "{\"type\":\"stamp\",\"key\":\"%s\",\"value\":\"%s\"}\n" (esc k) (esc v)))
    t.stamp;
  List.iter (buf_entry b) t.entries;
  List.iter (buf_violation b) t.violations;
  Buffer.add_string b
    (Printf.sprintf
       "{\"type\":\"progress\",\"next\":%d,\"runs\":%d,\"new_coverage\":%d,\"violations\":%d,\"shrink_steps\":%d,\"corpus_entries\":%d}\n"
       t.next t.stats.runs t.stats.new_coverage t.stats.violations t.stats.shrink_steps
       t.stats.corpus_entries);
  (match t.result with
  | Some (verdict, detail) ->
    Buffer.add_string b
      (Printf.sprintf "{\"type\":\"result\",\"verdict\":\"%s\",\"detail\":\"%s\"}\n" (esc verdict)
         (esc detail))
  | None -> ());
  Buffer.contents b

let save ~path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (to_string t);
  close_out oc;
  Sys.rename tmp path

(* {2 Reading} *)

let load path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let lines = ref [] in
        (try
           while true do
             let l = input_line ic in
             if String.trim l <> "" then lines := l :: !lines
           done
         with End_of_file -> ());
        List.rev !lines)
  with
  | exception Sys_error m -> Error m
  | [] -> Error (path ^ ": empty corpus")
  | header :: rest -> (
    try
      let j = Json.parse header in
      let schema = Json.to_string (Json.member "schema" j) in
      if schema = "nrl-corpus/1" then
        Error
          (Printf.sprintf
             "%s: schema %S holds coverage hashes of an earlier fingerprint encoding; start a \
              new corpus (expected %S)"
             path schema schema_version)
      else if schema <> schema_version then
        Error (Printf.sprintf "%s: schema %S, expected %S" path schema schema_version)
      else begin
        let stamp = ref [] and entries = ref [] and violations = ref [] in
        let next = ref 0 and stats = ref zero_stats and result = ref None in
        List.iter
          (fun line ->
            let j = Json.parse line in
            match Json.to_string (Json.member "type" j) with
            | "stamp" ->
              stamp :=
                (Json.to_string (Json.member "key" j), Json.to_string (Json.member "value" j))
                :: !stamp
            | "entry" ->
              entries :=
                {
                  e_index = Json.to_int (Json.member "index" j);
                  e_desc = Json.to_string (Json.member "desc" j);
                  e_cov = List.map Json.to_int (Json.to_list (Json.member "cov" j));
                }
                :: !entries
            | "violation" ->
              let opt_str k =
                match Json.member k j with
                | s -> Some (Json.to_string s)
                | exception Json.Bad _ -> None
              in
              violations :=
                {
                  x_index = Json.to_int (Json.member "index" j);
                  x_desc = Json.to_string (Json.member "desc" j);
                  x_reason = Json.to_string (Json.member "reason" j);
                  x_shrunk = opt_str "shrunk";
                  x_shrunk_reason = opt_str "shrunk_reason";
                  x_shrink_steps = Json.to_int (Json.member "shrink_steps" j);
                }
                :: !violations
            | "progress" ->
              next := Json.to_int (Json.member "next" j);
              stats :=
                {
                  runs = Json.to_int (Json.member "runs" j);
                  new_coverage = Json.to_int (Json.member "new_coverage" j);
                  violations = Json.to_int (Json.member "violations" j);
                  shrink_steps = Json.to_int (Json.member "shrink_steps" j);
                  corpus_entries = Json.to_int (Json.member "corpus_entries" j);
                }
            | "result" ->
              result :=
                Some
                  ( Json.to_string (Json.member "verdict" j),
                    Json.to_string (Json.member "detail" j) )
            | other -> raise (Json.Bad (Printf.sprintf "unknown record type %S" other)))
          rest;
        Ok
          {
            stamp = List.rev !stamp;
            entries = List.rev !entries;
            violations = List.rev !violations;
            next = !next;
            stats = !stats;
            result = !result;
          }
      end
    with
    | Json.Bad m -> Error (Printf.sprintf "%s: %s" path m)
    | Failure m -> Error (Printf.sprintf "%s: %s" path m))
