let schema_version = "nrl-trace/1"

type value = Bool of bool | Int of int | Float of float | Str of string

type t = { oc : out_channel; m : Mutex.t; mutable closed : bool }

let json_of_value = function
  | Bool b -> Json.Bool b
  | Int i -> Json.Int i
  | Float f -> Json.Num f
  | Str s -> Json.Str s

let with_fields head fs =
  Json.Obj
    (if fs = [] then head
     else head @ [ ("fields", Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) fs)) ])

(* Flush after every record: the sink's guarantee is that a run killed at
   any point — including by an uncatchable SIGKILL — leaves a parseable
   NDJSON prefix on disk, never a line cut mid-record by stdlib
   buffering. *)
let line t j =
  let s = Json.to_line j in
  Mutex.lock t.m;
  if not t.closed then begin
    output_string t.oc s;
    output_char t.oc '\n';
    flush t.oc
  end;
  Mutex.unlock t.m

let rec create ~path =
  let oc = open_out path in
  let t = { oc; m = Mutex.create (); closed = false } in
  (* Belt and braces for catchable exits: flush-per-line already bounds
     loss to the record being written, but a clean [at_exit] close also
     releases the descriptor on normal termination paths that forget to
     call {!close}. *)
  at_exit (fun () -> close t);
  line t
    (Json.Obj
       [
         ("schema", Json.Str schema_version);
         ("type", Json.Str "meta");
         ("clock", Json.Str "ns-since-process-start");
       ]);
  t

and close t =
  Mutex.lock t.m;
  if not t.closed then begin
    t.closed <- true;
    close_out t.oc
  end;
  Mutex.unlock t.m

let event ?ts_ns t ~name fs =
  let ts = match ts_ns with Some ts -> ts | None -> Clock.now_ns () in
  line t
    (with_fields [ ("type", Json.Str "event"); ("name", Json.Str name); ("ts_ns", Json.Int ts) ] fs)

let span t ~name ~start_ns ~dur_ns fs =
  line t
    (with_fields
       [
         ("type", Json.Str "span");
         ("name", Json.Str name);
         ("start_ns", Json.Int start_ns);
         ("dur_ns", Json.Int dur_ns);
       ]
       fs)

let metrics t reg =
  List.iter (fun (name, v) -> line t (Metrics.record name v)) (Metrics.to_list reg)
