let schema_version = "nrl-native/1"

type tp_row = {
  tp_object : string;
  tp_impl : string;
  tp_mode : string;
  tp_width : int;
  tp_domains : int;
  tp_ops : int;
  tp_seconds : float;
  tp_ops_per_sec : float;
}

type ns_row = { ns_name : string; ns_ns : float }

type alloc_row = { al_name : string; al_words : float }

type t = {
  domains_available : int;
  duration_s : float;
  throughput : tp_row list;
  latency : ns_row list;
  alloc_per_op : alloc_row list;
}

let to_json t =
  let open Obs.Json in
  let tp r =
    Obj
      [
        ("object", Str r.tp_object);
        ("impl", Str r.tp_impl);
        ("mode", Str r.tp_mode);
        ("width", Int r.tp_width);
        ("domains", Int r.tp_domains);
        ("ops", Int r.tp_ops);
        ("seconds", Num r.tp_seconds);
        ("ops_per_sec", Num r.tp_ops_per_sec);
      ]
  in
  let ns r = Obj [ ("name", Str r.ns_name); ("ns", Num r.ns_ns) ] in
  let alloc r = Obj [ ("name", Str r.al_name); ("words", Num r.al_words) ] in
  Obj
    [
      ("schema", Str schema_version);
      ("domains_available", Int t.domains_available);
      ("duration_s", Num t.duration_s);
      ("throughput", Arr (List.map tp t.throughput));
      ("latency", Arr (List.map ns t.latency));
      ("alloc_per_op", Arr (List.map alloc t.alloc_per_op));
    ]

let render t = Obs.Json.to_doc (to_json t)
let write ~path t = Obs.Json.write_file ~path (render t)
