let schema = "nrl-bench/6"

type layer = Native | Machine | Explore | Service

type t = { config : (string * Json.t) list; rows : Json.t list }

let layer_name = function
  | Native -> "native"
  | Machine -> "machine"
  | Explore -> "explore"
  | Service -> "service"

let row layer ~section name fields =
  Json.Obj
    (("layer", Json.Str (layer_name layer))
    :: ("section", Json.Str section)
    :: ("name", Json.Str name)
    :: fields)

let per_sec n seconds =
  if seconds > 0. then Json.Num (float_of_int n /. seconds) else Json.Null

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ( "host",
        Json.Obj
          [
            ("domains_available", Json.Int (Domain.recommended_domain_count ()));
            ("ocaml", Json.Str Sys.ocaml_version);
          ] );
      ("config", Json.Obj t.config);
      ("rows", Json.Arr t.rows);
    ]

let render t = Json.to_doc (to_json t)
let write ~path t = Json.write_file ~path (render t)
