(** The one bench document: every [BENCH_*.json] ([nrlsim
    bench-explore], [nrlsim bench-native], [nrlsim bench-service], each
    with [--json] or [--out]) is a {!t} printed by {!Json.to_doc}.

    Schema ["nrl-bench/6"], one top-level object:

    - [schema]: ["nrl-bench/6"];
    - [host]: [{domains_available, ocaml}], the measuring host's
      [Domain.recommended_domain_count ()] and [Sys.ocaml_version]
      (read [domains_available] before trusting any scaling row;
      [ocaml] is [null] in artifacts converted from older schemas,
      which did not record it);
    - [config]: the producer's run knobs (the selected sections, the
      throughput sweep, the service engine configuration);
    - [rows]: one flat object per measurement,
      [{layer, section, name, ...fields}].  [layer] is one of
      [native | machine | explore | service]; [section] is the
      DESIGN.md §5 table or figure the row belongs to (["T2"], ["F3"],
      ...); [name] says what was measured.  The other fields are
      spelled once, where the number is measured: latency rows carry
      [ns], [ns_min], [ns_q1], [ns_q3]; explore rows carry the engine
      configuration, the statistics, [seconds], [cpu_s] and the derived
      [nodes_per_sec]/[terminals_per_sec]; docs/observability.md lists
      them all.  Non-finite floats print as [null]. *)

val schema : string
(** ["nrl-bench/6"] *)

type layer = Native | Machine | Explore | Service

type t = { config : (string * Json.t) list; rows : Json.t list }

val row : layer -> section:string -> string -> (string * Json.t) list -> Json.t
(** [row layer ~section name fields] is the row object
    [{layer, section, name, ...fields}]. *)

val per_sec : int -> float -> Json.t
(** [per_sec n seconds] is the rate [n / seconds], [null] unless
    [seconds > 0]. *)

val render : t -> string
(** The document, its [host] stamped from the running process, through
    {!Json.to_doc}, trailing newline included. *)

val write : path:string -> t -> unit
(** {!render} to [path] through {!Json.write_file}. *)
