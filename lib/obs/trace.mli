(** NDJSON trace sink: one JSON object per line, schema ["nrl-trace/1"].

    Every record is a {!Json.t} printed by {!Json.to_line} (metric lines
    by {!Metrics.record}); the format is a stream, not a document: tools
    can tail a trace while the run is still going.
    The first line is always a [meta] record carrying the schema tag and
    the clock contract; subsequent lines are [event], [span] and —
    usually at the end of the run — one line per metric ([counter],
    [timer], [histogram]).  The full schema, field by field, is
    documented in [docs/observability.md].

    All timestamps are {!Clock} readings: nanoseconds since process
    start.

    A sink serialises its writers with a mutex, so any domain may emit;
    the explorer nevertheless emits only from the coordinating domain
    (worker spans are recorded at the join), keeping hot loops free of
    even uncontended locks.

    {b Durability.}  Every record is flushed to the operating system as
    it is written, and {!create} registers an [at_exit] close: a run
    killed at any point — SIGTERM, SIGKILL, power loss of the test box —
    leaves a parseable NDJSON prefix, losing at most the record being
    written at the instant of death.  See docs/observability.md. *)

type t

val schema_version : string
(** ["nrl-trace/1"]. *)

(** Field values for [event]/[span] payloads. *)
type value = Bool of bool | Int of int | Float of float | Str of string

val create : path:string -> t
(** Open (truncating) [path] and write the [meta] line. *)

val event : ?ts_ns:int -> t -> name:string -> (string * value) list -> unit
(** A point-in-time event; [ts_ns] defaults to {!Clock.now_ns}[ ()]. *)

val span : t -> name:string -> start_ns:int -> dur_ns:int -> (string * value) list -> unit
(** A completed interval (spans are emitted when they end). *)

val metrics : t -> Metrics.t -> unit
(** One line per metric in the registry, in name order. *)

val close : t -> unit
(** Flush and close the underlying channel (idempotent). *)
