(** The one JSON codec: every trace, checkpoint, corpus and bench
    document in this codebase is built as a {!t} and printed here, and
    every reader parses with {!parse}.

    {b Parsing} is strict RFC 8259: numbers follow the JSON grammar
    exactly (no [01], [1.], [.5] or [+1]), strings reject raw control
    characters, and [\u] escapes decode to UTF-8, surrogate pairs
    included.  Integer lexemes (no fraction, no exponent) that fit an
    OCaml [int] parse to an exact [Int]; every other number is a
    [Num].

    {b Printing} escapes quotes, backslashes and ASCII control
    characters and passes every other byte through.  A float prints as
    the shorter of [%.15g] and [%.17g] that reads back equal, with
    [".0"] appended to an integral value so it stays a [Num]; [nan] and
    the infinities have no JSON literal and print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

val parse : string -> t
(** @raise Bad on anything that is not exactly one JSON value
    (surrounding whitespace allowed). *)

val member : string -> t -> t
(** Field of an object.  @raise Bad if missing or not an object. *)

val to_int : t -> int
(** @raise Bad unless an [Int]. *)

val to_float : t -> float
(** An [Int] or a [Num].  @raise Bad on anything else. *)

val to_string : t -> string
val to_bool : t -> bool
val to_list : t -> t list

val to_line : t -> string
(** Compact, on one line, no trailing newline: the NDJSON record form
    ([{"k":v,"k2":[1,2]}]). *)

val to_ndjson : t list -> string
(** One {!to_line} record per line, each newline-terminated. *)

val read_ndjson : string -> t list
(** Parse every non-blank line of the file at the given path.
    @raise Sys_error if the file is unreadable.
    @raise Bad on a malformed line. *)

val to_doc : t -> string
(** The document form, trailing newline included: each member of a
    top-level object on its own line, each element of a top-level
    member's array on its own line, anything deeper inline as
    [{"k": v, "k2": v2}]. *)

val write_file : path:string -> string -> unit
(** Write [contents] to [path ^ ".tmp"] and rename it over [path].
    The rename is atomic on POSIX, so a process killed mid-write leaves
    the previous file in place.  Nothing is fsync'ed: the guarantee
    covers kills of the process, not a power cut. *)
