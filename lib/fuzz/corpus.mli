(** On-disk fuzzing corpus: NDJSON, schema ["nrl-corpus/2"] (documented
    field by field in docs/fuzzing.md).

    The corpus is the campaign's whole resumable state: a stamp of what
    was being fuzzed (a resume must present an equal stamp or be
    rejected), one record per coverage-increasing seed — including the
    fingerprint hashes it discovered, so the global coverage set
    reconstructs {e exactly} on resume — one record per violation with
    its shrunk reproducer, a progress record, and a result record once
    the budget ran out.  {!save} is atomic (write-to-temporary, then
    [Sys.rename]) and writes nothing nondeterministic, so a fixed-seed
    campaign produces a byte-identical corpus however often it is re-run
    or resumed. *)

val schema_version : string
(** ["nrl-corpus/2"]. *)

type entry = {
  e_index : int;  (** seed index within the campaign *)
  e_desc : string;  (** the descriptor, {!Gen.to_string} form *)
  e_cov : int list;  (** fingerprint hashes this run saw first, in order *)
}

type violation = {
  x_index : int;
  x_desc : string;  (** the descriptor that violated *)
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

val zero_stats : stats

type t = {
  stamp : (string * string) list;
  entries : entry list;  (** in discovery order *)
  violations : violation list;  (** in discovery order *)
  next : int;  (** first seed index not yet run *)
  stats : stats;
  result : (string * string) option;
      (** [("clean", "")] or [("violation", first reason)] once the
          campaign ran its whole budget; [None] while resumable *)
}

val to_string : t -> string
(** The serialised NDJSON document (what {!save} writes). *)

val save : path:string -> t -> unit
(** Serialize atomically: write [path ^ ".tmp"], then rename over
    [path]. *)

val load : string -> (t, string) result
(** Parse a corpus file; [Error] describes unreadable files, malformed
    records and schema mismatches.  Schema ["nrl-corpus/1"] files are
    refused: their coverage hashes predate the current fingerprint
    hash. *)
