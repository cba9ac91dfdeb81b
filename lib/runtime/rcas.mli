(** Algorithm 2 on real multicore: recoverable CAS object over OCaml 5
    [Atomic] cells.  Assumptions as in the paper: never [old = new],
    per-process distinct new values.

    [C] is one padded atomic holding the packed <id, value> content
    ({!Enc.pack}); the helping matrix is a flat stride-padded {e plain}
    int array — sound under the OCaml memory model because every update
    of [C] is a successful CAS that program-follows its help write (see
    rcas.ml).  Allocation-free on every path; values are 48-bit signed. *)

type t = {
  c : int Atomic.t;  (** packed <last successful writer (-1 = null), value> *)
  r : int array;  (** flat padded helping matrix, [Enc.none] = empty *)
  nprocs : int;
}

val create : nprocs:int -> int -> t
val read : ?cp:Crash.t -> t -> int
val read_recover : ?cp:Crash.t -> t -> int
val cas : ?cp:Crash.t -> t -> pid:int -> old:int -> new_:int -> bool

val cas_recover : ?cp:Crash.t -> t -> pid:int -> old:int -> new_:int -> bool
(** [CAS.RECOVER]: reports success iff [C] still holds this process's
    pair or the helping matrix row carries the evidence; otherwise
    re-executes (lines 13-16 of the paper). *)

(** {2 Nesting}

    The operations with the crash point passed positionally, for the
    objects built on this one ({!Rscas}); re-passing an optional
    argument allocates a [Some] per call. *)

val cas_content_cp : Crash.t -> t -> pid:int -> content:int -> new_:int -> bool
(** Lines 5-8 of CAS from a content previously read from [C] (the
    packed <id, value>; [Enc.value]/[Enc.id] decode it): the help write,
    then the primitive CAS from exactly that content.  [cas] is the read
    of line 2, the value comparison of lines 3-4, then this. *)

val cas_cp : Crash.t -> t -> pid:int -> old:int -> new_:int -> bool
(** {!cas} with the crash point passed positionally. *)

(** Plain (non-recoverable) CAS baseline.  [old] must be physically the
    value previously read (integers are safest). *)
module Plain : sig
  type 'a t

  val create : 'a -> 'a t
  val read : 'a t -> 'a
  val cas : 'a t -> old:'a -> new_:'a -> bool
end
