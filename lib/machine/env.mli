(** Volatile process-local variables.

    In the paper's model each process has local variables stored in
    volatile processor registers; a crash-failure resets them all to
    {e arbitrary} values.  A scrambled environment answers every lookup —
    even of names never bound — with adversarially generated junk, so an
    algorithm that relies on any local value across a crash misbehaves
    loudly in tests. *)

type t

exception Unbound_local of string
(** Raised when reading a local that was never bound in an environment
    that has not been scrambled — an algorithm bug on a crash-free path. *)

val create : unit -> t
(** A fresh, empty, strict environment (used for operation bodies, where
    reading an unbound local is a crash-free-path bug). *)

val create_post_crash : Junk.t -> t
(** A fresh environment for recovery invocations: unbound reads yield
    arbitrary junk, matching the paper's "locals reset to arbitrary
    values". *)

val copy : junk:Junk.t -> t -> t
(** Independent copy, for machine cloning.  A scrambled copy draws from
    [junk]: every scrambled environment of a machine shares the
    machine's generator, so a cloned machine passes its own copy of that
    generator to each environment it copies.  The copy carries no
    trail. *)

val set_trail : t -> Nvm.Trail.t option -> unit
(** Attach (or detach) an undo trail: binding updates, cached junk draws
    and {!scramble} then log undo thunks, so {!Nvm.Trail.undo_to} reverts
    the environment — including its junk-generator state — in place. *)

val set : t -> string -> Nvm.Value.t -> unit

val get : t -> string -> Nvm.Value.t
(** Read a local.  After a crash ({!scramble}), unbound names yield junk
    instead of raising. *)

val mem : t -> string -> bool

val scramble : t -> Junk.t -> unit
(** Crash semantics: replace every binding with an arbitrary value and
    switch the environment into scrambled mode. *)

val bindings : t -> (string * Nvm.Value.t) list
(** Bindings sorted by name, for state fingerprints and debugging. *)

val junk_state : t -> int option
(** [Some s] iff the environment is in post-crash (scrambled) mode, where
    [s] is its junk-generator state; [None] for a strict environment.
    Used by {!Fingerprint} — the mode and the stream both affect what
    future unbound lookups return. *)

val pp : t Fmt.t
