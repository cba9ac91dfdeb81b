(** Canonical fingerprint of a machine configuration.

    Covers everything that determines future behaviour — persistent
    memory, junk-generator state, and per-process control state (status,
    results, remaining script, frame stacks with locals) — and excludes
    history bookkeeping (call ids, step counts, the recorded history):
    two configurations with equal fingerprints generate identical future
    event sequences even when reached by different interleavings.

    A fingerprint is a packed {e key}: one byte string that encodes
    every compared field injectively ({!Nvm.Key}) — tagged values,
    integers as zig-zag LEB128 or fixed words, length-prefixed strings
    and lists, process locals in key order — and its hash, a 63-bit
    hash of the key's bytes computed once at construction.  {!equal},
    {!hash} and the {!Store} read only these.  Beside the key it carries
    the structural view that {!to_string} and {!Symmetry} read: the
    heap's image ({!Nvm.Memory.image}) and one {!Procview.proc} per
    process, all immutable, so a fingerprint describes the state it was
    taken in however the machine moves on.

    {b Cached parts.}  {!of_sim} joins the key from parts the machine
    keeps, and encodes afresh only what a step invalidated:
    - the heap's part ({!Nvm.Memory.add_key}): one encoding per cell for
      its value and its persisted value, and the section — the bytes of
      all three views with the image they encode.  A write, CAS, TAS,
      FAA or crash loss marks the cell's value stale; a flush or fence
      copies the value's encoding to the persisted view; any of them, and
      an allocation, drops the section; {!Nvm.Memory.restore} drops
      everything.  Trail undo puts back what the undone mutations
      replaced.
    - one segment per process ({!Sim.key_segment}): the bytes of its
      status, script length, results and frame stack, with the
      {!Procview.proc} they encode.  It is dropped when the process
      steps, crashes or recovers, or its script is set, and put back by
      trail undo.  A segment holding a scrambled environment's junk word
      is valid only while the machine's junk generator is unchanged.
    - the junk state, the extra context and the process count are
      written at every call.
    A clone ({!Sim.clone}) shares none of these caches.  {!of_sim_uncached}
    builds the same fingerprint from scratch. *)

type t

val of_sim : ?extra:int -> Sim.t -> t
(** [extra] (default 0) is mixed into the fingerprint as opaque path
    context.  The explorer passes the crash budget consumed so far:
    two equal configurations reached having spent different budgets have
    different remaining futures, so deduplicating across them would make
    search statistics depend on traversal order. *)

val of_sim_uncached : ?extra:int -> Sim.t -> t
(** The same fingerprint as {!of_sim}, built from scratch: the structural
    view is copied from the live machine and encoded whole, and no cache
    is read or filled.  The reference {!of_sim}'s cached parts are tested
    against. *)

val equal : t -> t -> bool
(** Hash, then the keys' bytes. *)

val hash : t -> int
(** A 63-bit hash of the key, avalanched so its low bits spread. *)

val to_string : t -> string
(** Printable canonical serialisation (diagnostics, string-keyed maps). *)

module Table : Hashtbl.S with type key = t

val erased_proc_hash : Sim.t -> int -> int
(** Hash of process [p]'s control state with every [Pid] value erased to
    an own/other token.  The result is invariant under any process
    permutation that fixes [p]'s own/other relation, which makes it a
    sound {e equivariant} tie-breaker for partial-order choices made
    under symmetry reduction (see {!Explore}). *)

(** Lock-free sharded visited-set over fingerprints, shared by all
    exploring domains.  A slot holds a fingerprint's hash and key only,
    never its structural view, so the visited set is a heap of strings
    that the major GC marks without scanning.  Each shard is an ordered
    chain of open-addressing segments whose slots are [Atomic] and
    monotone (empty → inserted key, never changed again); insertion
    probes the chain in one fixed global order and claims the first
    empty slot by CAS, so equal fingerprints — which share the same
    probe sequence — serialise on a single slot and [add] answers
    "fresh" exactly once per distinct fingerprint without taking a lock
    on the fast path.  Shards grow by appending doubled segments under
    a per-shard mutex. *)
module Store : sig
  type fp = t
  type t

  val create : ?shards:int -> unit -> t
  (** [shards] (default 64) is rounded up to a power of two; the shard
      is chosen by the low fingerprint-hash bits, the in-shard probe
      position by the remaining bits. *)

  val add : t -> fp -> bool
  (** [add s fp] is [true] iff [fp] was not yet in the store (it is
      recorded atomically with the test — linearizable across
      domains). *)

  val cardinal : t -> int
  (** Number of distinct fingerprints inserted. *)

  val contention : t -> int
  (** CAS insertions lost to a racing domain — a measure of shard
      contention (exported as a metric by the explorer). *)

  val shards : t -> int
  (** Actual shard count (power of two). *)

  val shard_sizes : t -> int array
  (** Per-shard insert counts, for distribution diagnostics/tests. *)
end

(** Process-id symmetry reduction: quotient the explored state space by
    the group of process permutations that provably commute with every
    machine step.  {!detect} checks the soundness conditions on the root
    configuration (identical per-process scripts up to own-pid renaming,
    pid-oblivious object declarations ({!Objdef.sym_spec}), no pid in a
    junk pool, permutations preserving the crash-enabled set);
    {!canonical} then maps a fingerprint to one representative of its
    orbit so the visited store deduplicates whole orbits.  See
    docs/model.md for the soundness argument. *)
module Symmetry : sig
  type group

  val detect : ?crashes_possible:bool -> crash_procs:int list -> Sim.t -> group option
  (** [detect sim] on the {e root} configuration: [Some g] iff every
      soundness condition holds and the resulting group is non-trivial.
      [crashes_possible] (default [true]) additionally requires every
      object's recovery programs to be pid-oblivious; pass [false] for
      crash-free exploration. *)

  val degree : group -> int
  (** Order of the group, [k! * (n - k)!] for [n] processes of which
      [k] are crash-enabled: the group permutes the crash-enabled set
      and its complement separately. *)

  val permute : group -> int array -> t -> t
  (** The group action: [permute g pi fp] renames process [p] to
      [pi.(p)] — its control state moves to slot [pi.(p)], its cells of
      the declared pid arrays and matrices move with it, and every [Pid]
      value is renamed.  [pi] must be a member of [g] (a permutation of
      [0..n-1] that maps the crash-enabled set onto itself). *)

  val canonical : group -> t -> t
  (** The orbit's representative: equal for two fingerprints exactly
      when one is the [permute] image of the other.  Each process gets a
      key — a hash of its state with pids erased to own/other, refined
      by where the other processes and the shared memory mention its
      pid — that moves with the process under the group action.  The
      candidates are the members that sort the processes by key within
      each crash class (one member unless keys tie); the result is the
      least candidate image by a fixed total order, and [fp] itself,
      built at no cost, when the only candidate is the identity.
      Deterministic: independent of domain, schedule or insertion
      order. *)
end
