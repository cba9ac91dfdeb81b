(** Simulated non-volatile shared memory: a heap of {!Value.t} cells with
    atomic read / write / read-modify-write primitives, in one of two
    persistency modes fixed at creation:

    - {!Instant} (default): the paper's model — every completed write is
      durable immediately and crash steps never touch cells.
    - {!Explicit}: the realistic flush/fence model — each cell carries a
      volatile value (what every primitive operates on) and a persisted
      value; writes make cells dirty, {!flush}/{!fence} write them back,
      and a full-system crash ({!crash_lose}) nondeterministically loses
      dirty cells, reverting them to their persisted values.

    See [docs/memory-model.md] for the full convention. *)

type addr = int

type mode = Instant | Explicit

type t

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable rmws : int;
  mutable flushes : int;
  mutable fences : int;
}

val create : ?mode:mode -> unit -> t
(** Create an empty heap; [mode] defaults to {!Instant}. *)

val mode : t -> mode

val alloc : ?name:string -> t -> Value.t -> addr
(** Allocate one persistent cell with the given initial value.  In
    {!Explicit} mode freshly allocated state counts as already durable. *)

val alloc_array : ?name:string -> t -> int -> Value.t -> addr
(** [alloc_array t n init] allocates [n] contiguous cells, returning the base
    address; cell [i] is at [base + i]. *)

val read : t -> addr -> Value.t
val write : t -> addr -> Value.t -> unit

val cas : t -> addr -> expected:Value.t -> desired:Value.t -> bool
(** Atomic compare-and-swap using structural value equality. *)

val tas : t -> addr -> Value.t
(** Atomic test-and-set: writes [Int 1], returns the previous contents. *)

val fetch_and_add : t -> addr -> int -> Value.t
(** Atomic fetch-and-add on an integer cell; returns the previous value. *)

val set_current_pid : t -> int -> unit
(** Writer attribution for {!Explicit} mode: the machine calls this with
    the executing process id before each instruction.  Dirty cells are
    attributed to the most recent writer; {!fence} persists exactly the
    cells attributed to the current pid.  Defaults to pid 0, so writes
    issued before any call are still tracked as pending.  Transient
    scheduling context — neither trailed nor included in snapshots. *)

val flush : t -> addr -> unit
(** Synchronously persist one cell (CLWB + SFENCE folded into one
    pseudo-op): the persisted value catches up with the volatile one,
    whoever wrote it.  No-op (apart from the stats counter) in
    {!Instant} mode or on a clean cell. *)

val fence : t -> unit
(** Persist every cell whose pending write belongs to the current pid
    (see {!set_current_pid}).  No-op in {!Instant} mode. *)

val pending : t -> addr list
(** Dirty cells (volatile ≠ persisted) in increasing address order;
    [[]] in {!Instant} mode. *)

val crash_lose : t -> mask:int -> unit
(** Apply full-system-crash persistence nondeterminism: bit [i] of [mask]
    decides the fate of the [i]-th cell of {!pending} — set = the pending
    write reached the medium, clear = it is lost and the cell reverts to
    its persisted value.  [mask = 0] loses everything.  All cells are
    clean afterwards.  No-op in {!Instant} mode. *)

val peek : t -> addr -> Value.t
(** Read without counting an access; for checkers and debugging only. *)

val peek_persisted : t -> addr -> Value.t
(** The persisted view of a cell ({!peek} of the medium); equal to
    {!peek} in {!Instant} mode.  Non-counting. *)

val snapshot : t -> Value.t array
(** Copy of the current volatile heap contents, for state exploration. *)

val psnapshot : t -> Value.t array
(** Copy of the persisted heap contents; [[||]] in {!Instant} mode (the
    volatile snapshot {e is} the persisted state there). *)

val owners : t -> int array
(** Pending-writer pid per cell ([-1] = clean); [[||]] in {!Instant}
    mode. *)

val restore : t -> Value.t array -> unit
(** Restore a heap snapshot taken with {!snapshot}.  In {!Explicit} mode
    the restored heap is re-established as fully durable. *)

val copy : t -> t
(** Independent deep copy (cells, persisted view, names and statistics). *)

val set_trail : t -> Trail.t option -> unit
(** Attach (or detach) an undo trail.  While attached, every mutation of
    the volatile and persisted views
    ([write]/[cas]/[tas]/[fetch_and_add]/[flush]/[fence]/[crash_lose]/
    [restore]) and every allocation logs an undo thunk, so
    {!Trail.undo_to} reverts the heap in-place.  Access {!stats} are
    deliberately {e not} trailed — the machine snapshots them in its own
    mark.  {!copy} never propagates the trail. *)

val name : t -> addr -> string
val size : t -> int
val stats : t -> stats
val reset_stats : t -> unit
val pp : t Fmt.t

type image = { values : Value.t array; pvalues : Value.t array; owners : int array }
(** An immutable copy of the heap's three views: {!snapshot},
    {!psnapshot} and {!owners}. *)

val image : t -> image
(** A fresh image of the heap; reads no cache. *)

val add_image : Key.writer -> image -> unit
(** Write an image as the heap's part of a configuration key: the
    volatile values, the persisted values and the owners, each as a
    count and then one field per cell (so [0] and [0] for the last two
    in {!Instant} mode). *)

val add_key : t -> Key.writer -> image
(** Write the bytes {!add_image} writes for the heap's current image,
    and return that image.  The first call keys the heap: from then on
    each cell's encodings and the whole section (its bytes and its
    image) are kept, every mutation marks what it changed stale, and
    later calls re-encode only stale cells — or copy the section whole
    when nothing changed.  Trail undo puts back the encodings the undone
    mutations replaced; {!restore} drops them all.  {!copy} starts
    unkeyed. *)
