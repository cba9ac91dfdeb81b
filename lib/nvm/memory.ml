(** Simulated non-volatile shared memory.

    The paper's model provides base objects — persistent shared-memory
    variables supporting atomic read, write and read-modify-write
    operations — whose contents survive crash-failures.  This module is
    that substrate: a growable heap of {!Value.t} cells with atomic
    primitives and per-primitive access statistics.

    Atomicity: the simulator executes one instruction at a time, so every
    primitive here is trivially atomic.

    {2 Persistency modes}

    The heap supports two persistency modes, fixed at creation:

    - {!Instant} — the paper's model: every completed write is durable
      immediately.  Crash steps never touch cells, so the invariants the
      real NVRAM would enforce hold by construction.  All explicit-persist
      machinery below is a no-op and allocates nothing; an [Instant] heap
      behaves byte-identically to the pre-mode implementation.
    - {!Explicit} — the realistic model used by flush/fence NVM algorithms
      (NVTraverse, memento's [persist_obj]): each cell has a {e volatile}
      value (the coherent cache, which every primitive operates on) and a
      {e persisted} value (the medium).  A write makes the cell {e dirty}:
      its volatile value diverges from the persisted one, attributed to
      the writing process until persisted.  [flush a] writes cell [a] back
      synchronously (CLWB + SFENCE folded into one pseudo-op); [fence]
      writes back every cell whose pending write belongs to the executing
      process.  On a full-system crash ({!crash_lose}) each dirty cell
      independently and nondeterministically either reaches the medium or
      reverts to its persisted value — the scheduler enumerates the
      subsets.  Overwriting a dirty cell re-attributes the pending write
      to the newer writer (the older store was overwritten in cache);
      writing a cell back to exactly its persisted value makes it clean.
      Build-time allocation initialises cells as already persisted.

    {2 Key bytes}

    Once asked for its key bytes ({!add_key}), the heap keeps each
    cell's {!Key} encoding for the volatile and the persisted view, and
    the section: the encoding of all three views (values, persisted
    values, owners) with the {!image} it encodes.  A mutation marks the
    cell stale and drops the section; {!add_key} re-encodes only stale
    cells.  Under a trail every
    mutation's undo thunk also puts back the encodings it replaced, so a
    backtracked heap needs no re-encoding.  Before the first {!add_key}
    nothing of this runs: a mutation pays one test of [keyed]. *)

type addr = int

type image = { values : Value.t array; pvalues : Value.t array; owners : int array }

(* [add_key]'s output and the image it encodes *)
type section = { bytes : string; img : image }

let no_section = { bytes = ""; img = { values = [||]; pvalues = [||]; owners = [||] } }

type mode = Instant | Explicit

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable rmws : int;
  mutable flushes : int;
  mutable fences : int;
}

type t = {
  mode : mode;
  mutable cells : Value.t array;
  mutable pmem : Value.t array;
      (** persisted view; parallel to [cells] in [Explicit] mode, length 0
          in [Instant] mode *)
  mutable owner : int array;
      (** pid of the pending writer per cell, [-1] = clean; invariant in
          [Explicit] mode: [owner.(a) >= 0] iff [cells.(a) <> pmem.(a)].
          Length 0 in [Instant] mode. *)
  mutable cur_pid : int;
      (** writer attribution for [write]/[fence]; set by the machine
          before each instruction ({!set_current_pid}).  Transient
          scheduling context, not semantic state: it is re-established
          before every instruction, so it is neither trailed nor part of
          snapshots. *)
  mutable used : int;
  names : (addr, string) Hashtbl.t;
  stats : stats;
  mutable trail : Trail.t option;
      (** when set, every cell mutation (volatile and persisted views
          alike) logs an undo thunk so the heap can be reverted by
          {!Trail.undo_to}; access statistics are {e not} trailed (the
          machine snapshots them in its own mark) *)
  mutable keyed : bool;  (** the key caches below are maintained *)
  mutable venc : string array;
      (** {!Key.add_value} bytes of each volatile value, [""] = stale;
          parallel to [cells] once [keyed] *)
  mutable penc : string array;
      (** the same for the persisted view ([Explicit] mode only) *)
  mutable sect : section;  (** {!add_key}'s last section, [no_section] = stale *)
}

let create ?(mode = Instant) () =
  {
    mode;
    cells = Array.make 64 Value.Null;
    pmem = (match mode with Instant -> [||] | Explicit -> Array.make 64 Value.Null);
    owner = (match mode with Instant -> [||] | Explicit -> Array.make 64 (-1));
    (* pid 0 by default so the owner-iff-dirty invariant holds even for
       writes issued before any {!set_current_pid} *)
    cur_pid = 0;
    used = 0;
    names = Hashtbl.create 64;
    stats = { reads = 0; writes = 0; rmws = 0; flushes = 0; fences = 0 };
    trail = None;
    keyed = false;
    venc = [||];
    penc = [||];
    sect = no_section;
  }

let mode t = t.mode
let set_current_pid t p = t.cur_pid <- p

let set_trail t trail = t.trail <- trail

(* The undo thunks index the arrays afresh, so they stay correct even if
   the arrays are reallocated by growth in between.  A keyed heap's
   thunks also put back the cell's encoding and the section as they were
   before the mutation: either is stale ([""]) or right for the state the
   undo returns to.  The keyed thunks are built out of line, so an unkeyed
   heap's mutation pays only the test of [keyed]. *)
let[@inline never] log_keyed_cell t tr a =
  let old = t.cells.(a) and old_e = t.venc.(a) and old_s = t.sect in
  Trail.push tr (fun () ->
      t.cells.(a) <- old;
      t.venc.(a) <- old_e;
      t.sect <- old_s)

let log_cell t a =
  match t.trail with
  | None -> ()
  | Some tr ->
    if t.keyed then log_keyed_cell t tr a
    else
      let old = t.cells.(a) in
      Trail.push tr (fun () -> t.cells.(a) <- old)

(* Undo for the explicit-persist metadata of cell [a] (persisted value and
   pending-writer attribution).  Only ever called in [Explicit] mode. *)
let[@inline never] log_keyed_persist t tr a =
  let old_p = t.pmem.(a) and old_o = t.owner.(a) in
  let old_e = t.penc.(a) and old_s = t.sect in
  Trail.push tr (fun () ->
      t.pmem.(a) <- old_p;
      t.owner.(a) <- old_o;
      t.penc.(a) <- old_e;
      t.sect <- old_s)

let log_persist t a =
  match t.trail with
  | None -> ()
  | Some tr ->
    if t.keyed then log_keyed_persist t tr a
    else
      let old_p = t.pmem.(a) and old_o = t.owner.(a) in
      Trail.push tr (fun () ->
          t.pmem.(a) <- old_p;
          t.owner.(a) <- old_o)

(* Stale marks after a mutation of cell [a]: of its volatile value
   ([vstale]) or of its persisted value ([pstale]); either drops the
   section, which also holds the owners. *)
let[@inline never] drop_cell enc t a =
  enc.(a) <- "";
  t.sect <- no_section

let[@inline] vstale t a = if t.keyed then drop_cell t.venc t a
let[@inline] pstale t a = if t.keyed then drop_cell t.penc t a

let drop_keys t =
  Array.fill t.venc 0 (Array.length t.venc) "";
  Array.fill t.penc 0 (Array.length t.penc) "";
  t.sect <- no_section

let stats t = t.stats

let reset_stats t =
  t.stats.reads <- 0;
  t.stats.writes <- 0;
  t.stats.rmws <- 0;
  t.stats.flushes <- 0;
  t.stats.fences <- 0

let size t = t.used

let ensure t n =
  if n > Array.length t.cells then begin
    let cap = max n (2 * Array.length t.cells) in
    let cells = Array.make cap Value.Null in
    Array.blit t.cells 0 cells 0 t.used;
    t.cells <- cells;
    if t.mode = Explicit then begin
      let pmem = Array.make cap Value.Null in
      Array.blit t.pmem 0 pmem 0 t.used;
      t.pmem <- pmem;
      let owner = Array.make cap (-1) in
      Array.blit t.owner 0 owner 0 t.used;
      t.owner <- owner
    end;
    if t.keyed then begin
      let grown a =
        let b = Array.make cap "" in
        Array.blit a 0 b 0 (min t.used (Array.length a));
        b
      in
      t.venc <- grown t.venc;
      if t.mode = Explicit then t.penc <- grown t.penc
    end
  end

(* Allocation during a trailed run is legal (though algorithms normally
   allocate only at build time): the undo shrinks [used] back, which is
   all later allocations observe (a re-allocation re-initialises the cell
   and its persist metadata); stale name-table entries are harmless
   diagnostics. *)
let log_alloc t n =
  match t.trail with
  | None -> ()
  | Some tr ->
    let old = t.used and old_s = t.sect in
    ignore n;
    Trail.push tr (fun () ->
        t.used <- old;
        t.sect <- old_s)

let init_cell t a v =
  t.cells.(a) <- v;
  vstale t a;
  if t.mode = Explicit then begin
    (* freshly allocated state is considered already durable *)
    t.pmem.(a) <- v;
    t.owner.(a) <- -1;
    pstale t a
  end

let alloc ?name t init =
  log_alloc t 1;
  ensure t (t.used + 1);
  let a = t.used in
  init_cell t a init;
  t.used <- t.used + 1;
  (match name with None -> () | Some n -> Hashtbl.replace t.names a n);
  a

let alloc_array ?name t n init =
  if n < 0 then invalid_arg "Memory.alloc_array: negative size";
  log_alloc t n;
  ensure t (t.used + n);
  let base = t.used in
  for i = 0 to n - 1 do
    init_cell t (base + i) init
  done;
  t.used <- t.used + n;
  (match name with
  | None -> ()
  | Some nm ->
    for i = 0 to n - 1 do
      Hashtbl.replace t.names (base + i) (Printf.sprintf "%s[%d]" nm i)
    done);
  base

let check t a =
  if a < 0 || a >= t.used then
    invalid_arg (Printf.sprintf "Memory: address %d out of bounds (size %d)" a t.used)

let name t a =
  match Hashtbl.find_opt t.names a with
  | Some n -> n
  | None -> Printf.sprintf "cell#%d" a

let read t a =
  check t a;
  t.stats.reads <- t.stats.reads + 1;
  t.cells.(a)

(* After a volatile mutation of cell [a], re-establish the dirtiness
   invariant: dirty iff the volatile value diverges from the persisted
   one, attributed to the current writer. *)
let mark_written t a =
  vstale t a;
  if t.mode = Explicit then begin
    log_persist t a;
    t.owner.(a) <- (if Value.equal t.cells.(a) t.pmem.(a) then -1 else t.cur_pid)
  end

let write t a v =
  check t a;
  t.stats.writes <- t.stats.writes + 1;
  log_cell t a;
  t.cells.(a) <- v;
  mark_written t a

(* Read-modify-write primitives.  Each counts as a single atomic access.
   In [Explicit] mode an RMW behaves like a write for persistence: the new
   value lands in the volatile view and still needs a flush/fence. *)

let cas t a ~expected ~desired =
  check t a;
  t.stats.rmws <- t.stats.rmws + 1;
  if Value.equal t.cells.(a) expected then begin
    log_cell t a;
    t.cells.(a) <- desired;
    mark_written t a;
    true
  end
  else false

(** Test-and-set on an integer cell: atomically write 1, return the previous
    value.  The paper's non-resettable TAS base object. *)
let tas t a =
  check t a;
  t.stats.rmws <- t.stats.rmws + 1;
  log_cell t a;
  let prev = t.cells.(a) in
  t.cells.(a) <- Value.Int 1;
  mark_written t a;
  prev

let fetch_and_add t a delta =
  check t a;
  t.stats.rmws <- t.stats.rmws + 1;
  log_cell t a;
  let prev = Value.as_int t.cells.(a) in
  t.cells.(a) <- Value.Int (prev + delta);
  mark_written t a;
  Value.Int prev

(* Persist cell [a]: persisted view catches up with the volatile one,
   and so does its encoding. *)
let persist_cell t a =
  log_persist t a;
  t.pmem.(a) <- t.cells.(a);
  t.owner.(a) <- -1;
  if t.keyed then begin
    t.penc.(a) <- t.venc.(a);
    t.sect <- no_section
  end

let flush t a =
  check t a;
  t.stats.flushes <- t.stats.flushes + 1;
  match t.mode with
  | Instant -> ()
  | Explicit -> if t.owner.(a) >= 0 then persist_cell t a

let fence t =
  t.stats.fences <- t.stats.fences + 1;
  match t.mode with
  | Instant -> ()
  | Explicit ->
    for a = 0 to t.used - 1 do
      if t.owner.(a) = t.cur_pid then persist_cell t a
    done

let pending t =
  match t.mode with
  | Instant -> []
  | Explicit ->
    let acc = ref [] in
    for a = t.used - 1 downto 0 do
      if t.owner.(a) >= 0 then acc := a :: !acc
    done;
    !acc

let crash_lose t ~mask =
  match t.mode with
  | Instant -> ()
  | Explicit ->
    (* bit [i] of [mask] decides the fate of the [i]-th dirty cell in
       increasing address order: set = the pending write reached the
       medium at the crash instant; clear = it is lost and the cell
       reverts to its persisted value. *)
    List.iteri
      (fun i a ->
        if mask land (1 lsl i) <> 0 then persist_cell t a
        else begin
          log_cell t a;
          log_persist t a;
          t.cells.(a) <- t.pmem.(a);
          t.owner.(a) <- -1;
          if t.keyed then begin
            t.venc.(a) <- t.penc.(a);
            t.sect <- no_section
          end
        end)
      (pending t)

(** Non-counting read used by checkers, debuggers and pretty-printers; not
    available to simulated algorithms. *)
let peek t a =
  check t a;
  t.cells.(a)

let peek_persisted t a =
  check t a;
  match t.mode with Instant -> t.cells.(a) | Explicit -> t.pmem.(a)

let snapshot t = Array.sub t.cells 0 t.used

let psnapshot t =
  match t.mode with Instant -> [||] | Explicit -> Array.sub t.pmem 0 t.used

let owners t =
  match t.mode with Instant -> [||] | Explicit -> Array.sub t.owner 0 t.used

let restore t snap =
  (match t.trail with
  | None -> ()
  | Some tr ->
    let old_cells = Array.sub t.cells 0 t.used and old_used = t.used in
    let old_pmem =
      match t.mode with Instant -> [||] | Explicit -> Array.sub t.pmem 0 t.used
    and old_owner =
      match t.mode with Instant -> [||] | Explicit -> Array.sub t.owner 0 t.used
    in
    Trail.push tr (fun () ->
        ensure t old_used;
        Array.blit old_cells 0 t.cells 0 old_used;
        if t.mode = Explicit then begin
          Array.blit old_pmem 0 t.pmem 0 old_used;
          Array.blit old_owner 0 t.owner 0 old_used
        end;
        t.used <- old_used;
        if t.keyed then drop_keys t));
  ensure t (Array.length snap);
  Array.blit snap 0 t.cells 0 (Array.length snap);
  (* a restored heap is re-established as fully durable *)
  if t.mode = Explicit then
    for a = 0 to Array.length snap - 1 do
      t.pmem.(a) <- t.cells.(a);
      t.owner.(a) <- -1
    done;
  t.used <- Array.length snap;
  if t.keyed then drop_keys t

(* The copy is trail-free: it is an independent snapshot, so undoing the
   original past the copy point must not (and does not) affect it. *)
let copy t =
  {
    mode = t.mode;
    cells = Array.copy t.cells;
    pmem = Array.copy t.pmem;
    owner = Array.copy t.owner;
    cur_pid = t.cur_pid;
    used = t.used;
    names = Hashtbl.copy t.names;
    stats =
      {
        reads = t.stats.reads;
        writes = t.stats.writes;
        rmws = t.stats.rmws;
        flushes = t.stats.flushes;
        fences = t.stats.fences;
      };
    trail = None;
    (* the copy starts unkeyed: no cache array is shared *)
    keyed = false;
    venc = [||];
    penc = [||];
    sect = no_section;
  }

(* The first call keys the heap.  Mutations trailed before it restore no
   encodings, so a trail that is undone past this point must drop every
   encoding made since: the thunk pushed here does. *)
let key_on t =
  t.keyed <- true;
  let cap = Array.length t.cells in
  t.venc <- Array.make cap "";
  if t.mode = Explicit then t.penc <- Array.make cap "";
  t.sect <- no_section;
  match t.trail with None -> () | Some tr -> Trail.push tr (fun () -> drop_keys t)

let image t = { values = snapshot t; pvalues = psnapshot t; owners = owners t }

(* The section's layout: each view of the image as a count and one field
   per cell, the values by {!Key.add_value} and the owners as integers.
   [add_image] writes an image whole; [add_key] writes the same bytes from
   the kept cell encodings. *)
let add_values w vs =
  Key.add_int w (Array.length vs);
  for a = 0 to Array.length vs - 1 do
    Key.add_value w (Array.unsafe_get vs a)
  done

let add_owners w o =
  Key.reserve w ((Array.length o + 1) * Key.value_room);
  Key.put_int w (Array.length o);
  for a = 0 to Array.length o - 1 do
    Key.put_int w (Array.unsafe_get o a)
  done

let add_image w img =
  add_values w img.values;
  add_values w img.pvalues;
  add_owners w img.owners

(* [add_values] of [vs], reusing or filling the cell encodings [enc] *)
let add_cells w enc vs =
  Key.add_int w (Array.length vs);
  for a = 0 to Array.length vs - 1 do
    let e = Array.unsafe_get enc a in
    if String.length e <> 0 then Key.add_raw w e
    else begin
      let start = w.Key.pos in
      Key.add_value w (Array.unsafe_get vs a);
      Array.unsafe_set enc a (Key.since w start)
    end
  done

let add_key t w =
  if not t.keyed then key_on t;
  if String.length t.sect.bytes <> 0 then begin
    Key.add_raw w t.sect.bytes;
    t.sect.img
  end
  else begin
    let start = w.Key.pos in
    let img = image t in
    add_cells w t.venc img.values;
    add_cells w t.penc img.pvalues;
    add_owners w img.owners;
    t.sect <- { bytes = Key.since w start; img };
    img
  end

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  for a = 0 to t.used - 1 do
    if t.mode = Explicit && t.owner.(a) >= 0 then
      Fmt.pf ppf "%s = %a (persisted %a, pending p%d)@," (name t a) Value.pp t.cells.(a)
        Value.pp t.pmem.(a) t.owner.(a)
    else Fmt.pf ppf "%s = %a@," (name t a) Value.pp t.cells.(a)
  done;
  Fmt.pf ppf "@]"
