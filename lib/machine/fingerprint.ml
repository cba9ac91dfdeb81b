(** Canonical fingerprint of a machine configuration.

    A fingerprint covers everything that determines the machine's future
    behaviour: the persistent memory contents, the junk-generator state
    (which fixes the values future crashes scramble locals to), and for
    each process its status, completed results, remaining script length
    and full frame stack — object, operation, phase, pc, [LI],
    interrupted flag, argument values, local bindings and the
    environment's post-crash mode.  History bookkeeping (call ids, step
    counters, the recorded history itself) is deliberately excluded: two
    configurations with equal fingerprints generate identical future
    event sequences even when they were reached by different
    interleavings.

    A fingerprint carries two forms of the same content: a structural
    view (read by the printer and the symmetry reduction) and a packed
    {e key}, one byte string that encodes every compared field
    injectively ({!Nvm.Key}).  Equality, ordering and the hash read only
    the key, and {!Store} keeps only the key and its hash, so the visited
    set is a heap of strings the major GC marks without scanning.  The
    view is immutable: the heap's image and the process views that the
    key's parts were encoded from. *)

open Procview

type t = {
  fp_hash : int;  (** [hash_key fp_key] *)
  fp_key : string;  (** [encode] of the fields below *)
  fp_mem : Nvm.Value.t array;
  fp_pmem : Nvm.Value.t array;
      (** persisted view of each cell under the explicit-persist model
          ([Nvm.Memory.psnapshot]); [[||]] in instant mode, where the
          volatile view is the persisted view *)
  fp_owner : int array;
      (** pending-writer pid per cell, [-1] = clean ([Nvm.Memory.owners]);
          [[||]] in instant mode.  Needed because a dirty cell's future
          differs by which process's [fence] would persist it *)
  fp_junk : int;
  fp_procs : proc array;
  fp_extra : int;
      (** caller-supplied path context that must keep otherwise-equal
          configurations distinct — the explorer passes its consumed
          crash budget, without which deduplication would merge states
          whose remaining futures differ (see {!Explore}) *)
}

let hash t = t.fp_hash

(* {1 The key}

   The heap's image first ({!Nvm.Memory.add_image}), then the junk state
   as a fixed eight-byte word, the extra context, the process count and
   one segment per process.  Each domain reuses one writer, and the
   finished key is copied out. *)

let key_writer = Domain.DLS.new_key (fun () -> Nvm.Key.writer 1024)

let rec add_binding_list w = function
  | [] -> ()
  | (k, v) :: tl ->
    Nvm.Key.add_string w k;
    Nvm.Key.add_value w v;
    add_binding_list w tl

let add_bindings w l =
  Nvm.Key.add_int w (List.length l);
  add_binding_list w l

let add_frame w f =
  let open Nvm.Key in
  add_int w f.ff_obj;
  add_string w f.ff_op;
  reserve w (4 * value_room);
  put_int w (Bool.to_int f.ff_recovery lor (Bool.to_int f.ff_interrupted lsl 1));
  put_int w f.ff_pc;
  put_int w f.ff_li;
  (match f.ff_env_junk with
  | None -> put_byte w '\000'
  | Some s ->
    put_byte w '\001';
    put_word w s);
  add_bindings w f.ff_env;
  add_int w (Array.length f.ff_args);
  for i = 0 to Array.length f.ff_args - 1 do
    add_value w (Array.unsafe_get f.ff_args i)
  done

(* One process's segment of the key. *)
let add_proc w p =
  let open Nvm.Key in
  reserve w (2 * value_room);
  put_int w (Bool.to_int p.pf_crashed);
  put_int w p.pf_script;
  add_bindings w p.pf_results;
  add_int w (List.length p.pf_stack);
  List.iter (add_frame w) p.pf_stack

let add_head w ~junk ~extra ~nprocs =
  let open Nvm.Key in
  reserve w (3 * value_room);
  put_word w junk;
  put_int w extra;
  put_int w nprocs

(* A 63-bit hash of the key's bytes, read little-endian seven at a time
   so that each word fits an [int] whole, finished by an avalanche step:
   the store takes its shard from the low bits, which a multiplicative
   mix alone leaves depending on the low input bits only. *)
let hash_key s =
  let n = String.length s in
  let h = ref (n lxor 0x2545_F491_4F6C_DD1D) in
  let i = ref 0 in
  while !i + 8 <= n do
    let w = Int64.to_int (String.get_int64_le s !i) land 0xFF_FFFF_FFFF_FFFF in
    h := (!h lxor w) * 0x3F58_476D_1CE4_E5B9;
    h := !h lxor (!h lsr 29);
    i := !i + 7
  done;
  while !i < n do
    h := (!h lxor Char.code (String.unsafe_get s !i)) * 0x0100_0000_01B3;
    incr i
  done;
  let h = !h in
  let h = (h lxor (h lsr 31)) * 0x14D0_49BB_1331_11EB in
  let h = (h lxor (h lsr 29)) * 0x3F58_476D_1CE4_E5B9 in
  h lxor (h lsr 32)

(* A fingerprint of a structural view, its key encoded whole. *)
let make ~mem ~pmem ~owner ~junk ~extra ~procs =
  let w = Domain.DLS.get key_writer in
  w.pos <- 0;
  Nvm.Memory.add_image w { values = mem; pvalues = pmem; owners = owner };
  add_head w ~junk ~extra ~nprocs:(Array.length procs);
  Array.iter (add_proc w) procs;
  let key = Nvm.Key.contents w in
  {
    fp_hash = hash_key key;
    fp_key = key;
    fp_mem = mem;
    fp_pmem = pmem;
    fp_owner = owner;
    fp_junk = junk;
    fp_procs = procs;
    fp_extra = extra;
  }

let of_sim_uncached ?(extra = 0) sim =
  let mem = Sim.mem sim in
  make ~mem:(Nvm.Memory.snapshot mem) ~pmem:(Nvm.Memory.psnapshot mem)
    ~owner:(Nvm.Memory.owners mem) ~junk:(Sim.junk_state sim) ~extra
    ~procs:(Array.init (Sim.nprocs sim) (Sim.proc_view sim))

(* The same bytes as [of_sim_uncached], joined from the parts the heap
   and the machine keep: only a stale cell or a dropped process segment
   is encoded afresh. *)
let of_sim ?(extra = 0) sim =
  let w = Domain.DLS.get key_writer in
  w.pos <- 0;
  let img = Nvm.Memory.add_key (Sim.mem sim) w in
  let junk = Sim.junk_state sim and n = Sim.nprocs sim in
  add_head w ~junk ~extra ~nprocs:n;
  let procs =
    Array.init n (fun p ->
        match Sim.key_segment sim p with
        | Some seg ->
          Nvm.Key.add_raw w seg.Sim.seg_key;
          seg.Sim.seg_view
        | None ->
          let start = w.pos in
          let pv = Sim.proc_view sim p in
          add_proc w pv;
          Sim.set_key_segment sim p (Nvm.Key.since w start) pv;
          pv)
  in
  let key = Nvm.Key.contents w in
  {
    fp_hash = hash_key key;
    fp_key = key;
    fp_mem = img.values;
    fp_pmem = img.pvalues;
    fp_owner = img.owners;
    fp_junk = junk;
    fp_procs = procs;
    fp_extra = extra;
  }

let equal a b = a.fp_hash = b.fp_hash && String.equal a.fp_key b.fp_key

(* A deterministic total order, consistent with [equal]; used to pick
   the canonical representative of an orbit. *)
let order a b =
  let c = Int.compare a.fp_hash b.fp_hash in
  if c <> 0 then c else String.compare a.fp_key b.fp_key

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(** Printable canonical serialisation (for diagnostics and the
    impossibility analysis's string-keyed maps). *)
let to_string t =
  let b = Buffer.create 256 in
  Array.iter
    (fun v ->
      Buffer.add_string b (Nvm.Value.to_string v);
      Buffer.add_char b '|')
    t.fp_mem;
  (* persisted view, only under the explicit-persist model (empty arrays
     in instant mode keep that mode's serialisation unchanged) *)
  if Array.length t.fp_pmem > 0 then begin
    Buffer.add_string b "~P";
    Array.iteri
      (fun a v ->
        Buffer.add_string b (Nvm.Value.to_string v);
        if t.fp_owner.(a) >= 0 then Buffer.add_string b (Printf.sprintf "^%d" t.fp_owner.(a));
        Buffer.add_char b '|')
      t.fp_pmem
  end;
  Buffer.add_string b (Printf.sprintf "~j%d" t.fp_junk);
  if t.fp_extra <> 0 then Buffer.add_string b (Printf.sprintf "~x%d" t.fp_extra);
  Array.iter
    (fun p ->
      Buffer.add_string b (if p.pf_crashed then "C" else "R");
      Buffer.add_string b (string_of_int p.pf_script);
      Buffer.add_char b ':';
      List.iter
        (fun (op, v) ->
          Buffer.add_string b op;
          Buffer.add_string b (Nvm.Value.to_string v);
          Buffer.add_char b ',')
        p.pf_results;
      Buffer.add_char b '[';
      List.iter
        (fun f ->
          Buffer.add_string b (string_of_int f.ff_obj);
          Buffer.add_char b '.';
          Buffer.add_string b f.ff_op;
          Buffer.add_string b (if f.ff_recovery then "/r" else "/b");
          Buffer.add_string b (Printf.sprintf "@%d;li%d" f.ff_pc f.ff_li);
          if f.ff_interrupted then Buffer.add_char b '!';
          (match f.ff_env_junk with
          | None -> ()
          | Some s -> Buffer.add_string b (Printf.sprintf "~e%d" s));
          Buffer.add_char b '{';
          List.iter
            (fun (k, v) ->
              Buffer.add_string b k;
              Buffer.add_char b '=';
              Buffer.add_string b (Nvm.Value.to_string v);
              Buffer.add_char b ';')
            f.ff_env;
          Buffer.add_char b '}';
          Array.iter
            (fun a ->
              Buffer.add_string b (Nvm.Value.to_string a);
              Buffer.add_char b ',')
            f.ff_args;
          Buffer.add_char b '/')
        p.pf_stack;
      Buffer.add_string b "]#")
    t.fp_procs;
  Buffer.contents b

(** Lock-free sharded visited-set, safe to share across domains.

    Each shard is an ordered chain of open-addressing segments of
    [slot Atomic.t] cells, a slot holding a fingerprint's hash and key
    and nothing else.  Insertion probes the segments in one fixed global
    order — oldest segment first, and within each segment a bounded
    window of slots starting at a position derived from the hash — and
    claims the first empty slot with a CAS.  Because slots are monotone
    ([Empty] → [Key], never mutated again) and two equal fingerprints
    share the exact same probe sequence, they serialise on the first
    CAS-able slot of that sequence: whichever CAS wins inserts, and the
    loser re-reads the very slot it lost and observes the duplicate.  So
    [add] returns [true] exactly once per distinct fingerprint with no
    locks on the fast path.

    When every window in the chain is full, the shard grows by
    appending a segment of twice the last size — the only step taken
    under a (per-shard) mutex, and re-checked against concurrent
    growth before appending.  Earlier segments are never rehashed, so
    probes started before a growth still agree with probes after it. *)
module Store = struct
  type fp = t

  type slot = Empty | Key of int * string  (** hash, key *)

  type shard = {
    mutable segs : slot Atomic.t array array;
        (** oldest first; written only under [lock], read without it —
            the probe re-reads via [Atomic] slot operations only *)
    lock : Mutex.t;
    count : int Atomic.t;
  }

  type t = {
    shards : shard array;
    shard_bits : int;
    contention : int Atomic.t;  (** CAS insertions lost to a racing domain *)
  }

  let probe_window = 16
  let initial_segment = 1 lsl 10

  let create ?(shards = 64) () =
    let bits =
      let rec go b = if 1 lsl b >= max 1 (min shards 4096) then b else go (b + 1) in
      go 0
    in
    {
      shards =
        Array.init (1 lsl bits) (fun _ ->
            {
              segs = [| Array.init initial_segment (fun _ -> Atomic.make Empty) |];
              lock = Mutex.create ();
              count = Atomic.make 0;
            });
      shard_bits = bits;
      contention = Atomic.make 0;
    }

  type verdict = Fresh | Dup | Full

  let probe t segs h k =
    let pos = h lsr t.shard_bits in
    let nsegs = Array.length segs in
    let verdict = ref Full in
    let s = ref 0 in
    while !verdict = Full && !s < nsegs do
      let seg = segs.(!s) in
      let m = Array.length seg in
      let base = pos mod m in
      let window = min probe_window m in
      let i = ref 0 in
      while !verdict = Full && !i < window do
        let slot = seg.((base + !i) mod m) in
        (match Atomic.get slot with
        | Key (h', k') -> if h' = h && String.equal k' k then verdict := Dup
        | Empty ->
          if Atomic.compare_and_set slot Empty (Key (h, k)) then verdict := Fresh
          else begin
            Atomic.incr t.contention;
            (* the slot is monotone: re-read what beat us *)
            match Atomic.get slot with
            | Key (h', k') when h' = h && String.equal k' k -> verdict := Dup
            | _ -> ()
          end);
        incr i
      done;
      incr s
    done;
    !verdict

  (** [add s fp] is [true] iff [fp] was not in the store (and is now). *)
  let rec add t (fp : fp) =
    let sh = t.shards.(fp.fp_hash land ((1 lsl t.shard_bits) - 1)) in
    let segs = sh.segs in
    match probe t segs fp.fp_hash fp.fp_key with
    | Fresh ->
      Atomic.incr sh.count;
      true
    | Dup -> false
    | Full ->
      Mutex.lock sh.lock;
      (if sh.segs == segs then
         let last = segs.(Array.length segs - 1) in
         let grown = Array.init (2 * Array.length last) (fun _ -> Atomic.make Empty) in
         sh.segs <- Array.append segs [| grown |]);
      Mutex.unlock sh.lock;
      add t fp

  let cardinal t = Array.fold_left (fun acc sh -> acc + Atomic.get sh.count) 0 t.shards

  let contention t = Atomic.get t.contention
  let shards t = Array.length t.shards

  let shard_sizes t = Array.map (fun sh -> Atomic.get sh.count) t.shards
end

(* -------------------------------------------------------------------- *)
(* Process-id symmetry reduction                                         *)

(* FNV-style mixing for the pid-erased process hashes below, which pick
   the explorer's partial-order tie-break and order the processes of the
   canonical form; [Value.hash] does the per-value work. *)
let mix h k = ((h * 0x01000193) lxor k) land max_int

(* A frame's fields other than its locals and arguments, in hashing
   order, for the pid-erased process hashes below. *)
let hash_frame_head h ~obj ~op ~recovery ~interrupted ~pc ~li ~env_junk =
  let h = mix h obj in
  let h = mix h (Hashtbl.hash op) in
  let h = mix h (Bool.to_int recovery lor (Bool.to_int interrupted lsl 1)) in
  let h = mix h pc in
  let h = mix h li in
  mix h (match env_junk with None -> 0x5851 | Some s -> s)

let rec rename_value pi v =
  match v with
  | Nvm.Value.Pid q -> if q >= 0 && q < Array.length pi then Nvm.Value.Pid pi.(q) else v
  | Nvm.Value.Pair (a, b) -> Nvm.Value.Pair (rename_value pi a, rename_value pi b)
  | v -> v

let map_frame_values f fr =
  {
    fr with
    ff_env = List.map (fun (k, v) -> (k, f v)) fr.ff_env;
    ff_args = Array.map f fr.ff_args;
  }

let map_proc_values f p =
  {
    p with
    pf_results = List.map (fun (op, v) -> (op, f v)) p.pf_results;
    pf_stack = List.map (map_frame_values f) p.pf_stack;
  }

(* Pid erasure relative to process [own]: [erased_value refs own at v]
   is [Nvm.Value.hash] of [v] with [Pid own] replaced by an own token
   and every other pid by an other token, computed without building the
   erased value (the [Pair] case mirrors [Nvm.Value.hash]).  Each other
   pid [q] that indexes [refs] is also recorded: [at], a hash of where
   [v] sits, is added to [refs.(q)] ([[||]] records nothing).  Renaming
   every pid by a permutation [pi] — [own] and the indices of [refs]
   included — changes neither the result nor the record: that
   equivariance is all the canonical form below needs. *)
let own_hash = Nvm.Value.hash (Nvm.Value.Str "\001own")
let other_hash = Nvm.Value.hash (Nvm.Value.Str "\001other")

let rec erased_value refs own at v =
  match v with
  | Nvm.Value.Pid q ->
    if q = own then own_hash
    else begin
      if q >= 0 && q < Array.length refs then refs.(q) <- refs.(q) + at;
      other_hash
    end
  | Nvm.Value.Pair (a, b) ->
    (erased_value refs own (mix at 1) a * 65599) + erased_value refs own (mix at 2) b
  | v -> Nvm.Value.hash v

let rec erased_bindings refs own h = function
  | [] -> h
  | (k, v) :: tl ->
    let h = mix h (Hashtbl.hash k) in
    erased_bindings refs own (mix h (erased_value refs own h v)) tl

let erased_args refs own h args =
  let h = ref h in
  for i = 0 to Array.length args - 1 do
    h := mix !h (erased_value refs own !h args.(i))
  done;
  !h

let erased_frame refs own h ~obj ~op ~recovery ~interrupted ~pc ~li ~env_junk ~env ~args =
  let h = hash_frame_head h ~obj ~op ~recovery ~interrupted ~pc ~li ~env_junk in
  erased_args refs own (erased_bindings refs own h env) args

let rec erased_stack refs own h frame = function
  | [] -> h
  | f :: tl -> erased_stack refs own (frame refs own h f) frame tl

(* The one fold behind both pid-erased process hashes: over a live
   process ([erased_proc_hash]) and over a fingerprint's process (the
   canonical form's key); [frame] reads one frame of either kind. *)
let erased_proc refs own ~crashed ~script ~results ~stack ~frame =
  let h = mix (mix 0x9e3779b9 (Bool.to_int crashed)) script in
  erased_stack refs own (erased_bindings refs own h results) frame stack

let erased_proc_hash sim p =
  let pr = Sim.proc sim p in
  erased_proc [||] p
    ~crashed:(match pr.Sim.status with Sim.Ready -> false | Sim.Crashed -> true)
    ~script:(List.length pr.Sim.script) ~results:pr.Sim.results ~stack:pr.Sim.stack
    ~frame:(fun refs own h (f : Sim.frame) ->
      erased_frame refs own h ~obj:f.Sim.f_obj.Objdef.id ~op:f.Sim.f_op.Objdef.op_name
        ~recovery:(match f.Sim.f_phase with Sim.Body -> false | Sim.Recovery -> true)
        ~interrupted:f.Sim.f_interrupted ~pc:f.Sim.f_pc ~li:f.Sim.f_li
        ~env_junk:(Env.junk_state f.Sim.f_env) ~env:(Env.bindings f.Sim.f_env)
        ~args:f.Sim.f_args)

module Symmetry = struct
  type group = {
    g_n : int;
    g_crash : bool array;
        (** the crash-enabled set: members permute it and its complement
            separately *)
    g_slots : int array;
        (** the crash-enabled pids ascending, then the others ascending:
            the positions the canonical form fills in key order *)
    g_arrays : int list;
    g_matrices : int list;
    g_private : bool array;
        (** the root memory's cells inside some pid array or matrix, which
            the group moves; every other cell it renames in place *)
  }

  let max_group = 5040 (* 7! — beyond this canonicalisation costs more than it prunes *)

  (* A script is symmetric when, after renaming the process's own pid to
     a neutral token, every process runs the same program.  Arguments
     mentioning a *foreign* pid, or computed at invocation time, make
     the scenario asymmetric (or unanalysable) — detection bails out. *)
  let erased_script own (pr : Sim.proc) =
    let own_tok = Nvm.Value.Str "\001own" in
    let rec erase v =
      match v with
      | Nvm.Value.Pid q -> if q = own then Some own_tok else None
      | Nvm.Value.Pair (a, b) -> (
        match (erase a, erase b) with
        | Some a, Some b -> Some (Nvm.Value.Pair (a, b))
        | _ -> None)
      | v -> Some v
    in
    let entry (inst, op, spec) =
      match spec with
      | Sim.Compute _ -> None
      | Sim.Args a ->
        let ea = Array.map erase a in
        if Array.exists Option.is_none ea then None
        else Some (inst.Objdef.id, op, Array.map Option.get ea)
    in
    let rec all = function
      | [] -> Some []
      | e :: tl -> (
        match (entry e, all tl) with Some k, Some ks -> Some (k :: ks) | _ -> None)
    in
    all pr.Sim.script

  (* Crash junk must commute with the group too.  A [Lure] pool naming
     a pid is refused: its values enter locals unrenamed.  [Scramble] is
     accepted although [Junk.scramble_next] draws [Pid (0..15)]: the
     group action renames a drawn pid once it is stored in a local, but
     not the pids the stream will draw later, so a configuration and its
     permuted image can scramble a later crash to values that are not
     each other's images.  No argument covers that case: the claim that
     the quotiented verdict equals the unquotiented one under [Scramble]
     rests on the bug-zoo pins in test/test_store.ml, which compare the
     two on every mutant with crashes enabled. *)
  let junk_pid_free sim =
    match Sim.junk_strategy sim with
    | Junk.Scramble | Junk.Zeros | Junk.Ones | Junk.MaxInt -> true
    | Junk.Lure pool ->
      let rec pid_free = function
        | Nvm.Value.Pid _ -> false
        | Nvm.Value.Pair (a, b) -> pid_free a && pid_free b
        | _ -> true
      in
      Array.for_all pid_free pool

  let fact n =
    let r = ref 1 in
    for i = 2 to n do
      r := !r * i
    done;
    !r

  let degree g =
    let k = Array.fold_left (fun k c -> if c then k + 1 else k) 0 g.g_crash in
    fact k * fact (g.g_n - k)

  let detect ?(crashes_possible = true) ~crash_procs sim =
    let n = Sim.nprocs sim in
    let insts = Objdef.instances (Sim.registry sim) in
    let objects_ok =
      insts <> []
      && List.for_all
           (fun (i : Objdef.instance) ->
             match i.Objdef.sym with
             | None -> false
             | Some s ->
               s.Objdef.body_oblivious && ((not crashes_possible) || s.Objdef.recover_oblivious))
           insts
    in
    let root_ok =
      let ok = ref true in
      for p = 0 to n - 1 do
        let pr = Sim.proc sim p in
        if pr.Sim.status <> Sim.Ready || pr.Sim.stack <> [] || pr.Sim.results <> [] then
          ok := false
      done;
      !ok
    in
    let scripts_ok =
      match erased_script 0 (Sim.proc sim 0) with
      | None -> false
      | Some k0 ->
        let rec same p =
          p >= n
          || (match erased_script p (Sim.proc sim p) with
             | Some kp when kp = k0 -> same (p + 1)
             | _ -> false)
        in
        same 1
    in
    if n < 2 || fact n > max_group || (not objects_ok) || (not root_ok) || (not scripts_ok)
       || not (junk_pid_free sim)
    then None
    else
      let crash = Array.init n (fun p -> List.mem p crash_procs) in
      let pids = List.init n Fun.id in
      let arrays, matrices =
        List.fold_left
          (fun (ars, mats) (i : Objdef.instance) ->
            match i.Objdef.sym with
            | None -> (ars, mats)
            | Some s -> (s.Objdef.pid_arrays @ ars, s.Objdef.pid_matrices @ mats))
          ([], []) insts
      in
      (* the cells [permute] moves: those of every array or matrix that
         fits in memory *)
      let private_cells = Array.make (Nvm.Memory.size (Sim.mem sim)) false in
      let mark base len =
        if base >= 0 && base + len <= Array.length private_cells then
          Array.fill private_cells base len true
      in
      List.iter (fun base -> mark base n) arrays;
      List.iter (fun base -> mark base (n * n)) matrices;
      let g =
        {
          g_n = n;
          g_crash = crash;
          g_slots =
            Array.of_list
              (List.filter (fun p -> crash.(p)) pids @ List.filter (fun p -> not crash.(p)) pids);
          g_arrays = arrays;
          g_matrices = matrices;
          g_private = private_cells;
        }
      in
      if degree g = 1 then None else Some g

  (* Apply a permutation to a fingerprint: rename every Pid value, move
     per-process array cells to the slot of the renamed owner, move
     matrix cells likewise in both coordinates, and relocate each
     process's control state.  The junk-stream state and the extra path
     context are plain integers and pass through (see [junk_pid_free]
     for the pids the stream draws). *)
  let permute g pi fp =
    let n = g.g_n in
    let renamed = Array.map (rename_value pi) fp.fp_mem in
    let mem = Array.copy renamed in
    List.iter
      (fun base ->
        if base >= 0 && base + n <= Array.length mem then
          for p = 0 to n - 1 do
            mem.(base + pi.(p)) <- renamed.(base + p)
          done)
      g.g_arrays;
    List.iter
      (fun base ->
        if base >= 0 && base + (n * n) <= Array.length mem then
          for q = 0 to n - 1 do
            for p = 0 to n - 1 do
              mem.(base + (pi.(q) * n) + pi.(p)) <- renamed.(base + (q * n) + p)
            done
          done)
      g.g_matrices;
    let procs = Array.make n fp.fp_procs.(0) in
    for p = 0 to n - 1 do
      procs.(pi.(p)) <- map_proc_values (rename_value pi) fp.fp_procs.(p)
    done;
    (* symmetry reduction is disabled under the explicit-persist model
       (see Explore.symmetry_group), so the persisted-view arrays are
       always empty here and pass through unchanged *)
    make ~mem ~pmem:fp.fp_pmem ~owner:fp.fp_owner ~junk:fp.fp_junk ~extra:fp.fp_extra ~procs

  (* Process [p]'s own key: its pid-erased control state and its own
     cell of every pid array.  Where another process's pid occurs in them
     is recorded in [refs] (see [erased_value]). *)
  let own_key g refs fp p =
    let n = g.g_n and mem = fp.fp_mem in
    let pf = fp.fp_procs.(p) in
    let h =
      erased_proc refs p ~crashed:pf.pf_crashed ~script:pf.pf_script ~results:pf.pf_results
        ~stack:pf.pf_stack ~frame:(fun refs own h f ->
          erased_frame refs own h ~obj:f.ff_obj ~op:f.ff_op ~recovery:f.ff_recovery
            ~interrupted:f.ff_interrupted ~pc:f.ff_pc ~li:f.ff_li ~env_junk:f.ff_env_junk
            ~env:f.ff_env ~args:f.ff_args)
    in
    let rec arrays h = function
      | [] -> h
      | base :: tl ->
        arrays
          (if base >= 0 && base + n <= Array.length mem then
             mix h (erased_value refs p h mem.(base + p))
           else h)
          tl
    in
    arrays h g.g_arrays

  (* The key of every process: its own key, refined by where the other
     processes and the shared memory cells (those outside every pid
     array and matrix, which the group renames in place) mention its
     pid.  Equivariant: the key of [permute g pi fp] at [pi.(p)] is the
     key of [fp] at [p]. *)
  let keys g fp =
    let n = g.g_n and mem = fp.fp_mem in
    let refs = Array.make n 0 in
    let own = Array.init n (own_key g refs fp) in
    for a = 0 to Array.length mem - 1 do
      if a >= Array.length g.g_private || not g.g_private.(a) then
        ignore (erased_value refs (-1) (mix 0x2545 a) mem.(a))
    done;
    Array.map2 mix own refs

  (* Sort the processes by key within each crash class; the candidates
     are the members that send the i-th process of that order to the
     i-th slot of [g_slots], one per arrangement of each block of tied
     keys.  Applying any member to [fp] permutes the keys with it, so the
     set of candidate images is the same for every member of the orbit,
     and so is its least element by [order]. *)
  let canonical g fp =
    let n = g.g_n in
    if Array.length fp.fp_procs <> n then fp
    else begin
      let key = keys g fp in
      let cmp a b =
        if g.g_crash.(a) <> g.g_crash.(b) then Bool.compare g.g_crash.(b) g.g_crash.(a)
        else Int.compare key.(a) key.(b)
      in
      let ord = Array.copy g.g_slots in
      Array.sort cmp ord;
      (* [last.(i)]: end of the block of tied keys holding position [i] *)
      let last = Array.make n (n - 1) in
      for i = n - 2 downto 0 do
        last.(i) <- (if cmp ord.(i) ord.(i + 1) = 0 then last.(i + 1) else i)
      done;
      let pi = Array.make n 0 in
      let best = ref None in
      let consider () =
        let id = ref true in
        for i = 0 to n - 1 do
          pi.(ord.(i)) <- g.g_slots.(i);
          if ord.(i) <> g.g_slots.(i) then id := false
        done;
        let cand = if !id then fp else permute g pi fp in
        match !best with
        | Some b when order b cand <= 0 -> ()
        | _ -> best := Some cand
      in
      let swap i j =
        let t = ord.(i) in
        ord.(i) <- ord.(j);
        ord.(j) <- t
      in
      (* every arrangement of every tie block, by swapping position [i]
         with each later position of its block *)
      let rec arrange i =
        if i = n then consider ()
        else
          for j = i to last.(i) do
            swap i j;
            arrange (i + 1);
            swap i j
          done
      in
      arrange 0;
      Option.get !best
    end
end
