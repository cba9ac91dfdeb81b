(** Recoverable abortable mutex on real multicore: the native twin of
    the simulated {!Objects.Mutex_obj} (a Jayanti–Joshi-style abortable
    acquire), over OCaml 5 [Atomic] cells.

    The lock word packs [<owner, seq>] with {!Enc.pack} (0 = free), so
    a recovering ACQUIRE distinguishes "my CAS for {e this} invocation
    won" from "I hold the lock from an earlier acquire" in one load.
    Both operations are strict: the boolean response is persisted in a
    per-process response slot, stamped with the caller-supplied sequence
    number, before it is returned.  RELEASE writes its per-process
    commit marker {e before} clearing the lock, so its recovery can
    still answer true after another process has re-acquired.

    The per-process marker and response slots are {e plain} padded
    slots, not atomics: they are written and read only by process [p]
    itself (recovery runs on the same domain — a crash is an in-domain
    exception), so no cross-domain visibility is required and each write
    costs a plain store instead of a fenced one (the {!Rrw}
    argument).  Only the lock word is shared, and it is an atomic.

    Sequence numbers must be non-negative, distinct per process, and
    fit {!Enc.value_bits}. *)

(* Local [@inline] copies of the hot one-liners (see rrw.ml). *)
let[@inline] point (cp : Crash.t) = if cp.Crash.live then Crash.slow_point cp
let[@inline] slot p = (p + 1) lsl 3

type t = {
  lock : int Atomic.t;  (** 0 = free, [Enc.pack ~id:owner seq] = held *)
  s : int array;  (** plain padded commit markers: the released seq, -1 none *)
  ares : int array;  (** plain padded ACQUIRE responses ({!Enc.res_pack}) *)
  rres : int array;  (** plain padded RELEASE responses ({!Enc.res_pack}) *)
}

let create ~nprocs =
  Enc.check_nprocs nprocs;
  {
    lock = Pad.make_int 0;
    s = Pad.flat_make nprocs (-1);
    ares = Pad.flat_make nprocs Enc.res_none;
    rres = Pad.flat_make nprocs Enc.res_none;
  }

let acquire_cp cp t ~pid ~seq =
  point cp;
  let l = Atomic.get t.lock in  (* line 2 *)
  let won =
    if l = 0 then begin
      point cp;
      Atomic.compare_and_set t.lock 0 (Enc.pack ~id:pid seq)  (* line 3 *)
    end
    else false  (* line 5: abortable — give up on contention *)
  in
  point cp;
  t.ares.(slot pid) <- Enc.res_pack ~seq won;  (* line 6 *)
  point cp;
  won

let acquire ?(cp = Crash.none) t ~pid ~seq = acquire_cp cp t ~pid ~seq

let acquire_recover_cp cp t ~pid ~seq =
  point cp;
  let r = t.ares.(slot pid) in  (* line 9 *)
  if Enc.res_seq r = seq then Enc.res_ret r  (* the response escaped already *)
  else begin
    point cp;
    (* lines 10-12: granted iff the lock holds exactly this acquire's
       stamp — [<p, older>] means an earlier acquire's grant, and
       granting again without a release would break mutual exclusion *)
    let won = Atomic.get t.lock = Enc.pack ~id:pid seq in
    point cp;
    t.ares.(slot pid) <- Enc.res_pack ~seq won;  (* resume line 6 *)
    point cp;
    won
  end

let acquire_recover ?(cp = Crash.none) t ~pid ~seq = acquire_recover_cp cp t ~pid ~seq

let release_cp cp t ~pid ~seq =
  point cp;
  let l = Atomic.get t.lock in  (* line 2 *)
  (* Enc.id 0 = -1, never a pid, so the owner test needs no free check *)
  let ret = Enc.id l = pid in
  if ret then begin
    point cp;
    t.s.(slot pid) <- seq;  (* line 4: commit marker before the clear *)
    point cp;
    Atomic.set t.lock 0  (* line 5: only the owner can reach this *)
  end;
  point cp;
  t.rres.(slot pid) <- Enc.res_pack ~seq ret;  (* line 7 *)
  point cp;
  ret

let release ?(cp = Crash.none) t ~pid ~seq = release_cp cp t ~pid ~seq

let release_recover_cp cp t ~pid ~seq =
  point cp;
  let r = t.rres.(slot pid) in  (* line 11 *)
  if Enc.res_seq r = seq then Enc.res_ret r
  else begin
    point cp;
    let l = Atomic.get t.lock in  (* line 12 *)
    if Enc.id l = pid then begin
      (* still the owner: resume from the commit marker (line 4) *)
      point cp;
      t.s.(slot pid) <- seq;
      point cp;
      Atomic.set t.lock 0;
      point cp;
      t.rres.(slot pid) <- Enc.res_pack ~seq true;
      point cp;
      true
    end
    else begin
      (* lines 13-15: the marker says whether my clear happened before
         the crash (another process may hold the lock by now) *)
      point cp;
      let ret = t.s.(slot pid) = seq in
      point cp;
      t.rres.(slot pid) <- Enc.res_pack ~seq ret;
      point cp;
      ret
    end
  end

let release_recover ?(cp = Crash.none) t ~pid ~seq = release_recover_cp cp t ~pid ~seq

(** Baseline: plain (non-recoverable) abortable test-and-set lock. *)
module Plain = struct
  type t = int Atomic.t

  let create () = Pad.make_int 0
  let acquire t ~pid = Atomic.compare_and_set t 0 (pid + 1)
  let release t ~pid = Atomic.compare_and_set t (pid + 1) 0
end
