(** Recoverable fetch-and-add on real multicore, nested on the strict CAS
    ({!Rscas}) — the native counterpart of the simulator's
    {!Objects.Faa_obj}, using the same persisted per-attempt tag
    protocol: an attempt bumps its tag [seq], records [<seq, value
    read>] in [att], runs the strict CAS tagged [seq], and on success
    records [<seq, response>] in [own].

    The operation keeps its own [LI_p]: a commit marker, cleared at
    invocation and set exactly when the attempt's tag has been persisted
    (the commit point), so {!recover} needs nothing but the operation's
    arguments.

    All per-process metadata ([seq]/[att]/[own] and the commit marker)
    lives in {e plain} padded slots (layout per process: seq, att_seq,
    att_v, own_seq, own_v, commit — all within the process's own cache
    line): the metadata is owner-only (written by [p], read by [p]'s
    recovery on the same domain).  A <seq, value> pair is two plain
    stores with no crash point between them — crashes fire only at
    [Crash.point], so the pair is crash-atomic, and the pair's seq slot
    is written second so a torn pair is simply invisible.
    Allocation-free on the crash-free path. *)

(* Local [@inline] copies of the hot one-liners: dev builds compile with
   -opaque, which turns every cross-module call (Crash.point, Pad.slot,
   Enc.value) into an indirect call through the module block, so the
   shared definitions cannot inline here.  Mirror crash.ml / pad.ml /
   enc.ml exactly. *)
let[@inline] point (cp : Crash.t) = if cp.Crash.live then Crash.slow_point cp
let[@inline] slot p = (p + 1) lsl 3
let[@inline] value c = (c lsl 15) asr 15

type t = {
  c : Rscas.t;
  meta : int array;  (** flat padded: seq, att_seq, att_v, own_seq, own_v, commit *)
}

let create ~nprocs ?(init = 0) () =
  let meta = Pad.flat_make nprocs 0 in
  for p = 0 to nprocs - 1 do
    let b = slot p in
    meta.(b + 1) <- -1;
    (* att_seq *)
    meta.(b + 3) <- -1 (* own_seq *)
  done;
  { c = Rscas.create ~nprocs init; meta }

let read ?cp t = Rscas.read ?cp t.c

(* One attempt per loop iteration: bump and persist the tag (the commit
   point), record <seq, value read> in [att], run the strict CAS tagged
   with it — the nested object's own READ-content and CAS — and on
   success record <seq, response> in [own].  The attempt is inlined into
   the retry loop: returning [Some v] from a helper would be the hot
   path's only allocation. *)
let rec faa_cp cp t ~pid delta =
  let b = slot pid in
  t.meta.(b + 5) <- 0;
  point cp;
  let s = t.meta.(b) + 1 in
  point cp;
  t.meta.(b) <- s;
  t.meta.(b + 5) <- 1;
  let content = Rscas.read_content_cp cp t.c in
  let v = value content in
  point cp;
  t.meta.(b + 2) <- v;
  t.meta.(b + 1) <- s;
  if Rscas.cas_content_cp cp t.c ~pid ~content ~new_:(v + delta) ~seq:s then begin
    point cp;
    t.meta.(b + 4) <- v;
    t.meta.(b + 3) <- s;
    v
  end
  else faa_cp cp t ~pid delta

let faa ?(cp = Crash.none) t ~pid delta = faa_cp cp t ~pid delta

(* [FAA.RECOVER].  The commit marker belongs to the {e latest} attempt:
   clear if the crash predates the tag persistence, in which case the
   whole operation re-executes — safe, since an uncommitted attempt
   invoked no CAS and a preceding committed attempt only retries after a
   persisted failure. *)
let recover ?(cp = Crash.none) t ~pid delta =
  let b = slot pid in
  if t.meta.(b + 5) = 0 then faa_cp cp t ~pid delta
  else begin
    point cp;
    let s = t.meta.(b) in
    point cp;
    if t.meta.(b + 3) = s then t.meta.(b + 4)
    else begin
      point cp;
      if t.meta.(b + 1) <> s then
        (* the attempt never reached its CAS (the att write precedes it) *)
        faa_cp cp t ~pid delta
      else begin
        (* the CAS may have been invoked and even have taken effect with
           its response lost mid-persist: ask the CAS level for evidence *)
        let atv = t.meta.(b + 2) in
        match Rscas.outcome_cp cp t.c ~pid ~new_:(atv + delta) ~seq:s with
        | Some true ->
          point cp;
          t.meta.(b + 4) <- atv;
          t.meta.(b + 3) <- s;
          atv
        | Some false | None -> faa_cp cp t ~pid delta
      end
    end
  end
