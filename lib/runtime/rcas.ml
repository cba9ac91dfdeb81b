(** Algorithm 2 on real multicore: recoverable CAS object over OCaml 5
    [Atomic] cells.  Assumptions as in the paper: never [old = new],
    per-process distinct new values.

    [C] holds the paper's [<id, val>] pair packed into one int ({!Enc}):
    [id = -1] encodes [null], the last successful writer otherwise.  The
    [N x N] helping matrix [R] is flattened into a stride-padded {e plain}
    int array, [Enc.none] meaning "no evidence".  Why plain cells are
    sound under the OCaml memory model: a helper's write to [R[id][q]]
    program-precedes its CAS on [C], and every update of [C] is a
    successful CAS — an atomic RMW.  A recovering process reads [C]
    atomically; if its value is gone from [C], the overwriter's
    successful CAS is in [C]'s RMW chain, so the read happens-after it,
    and transitively happens-after the overwriter's earlier plain help
    write.  Evidence the recovery needs is thus always visible; help
    entries of {e failed} CAS attempts may be stale, but those are never
    needed (if the value is gone, the successful overwriter's entry
    decides).  Allocation-free on every path; values are 48-bit
    signed. *)

(* Local [@inline] copies of the hot one-liners: dev builds compile with
   -opaque, which turns every cross-module call (Crash.point, Pad.slot2,
   the Enc packing) into an indirect call through the module block, so
   the shared definitions cannot inline here.  Mirror crash.ml / pad.ml
   / enc.ml exactly. *)
let[@inline] point (cp : Crash.t) = if cp.Crash.live then Crash.slow_point cp
let[@inline] slot2 ~n row col = ((row * n) + col + 1) lsl 3
let[@inline] pack ~id v = ((id + 1) lsl 48) lor (v land ((1 lsl 48) - 1))
let[@inline] value c = (c lsl 15) asr 15
let[@inline] id_of c = (c lsr 48) - 1

type t = {
  c : int Atomic.t;  (** packed <last successful writer (-1 = null), value> *)
  r : int array;  (** flat padded helping matrix, [Enc.none] = empty *)
  nprocs : int;
}

let create ~nprocs init =
  Enc.check_nprocs nprocs;
  { c = Pad.make_int (pack ~id:(-1) init); r = Pad.flat2_make nprocs Enc.none; nprocs }

let[@inline] read_content_cp cp t =
  point cp;
  Atomic.get t.c  (* line 2 / line 10 *)

let[@inline] read_cp cp t = value (read_content_cp cp t)
let read ?(cp = Crash.none) t = read_cp cp t
let read_recover ?(cp = Crash.none) t = read_cp cp t

(* lines 5-8 from a content previously read: the help write, then the
   CAS from exactly that content.  Retry loops ({!Rfaa}, through
   {!Rscas}) call this with the content their attempt read. *)
let[@inline] cas_content_cp cp t ~pid ~content ~new_ =
  let id = id_of content in
  if id >= 0 then begin
    point cp;
    t.r.(slot2 ~n:t.nprocs id pid) <- value content  (* lines 5-6, plain help write *)
  end;
  point cp;
  Atomic.compare_and_set t.c content (pack ~id:pid new_)  (* lines 7-8 *)

let[@inline] cas_cp cp t ~pid ~old ~new_ =
  let content = read_content_cp cp t in
  value content = old && cas_content_cp cp t ~pid ~content ~new_  (* lines 3-4 *)

let cas_recover_cp cp t ~pid ~old ~new_ =
  point cp;
  if Atomic.get t.c = pack ~id:pid new_ then true  (* line 13, left term first *)
  else begin
    let found = ref false in
    let j = ref 0 in
    while (not !found) && !j < t.nprocs do
      point cp;
      if t.r.(slot2 ~n:t.nprocs pid !j) = new_ then found := true;
      incr j
    done;
    if !found then true  (* line 14 *)
    else cas_cp cp t ~pid ~old ~new_  (* line 16: proceed from line 2 *)
  end

let cas ?(cp = Crash.none) t ~pid ~old ~new_ = cas_cp cp t ~pid ~old ~new_
let cas_recover ?(cp = Crash.none) t ~pid ~old ~new_ = cas_recover_cp cp t ~pid ~old ~new_

(** Baseline: plain (non-recoverable) CAS object with the same interface. *)
module Plain = struct
  type 'a t = 'a Atomic.t

  let create init = Atomic.make init
  let read t = Atomic.get t
  let cas t ~old ~new_ = Atomic.compare_and_set t old new_
end
