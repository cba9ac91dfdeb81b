(** Recoverable consensus on real multicore: the native twin of the
    simulated {!Objects.Consensus_obj} (Golab-style, a single CAS cell
    fixes the decision).

    The decision cell starts at the sentinel {!Enc.none}; the first
    successful CAS fixes it forever, and every decide — first-try,
    repeated, or recovering — re-derives its response from the cell, so
    agreement survives any number of crashes.  DECIDE is strict: the
    response is persisted in per-process slots (value first, then the
    sequence stamp that marks it present) before it is returned.

    The response slots are {e plain} padded slots, not atomics: only
    process [p] writes and reads its own pair, and its recovery runs on
    the same domain (the {!Rrw} argument).  Only the decision cell
    is shared, and it is an atomic.

    Proposals must not equal {!Enc.none}; sequence numbers must be
    non-negative and distinct per process. *)

(* Local [@inline] copies of the hot one-liners (see rrw.ml). *)
let[@inline] point (cp : Crash.t) = if cp.Crash.live then Crash.slow_point cp
let[@inline] slot p = (p + 1) lsl 3

type t = {
  c : int Atomic.t;  (** {!Enc.none} until decided *)
  res_val : int array;  (** plain padded decision copies *)
  res_seq : int array;
      (** plain padded sequence stamps, -1 = none; written {e after} the
          value, so a present stamp covers its value *)
}

let create ~nprocs =
  Enc.check_nprocs nprocs;
  {
    c = Pad.make_int Enc.none;
    res_val = Pad.flat_make nprocs 0;
    res_seq = Pad.flat_make nprocs (-1);
  }

let decide_cp cp t ~pid ~seq v =
  if v = Enc.none then invalid_arg "Rconsensus.decide: proposal is the empty sentinel";
  point cp;
  ignore (Atomic.compare_and_set t.c Enc.none v);  (* line 2 *)
  point cp;
  let d = Atomic.get t.c in  (* line 3 *)
  point cp;
  t.res_val.(slot pid) <- d;  (* line 4: value before stamp *)
  point cp;
  t.res_seq.(slot pid) <- seq;
  point cp;
  d

let decide ?(cp = Crash.none) t ~pid ~seq v = decide_cp cp t ~pid ~seq v

let decide_recover_cp cp t ~pid ~seq v =
  point cp;
  (* lines 7-72: a present stamp covers its value (written first) *)
  if t.res_seq.(slot pid) = seq then t.res_val.(slot pid)
  else decide_cp cp t ~pid ~seq v  (* resume line 2 *)

let decide_recover ?(cp = Crash.none) t ~pid ~seq v = decide_recover_cp cp t ~pid ~seq v

(** Baseline: plain (non-recoverable) single-shot CAS consensus. *)
module Plain = struct
  type t = int Atomic.t

  let create () = Pad.make_int Enc.none

  let decide t v =
    ignore (Atomic.compare_and_set t Enc.none v);
    Atomic.get t
end
