(** The strict recoverable CAS on real multicore: {!Rcas} plus
    per-invocation tagged response persistence ([res] holds
    [<seq, ret>]), mirroring the simulator's {!Objects.Scas_obj}.  Each
    operation calls the nested {!Rcas} operation and then persists its
    response.

    The caller supplies a [seq] tag, distinct and non-negative across its
    invocations; a recovering caller can then decide from [res.(pid)]
    whether its pending CAS completed and with which response.

    [res] holds packed <seq, ret> ({!Enc.res_pack}) in {e plain} padded
    slots — [Res_p] is owner-only state (written by [p], read by [p]'s
    recovery on the same domain), so it needs no fence.  Allocation-free
    on every path; values are 48-bit signed, [seq] tags non-negative
    61-bit. *)

(* Local [@inline] copies of the hot one-liners: dev builds compile with
   -opaque, which turns every cross-module call (Crash.point, the Pad
   slot arithmetic, the Enc packing) into an indirect call through the
   module block, so the shared definitions cannot inline here.  Mirror
   crash.ml / pad.ml / enc.ml exactly. *)
let[@inline] point (cp : Crash.t) = if cp.Crash.live then Crash.slow_point cp
let[@inline] slot p = (p + 1) lsl 3
let[@inline] slot2 ~n row col = ((row * n) + col + 1) lsl 3
let[@inline] pack ~id v = ((id + 1) lsl 48) lor (v land ((1 lsl 48) - 1))
let[@inline] res_pack ~seq ret = (seq lsl 1) lor (if ret then 1 else 0)
let[@inline] res_seq r = r asr 1
let[@inline] res_ret r = r land 1 = 1

type t = {
  cas : Rcas.t;  (** Algorithm 2's object: [C] and the helping matrix *)
  res : int array;  (** plain padded slots, packed <seq, ret> *)
}

let create ~nprocs init =
  { cas = Rcas.create ~nprocs init; res = Pad.flat_make nprocs Enc.res_none }

let read ?cp t = Rcas.read ?cp t.cas

(* the packed content is itself the retry-loop token.  A one-line
   mirror of [Rcas.read_content_cp], like the helpers above: in a dev
   build the extra indirect call cost the FAA retry loop ~3 ns of ~19 *)
let[@inline] read_content_cp cp t =
  point cp;
  Atomic.get t.cas.Rcas.c

let[@inline] persist_cp cp t ~pid ~seq ret =
  point cp;
  t.res.(slot pid) <- res_pack ~seq ret;
  ret

let[@inline] cas_cp cp t ~pid ~old ~new_ ~seq =
  persist_cp cp t ~pid ~seq (Rcas.cas_cp cp t.cas ~pid ~old ~new_)

let cas ?(cp = Crash.none) t ~pid ~old ~new_ ~seq = cas_cp cp t ~pid ~old ~new_ ~seq

(* like [cas_cp] from a content previously obtained with
   [read_content_cp]: what retry loops need, since the CAS must swap
   from exactly the content the attempt read *)
let[@inline] cas_content_cp cp t ~pid ~content ~new_ ~seq =
  persist_cp cp t ~pid ~seq (Rcas.cas_content_cp cp t.cas ~pid ~content ~new_)

(* Evidence-only verdict for the CAS invocation tagged [seq] with value
   [new_]: [Some r] if the persisted response, [C]'s contents or the
   helping matrix row decide it (persisting the verdict on the way out);
   [None] if there is no evidence — by the paper's Lemma 3 argument the
   cas then never took effect and the caller may safely re-execute at its
   own level.  This is what a {e nesting} caller's recovery needs (the
   machine gets it for free from the recovery cascade; native code must
   ask explicitly).  The row scan reads every cell, unlike
   [Rcas.cas_recover]'s early exit: the two recoveries' crash-point
   sequences differ, and each is pinned as it is. *)
let outcome_cp cp t ~pid ~new_ ~seq =
  point cp;
  let res = t.res.(slot pid) in
  if res_seq res = seq then Some (res_ret res)
  else begin
    let c = t.cas in
    point cp;
    if Atomic.get c.Rcas.c = pack ~id:pid new_ then Some (persist_cp cp t ~pid ~seq true)
    else begin
      let found = ref false in
      for j = 0 to c.Rcas.nprocs - 1 do
        point cp;
        if c.Rcas.r.(slot2 ~n:c.Rcas.nprocs pid j) = new_ then found := true
      done;
      if !found then Some (persist_cp cp t ~pid ~seq true) else None
    end
  end

let cas_recover ?(cp = Crash.none) t ~pid ~old ~new_ ~seq =
  match outcome_cp cp t ~pid ~new_ ~seq with
  | Some r -> r
  | None -> cas_cp cp t ~pid ~old ~new_ ~seq
