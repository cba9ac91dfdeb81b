(** The strict recoverable CAS on real multicore: {!Rcas} plus
    per-invocation tagged response persistence ([res] holds
    [<seq, ret>]), mirroring the simulator's {!Objects.Scas_obj}.

    The caller supplies a [seq] tag, distinct and non-negative across its
    invocations; a recovering caller can then decide from [res.(pid)]
    whether its pending CAS completed and with which response.

    Packed content and flat plain helping matrix as in {!Rcas}
    (memory-model argument in rcas.ml); [res] holds packed <seq, ret>
    ({!Enc.res_pack}) in {e plain} padded slots — [Res_p] is owner-only
    state (written by [p], read by [p]'s recovery on the same domain),
    so it needs no fence.  Allocation-free on every path; values are
    48-bit signed, [seq] tags non-negative 61-bit. *)

(* Local [@inline] copies of the hot one-liners: dev builds compile with
   -opaque, which turns every cross-module call (Crash.point, the Pad
   slot arithmetic, the Enc packing) into an indirect call through the
   module block, so the shared definitions cannot inline here.  Mirror
   crash.ml / pad.ml / enc.ml exactly. *)
let[@inline] point (cp : Crash.t) = if cp.Crash.live then Crash.slow_point cp
let[@inline] slot p = (p + 1) lsl 3
let[@inline] slot2 ~n row col = ((row * n) + col + 1) lsl 3
let[@inline] pack ~id v = ((id + 1) lsl 48) lor (v land ((1 lsl 48) - 1))
let[@inline] value c = (c lsl 15) asr 15
let[@inline] id_of c = (c lsr 48) - 1
let[@inline] res_pack ~seq ret = (seq lsl 1) lor (if ret then 1 else 0)
let[@inline] res_seq r = r asr 1
let[@inline] res_ret r = r land 1 = 1

type t = {
  c : int Atomic.t;  (** packed <last successful writer (-1 = null), value> *)
  r : int array;  (** flat padded helping matrix, [Enc.none] = empty *)
  res : int array;  (** plain padded slots, packed <seq, ret> *)
  nprocs : int;
}

let create ~nprocs init =
  Enc.check_nprocs nprocs;
  {
    c = Pad.make_int (pack ~id:(-1) init);
    r = Pad.flat2_make nprocs Enc.none;
    res = Pad.flat_make nprocs Enc.res_none;
    nprocs;
  }

let[@inline] read_cp cp t =
  point cp;
  value (Atomic.get t.c)

let read ?(cp = Crash.none) t = read_cp cp t

(* the packed content is itself the retry-loop token *)
let[@inline] read_content_cp cp t =
  point cp;
  Atomic.get t.c

let read_content ?(cp = Crash.none) t = read_content_cp cp t

let[@inline] persist_cp cp t ~pid ~seq ret =
  point cp;
  t.res.(slot pid) <- res_pack ~seq ret;
  ret

let persist ?(cp = Crash.none) t ~pid ~seq ret = persist_cp cp t ~pid ~seq ret

let cas_cp cp t ~pid ~old ~new_ ~seq =
  point cp;
  let content = Atomic.get t.c in
  let v = value content in
  if v <> old then persist_cp cp t ~pid ~seq false
  else begin
    let id = id_of content in
    if id >= 0 then begin
      point cp;
      t.r.(slot2 ~n:t.nprocs id pid) <- v
    end;
    point cp;
    let ok = Atomic.compare_and_set t.c content (pack ~id:pid new_) in
    persist_cp cp t ~pid ~seq ok
  end

let cas ?(cp = Crash.none) t ~pid ~old ~new_ ~seq = cas_cp cp t ~pid ~old ~new_ ~seq

(* like [cas_cp] from a content previously obtained with [read_content]:
   what retry loops need, since the CAS must swap from exactly the
   content the attempt read *)
let cas_content_cp cp t ~pid ~content ~new_ ~seq =
  let id = id_of content in
  if id >= 0 then begin
    point cp;
    t.r.(slot2 ~n:t.nprocs id pid) <- value content
  end;
  point cp;
  let ok = Atomic.compare_and_set t.c content (pack ~id:pid new_) in
  persist_cp cp t ~pid ~seq ok

let cas_content ?(cp = Crash.none) t ~pid ~content ~new_ ~seq =
  cas_content_cp cp t ~pid ~content ~new_ ~seq

(* Evidence-only verdict for the CAS invocation tagged [seq] with value
   [new_]: [Some r] if the persisted response, [C]'s contents or the
   helping matrix row decide it (persisting the verdict on the way out);
   [None] if there is no evidence — by the paper's Lemma 3 argument the
   cas then never took effect and the caller may safely re-execute at its
   own level.  This is what a {e nesting} caller's recovery needs (the
   machine gets it for free from the recovery cascade; native code must
   ask explicitly). *)
let outcome_cp cp t ~pid ~new_ ~seq =
  point cp;
  let res = t.res.(slot pid) in
  if res_seq res = seq then Some (res_ret res)
  else begin
    point cp;
    if Atomic.get t.c = pack ~id:pid new_ then Some (persist_cp cp t ~pid ~seq true)
    else begin
      let found = ref false in
      for j = 0 to t.nprocs - 1 do
        point cp;
        if t.r.(slot2 ~n:t.nprocs pid j) = new_ then found := true
      done;
      if !found then Some (persist_cp cp t ~pid ~seq true) else None
    end
  end

let outcome ?(cp = Crash.none) t ~pid ~new_ ~seq = outcome_cp cp t ~pid ~new_ ~seq

let cas_recover ?(cp = Crash.none) t ~pid ~old ~new_ ~seq =
  match outcome_cp cp t ~pid ~new_ ~seq with
  | Some r -> r
  | None -> cas_cp cp t ~pid ~old ~new_ ~seq
