(** Recoverable Treiber stack on real multicore, nested on the strict CAS
    ({!Rscas}) — the native counterpart of the simulator's
    {!Objects.Stack_obj}.

    The stack is a chain of immutable two-field nodes ending in the
    cyclic [nil] sentinel, reached through a freshly-allocated stamped
    [head] record in the CAS cell.  The head's
    [stamp = (seq lsl 13) lor pid] makes every installed content
    writer-unique (the distinct-values assumption, ABA immunity): a pop
    cannot install the predecessor node directly, because identity and
    recovery evidence live in the stamp.

    Each attempt runs the persisted per-attempt tag protocol of {!Rfaa}:
    bump the tag [seq] (the commit point, recorded in the operation's own
    commit marker — its [LI_p]), record the would-be response in [att],
    CAS, and record the response in [own].  The strict-CAS layer
    is inlined and specialized: physical CAS on the head pointer,
    helping matrix of head pointers in flat padded plain cells,
    <seq, ret> responses and per-process [seq]/[att]/[own] metadata in
    plain padded int slots (owner-only / helping-publication arguments
    as in rcas.ml).  Stamp equality replaces structural content
    comparison everywhere, so evidence checks are integer compares.
    Responses are packed ints ([resp_pushed], [resp_empty],
    [Popped v] = [(v lsl 2) lor 2]); a push+pop pair allocates three
    small blocks (node + two heads) and nothing else. *)

(* Local [@inline] copies of the hot one-liners: dev builds compile with
   -opaque, which turns every cross-module call (Crash.point, the Pad
   slot arithmetic, the Enc response packing) into an indirect call
   through the module block, so the shared definitions cannot inline
   here.  Mirror crash.ml / pad.ml / enc.ml exactly. *)
let[@inline] point (cp : Crash.t) = if cp.Crash.live then Crash.slow_point cp
let[@inline] slot p = (p + 1) lsl 3
let[@inline] slot2 ~n row col = ((row * n) + col + 1) lsl 3
let[@inline] res_pack ~seq ret = (seq lsl 1) lor (if ret then 1 else 0)
let[@inline] res_seq r = r asr 1
let[@inline] res_ret r = r land 1 = 1
let max_procs = 8191  (* = Enc.max_procs, the 13-bit stamp pid mask *)

type response = Pushed | Popped of int | Empty

type node = { nv : int; next : node }

let rec nil = { nv = 0; next = nil }

type head = { stamp : int; top : node }
(** [stamp < 0]: initial content (the paper's null writer) *)

let no_evidence = { stamp = min_int; top = nil }

type t = {
  c : head Atomic.t;  (** padded *)
  r : head array;  (** flat padded helping matrix, [no_evidence] = empty *)
  res : int array;  (** plain padded, packed <seq, ret> *)
  meta : int array;  (** flat padded: seq, att_seq, att_resp, own_seq, own_resp, commit *)
  nprocs : int;
}

let resp_pushed = 0
let resp_empty = 1
let[@inline] resp_popped v = (v lsl 2) lor 2

let decode r = if r = 0 then Pushed else if r = 1 then Empty else Popped (r asr 2)

let create ~nprocs () =
  Enc.check_nprocs nprocs;
  let meta = Pad.flat_make nprocs 0 in
  for p = 0 to nprocs - 1 do
    let b = slot p in
    meta.(b + 1) <- -1;
    (* att_seq *)
    meta.(b + 3) <- -1 (* own_seq *)
  done;
  {
    c = Pad.make_any { stamp = -1; top = nil };
    r = Array.make (slot2 ~n:nprocs nprocs 0) no_evidence;
    res = Pad.flat_make nprocs Enc.res_none;
    meta;
    nprocs;
  }

let[@inline] id_of h = if h.stamp < 0 then -1 else h.stamp land max_procs

let peek ?(cp = Crash.none) t =
  point cp;
  let h = Atomic.get t.c in
  if h.top == nil then None else Some h.top.nv

(* the inlined strict-CAS step: help, physical CAS, persist <seq, ret> *)
let[@inline] cas_head_cp cp t ~pid ~(h : head) ~(nh : head) ~s =
  let id = id_of h in
  if id >= 0 then begin
    point cp;
    t.r.(slot2 ~n:t.nprocs id pid) <- h
  end;
  point cp;
  let ok = Atomic.compare_and_set t.c h nh in
  point cp;
  t.res.(slot pid) <- res_pack ~seq:s ok;
  ok

let[@inline] finish_cp cp t ~b ~s resp =
  point cp;
  t.meta.(b + 4) <- resp;
  t.meta.(b + 3) <- s;
  resp

let rec push_cp cp t ~pid x =
  let b = slot pid in
  t.meta.(b + 5) <- 0;
  point cp;
  let s = t.meta.(b) + 1 in
  point cp;
  t.meta.(b) <- s;
  t.meta.(b + 5) <- 1;
  point cp;
  let h = Atomic.get t.c in
  let nh = { stamp = (s lsl 13) lor pid; top = { nv = x; next = h.top } } in
  point cp;
  t.meta.(b + 2) <- resp_pushed;
  t.meta.(b + 1) <- s;
  if cas_head_cp cp t ~pid ~h ~nh ~s then finish_cp cp t ~b ~s resp_pushed
  else push_cp cp t ~pid x

let rec pop_cp cp t ~pid =
  let b = slot pid in
  t.meta.(b + 5) <- 0;
  point cp;
  let s = t.meta.(b) + 1 in
  point cp;
  t.meta.(b) <- s;
  t.meta.(b + 5) <- 1;
  point cp;
  let h = Atomic.get t.c in
  if h.top == nil then finish_cp cp t ~b ~s resp_empty
  else begin
    let x = h.top.nv in
    let nh = { stamp = (s lsl 13) lor pid; top = h.top.next } in
    let resp = resp_popped x in
    point cp;
    t.meta.(b + 2) <- resp;
    t.meta.(b + 1) <- s;
    if cas_head_cp cp t ~pid ~h ~nh ~s then finish_cp cp t ~b ~s resp
    else pop_cp cp t ~pid
  end

let push ?(cp = Crash.none) t ~pid x = push_cp cp t ~pid x
let pop ?(cp = Crash.none) t ~pid = pop_cp cp t ~pid

(* evidence-only verdict for the attempt stamped <pid, s>: the
   persisted <seq, ret>, the head in C, or the helping row decide;
   None = the CAS never took effect (Lemma 3) *)
let outcome_cp cp t ~pid ~s =
  let stamp = (s lsl 13) lor pid in
  point cp;
  let res = t.res.(slot pid) in
  if res_seq res = s then Some (res_ret res)
  else begin
    point cp;
    if (Atomic.get t.c).stamp = stamp then begin
      point cp;
      t.res.(slot pid) <- res_pack ~seq:s true;
      Some true
    end
    else begin
      let found = ref false in
      for j = 0 to t.nprocs - 1 do
        point cp;
        if t.r.(slot2 ~n:t.nprocs pid j).stamp = stamp then found := true
      done;
      if !found then begin
        point cp;
        t.res.(slot pid) <- res_pack ~seq:s true;
        Some true
      end
      else None
    end
  end

(* the shared recovery: decide the latest attempt's fate from its
   commit marker and persisted tags, asking the CAS level for evidence
   when the crash may have hit between the physical cas and the response
   persistence; otherwise re-execute *)
let recover_with cp ~redo t ~pid =
  let b = slot pid in
  if t.meta.(b + 5) = 0 then redo ()
  else begin
    point cp;
    let s = t.meta.(b) in
    point cp;
    if t.meta.(b + 3) = s then t.meta.(b + 4)
    else begin
      point cp;
      if t.meta.(b + 1) <> s then redo ()
      else begin
        let aresp = t.meta.(b + 2) in
        match outcome_cp cp t ~pid ~s with
        | Some true -> finish_cp cp t ~b ~s aresp
        | Some false | None -> redo ()
      end
    end
  end

let push_recover ?(cp = Crash.none) t ~pid x =
  recover_with cp ~redo:(fun () -> push_cp cp t ~pid x) t ~pid

let pop_recover ?(cp = Crash.none) t ~pid =
  recover_with cp ~redo:(fun () -> pop_cp cp t ~pid) t ~pid
