(** Algorithm 4 on real multicore: recoverable counter nested on {!Rrw}
    recoverable registers.

    INC reads and rewrites the caller's own register by calling the
    register's own READ and WRITE ({!Rrw.read_cp}, {!Rrw.write_cp});
    READ sums all registers and persists its response in [Res_p] before
    returning (strict).  INC keeps its own [LI_p] — "had the nested
    WRITE of line 4 started, and with which value?" — in an owner-only
    word next to the register's [S_p] slot: [0] at invocation,
    [(v lsl 1) lor 1] once the WRITE of [v] is invoked (stored before
    the WRITE's first crash point).  So [inc_recover] needs nothing but
    the process id: it either re-executes (lines 7-8) or runs the nested
    WRITE's own recovery with [v] and returns (line 10), as the paper's
    system cascade would.

    Each per-process register is a cache-line-padded atomic (no two
    processes' INC targets share a line), with the registers' owner-only
    [S_p] and [LI_p] words and the strict READ's [Res_p] in plain padded
    slots.  INC costs two atomic loads, one fenced store and four plain
    stores; nothing allocates. *)

(* Local [@inline] copies of the hot one-liners: dev builds compile with
   -opaque, which turns every cross-module call (Crash.point, Pad.slot)
   into an indirect call through the module block, so the shared
   definitions cannot inline here.  Mirror crash.ml / pad.ml exactly. *)
let[@inline] point (cp : Crash.t) = if cp.Crash.live then Crash.slow_point cp
let[@inline] slot p = (p + 1) lsl 3

type t = {
  regs : Rrw.t array;  (** R[p], padded single-writer registers *)
  res : int array;  (** plain padded Res_p slots; -1 = none *)
  nprocs : int;
}

let create ~nprocs =
  Enc.check_nprocs nprocs;
  {
    regs = Array.init nprocs (fun _ -> Rrw.create ~nprocs 0);
    res = Pad.flat_make nprocs (-1);
    nprocs;
  }

(* INC's [LI_p]: the word after [S_p] on the owner's line of its own
   register, which INC already writes *)
let[@inline] li_slot pid = slot pid + 1

let[@inline] inc_cp cp t ~pid =
  let reg = t.regs.(pid) in
  reg.Rrw.s.(li_slot pid) <- 0;
  let v = Rrw.read_cp cp reg + 1 in  (* line 2 *)
  reg.Rrw.s.(li_slot pid) <- (v lsl 1) lor 1;
  Rrw.write_cp cp reg ~pid v  (* lines 3-4 *)

let inc ?(cp = Crash.none) t ~pid = inc_cp cp t ~pid

(* [INC.RECOVER]: before the nested WRITE started, re-execute (lines
   7-8); otherwise run the WRITE's recovery with its persisted argument,
   then return (line 10) *)
let inc_recover ?(cp = Crash.none) t ~pid =
  let reg = t.regs.(pid) in
  let li = reg.Rrw.s.(li_slot pid) in
  if li land 1 = 0 then inc_cp cp t ~pid else Rrw.write_recover_cp cp reg ~pid (li asr 1)

let read_cp cp t ~pid =
  let val_ = ref 0 in
  for i = 0 to t.nprocs - 1 do
    val_ := !val_ + Rrw.read_cp cp t.regs.(i)  (* lines 12-14 *)
  done;
  point cp;
  t.res.(slot pid) <- !val_;  (* line 15, owner-only plain slot *)
  !val_

let read ?(cp = Crash.none) t ~pid = read_cp cp t ~pid
let read_recover ?(cp = Crash.none) t ~pid = read_cp cp t ~pid  (* line 18: from line 12 *)

(** Baseline: plain array counter with the same structure (per-process
    slot, sum on read) but no recovery machinery — isolates the cost of
    recoverability rather than of the data layout. *)
module Plain = struct
  type t = int Atomic.t array

  let create ~nprocs = Array.init nprocs (fun _ -> Atomic.make 0)
  let inc t ~pid = Atomic.set t.(pid) (Atomic.get t.(pid) + 1)

  let read t =
    let v = ref 0 in
    Array.iter (fun c -> v := !v + Atomic.get c) t;
    !v
end
