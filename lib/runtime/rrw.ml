(** Algorithm 1 on real multicore: recoverable read/write register over
    an OCaml 5 [Atomic] cell.

    As in the paper, all values written must be distinct (tag them with
    writer id and sequence number).  Each shared access is preceded by a
    crash point so single-process recovery drills can abort the
    operation at any position and then run [write_recover]/
    [read_recover].

    [R] is a padded atomic.  [S_p] packs <flag, previous value> as
    [(prev lsl 1) lor flag] in a {e plain} (non-atomic) padded slot:
    Algorithm 1's [S_p] is written and read only by process [p] itself
    (its recovery runs on the same domain — a crash is an in-domain
    exception), so no cross-domain visibility is required and the write
    costs a plain store instead of a fenced one.  Values must fit
    62-bit signed ints (the flag steals one bit).

    Internal and nesting call chains take the crash point as an explicit
    argument: re-passing an optional [?cp] re-boxes it in a fresh
    [Some] on every call, which would put an allocation on every
    hot-path operation.  The public [?cp] wrappers remain for the
    drills. *)

(* Local [@inline] copies of the hot one-liners: dev builds compile with
   -opaque, which turns every cross-module call (Crash.point, Pad.slot)
   into an indirect call through the module block, so the shared
   definitions cannot inline here.  Mirror crash.ml / pad.ml exactly. *)
let[@inline] point (cp : Crash.t) = if cp.Crash.live then Crash.slow_point cp
let[@inline] slot p = (p + 1) lsl 3

type t = {
  r : int Atomic.t;
  s : int array;  (** plain padded slots, [(prev lsl 1) lor flag] *)
}

let create ~nprocs init =
  Enc.check_nprocs nprocs;
  { r = Pad.make_int init; s = Pad.flat_make nprocs (init lsl 1) }

let[@inline] read_cp cp t =
  point cp;
  Atomic.get t.r  (* line 8 *)

let read ?(cp = Crash.none) t = read_cp cp t
let read_recover ?(cp = Crash.none) t = read_cp cp t

let[@inline] write_cp cp t ~pid v =
  point cp;
  let temp = Atomic.get t.r in  (* line 2 *)
  point cp;
  t.s.(slot pid) <- (temp lsl 1) lor 1;  (* line 3 *)
  point cp;
  Atomic.set t.r v;  (* line 4 *)
  point cp;
  t.s.(slot pid) <- v lsl 1  (* line 5 *)

let write_recover_cp cp t ~pid v =
  point cp;
  let sp = t.s.(slot pid) in  (* line 11 *)
  let flag = sp land 1 and curr = sp asr 1 in
  if flag = 0 && curr <> v then write_cp cp t ~pid v  (* lines 12-13 *)
  else begin
    point cp;
    if flag = 1 && curr = Atomic.get t.r then write_cp cp t ~pid v  (* lines 14-15 *)
    else begin
      point cp;
      t.s.(slot pid) <- v lsl 1  (* line 16 *)
    end
  end

let write ?(cp = Crash.none) t ~pid v = write_cp cp t ~pid v
let write_recover ?(cp = Crash.none) t ~pid v = write_recover_cp cp t ~pid v

(** Baseline: plain (non-recoverable) register with the same interface. *)
module Plain = struct
  type t = int Atomic.t

  let create init = Atomic.make init
  let read t = Atomic.get t
  let write t v = Atomic.set t v
end
