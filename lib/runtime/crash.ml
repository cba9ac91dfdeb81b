(** Crash-point injection for the real-multicore implementations.

    The paper's crash model kills a process at an arbitrary point and
    discards its volatile state.  For native OCaml code we emulate this by
    aborting an operation with an exception at a chosen {e crash point} —
    each shared-memory access inside an operation is preceded by a
    [point] call with an increasing index.  Aborting the OCaml function
    discards its local variables exactly as a crash discards volatile
    registers; the "NVRAM" ([Atomic] cells) keeps its contents.  The
    harness then invokes the recovery function, as the system would.

    Hot-path cost: [point] is [@inline always] and reads a single
    [live] flag that is false iff the instance is unarmed and fuseless,
    so production use (the [none] instance) is one load + one
    predictable branch, with the bookkeeping out of line in
    [slow_point].  [armed] is an int with [-1] = disarmed rather than
    an [int option] so arming never allocates.

    The {e fuse} is the livelock detector's probe: when set to [n > 0],
    an attempt (the span between two [arm]/[disarm] calls) that traverses
    more than [n] crash points without completing raises {!Livelock} —
    a recovery spinning on state it will never observe change trips the
    fuse instead of hanging the harness (cf. Theorem 4's bounded-recovery
    concern and the abortable-RME line of work). *)

exception Crashed
exception Livelock

type t = {
  mutable live : bool; (* armed >= 0 || fuse > 0 *)
  mutable armed : int; (* -1 = disarmed *)
  mutable next : int;
  mutable fuse : int;
}

let none = { live = false; armed = -1; next = 0; fuse = 0 }

let create () = { live = false; armed = -1; next = 0; fuse = 0 }

let[@inline] refresh_live t = t.live <- t.armed >= 0 || t.fuse > 0

(** Arm: crash when crash point [k] (0-based) is reached. *)
let arm t k =
  t.armed <- k;
  t.next <- 0;
  t.live <- true

let disarm t =
  t.armed <- -1;
  t.next <- 0;
  refresh_live t

let set_fuse t n =
  t.fuse <- n;
  refresh_live t

let[@inline never] slow_point t =
  let k = t.armed in
  if k < 0 then begin
    (* fuse-only instance *)
    t.next <- t.next + 1;
    if t.next > t.fuse then raise Livelock
  end
  else begin
    let i = t.next in
    t.next <- i + 1;
    if i = k then raise Crashed;
    if t.fuse > 0 && t.next > t.fuse then raise Livelock
  end

(** Mark a crash point; raises {!Crashed} if armed for this index,
    {!Livelock} if the attempt overran the fuse. *)
let[@inline always] point t = if t.live then slow_point t

(** Number of crash points traversed since the last [arm]/[disarm]. *)
let traversed t = t.next
