(** Crash-point injection for the real-multicore implementations.

    Aborting an OCaml function with {!Crashed} discards its local
    variables exactly as a crash discards volatile registers, while the
    "NVRAM" ([Atomic] cells) keeps its contents; the harness then invokes
    the algorithm's recovery function, as the system would.  Each shared
    access in an operation is preceded by a {!point} with an increasing
    index.  An unarmed, fuseless [t] costs one branch per access. *)

exception Crashed

exception Livelock
(** Raised by {!point} when the current attempt traversed more crash
    points than the {!set_fuse} bound without completing — the probe the
    torture harness's watchdog uses to detect a non-terminating
    recovery. *)

type t = {
  mutable live : bool;  (** [armed >= 0 || fuse > 0] — the hot-path check *)
  mutable armed : int;  (** crash-point index to fire at; [-1] = disarmed *)
  mutable next : int;  (** points traversed since the last arm/disarm *)
  mutable fuse : int;  (** livelock bound; [0] = disabled *)
}
(** Concrete (not abstract) on purpose: dev builds compile with
    [-opaque], which turns every cross-module call — including
    [Crash.point] — into an indirect call through the module block.
    Exposing the record lets each recoverable object define a local
    [let[@inline] point cp = if cp.Crash.live then Crash.slow_point cp]
    whose disarmed cost is one direct field load plus one predictable
    branch.  Treat the fields as read-only outside this module; mutate
    only through {!arm}/{!disarm}/{!set_fuse}. *)

val none : t
(** A shared never-firing instance (the default of the [?cp] arguments).
    Never arm it or set its fuse: it is shared between domains precisely
    because it is immutable in its default state. *)

val create : unit -> t

val arm : t -> int -> unit
(** Crash when crash point [k] (0-based since arming) is reached. *)

val disarm : t -> unit

val set_fuse : t -> int -> unit
(** [set_fuse t n] bounds every attempt to [n] crash-point traversals
    ([n <= 0] disables the fuse, the default).  The bound applies whether
    or not the instance is armed, and resets at each {!arm}/{!disarm}. *)

val point : t -> unit
(** Mark a crash point.
    @raise Crashed if armed for this index.
    @raise Livelock if the attempt overran the fuse. *)

val slow_point : t -> unit
(** The out-of-line bookkeeping behind {!point}; call only when [live]
    is set (hot modules inline the [live] test locally, see {!t}). *)

val traversed : t -> int
(** Crash points passed since the last {!arm}/{!disarm}. *)
