(** The native benchmark suite behind [nrlsim bench-native]:
    single-domain latency and allocation rows plus the memento-style
    contended/uncontended throughput sweep.  Hand-rolled on the
    monotonic {!Obs.Clock}.  {!estimate_ns} is the repo's one ns/op
    sampler: bench/main.ml times its latency tables through it too.  See
    docs/native.md for the methodology. *)

val estimate_ns : ?repeats:int -> ?min_batch_ns:int -> (unit -> unit) -> float
(** Median ns/op over [repeats] batches, each calibrated (by doubling)
    to run at least [min_batch_ns] of wall clock. *)

val alloc_words_per_op : ?iters:int -> (unit -> unit) -> float
(** Minor-heap words allocated per call of the thunk ([Gc.minor_words]
    delta over [iters] calls, after a warm-up). *)

val latency_thunks : unit -> (string * (unit -> unit)) list
(** The single-domain latency rows by name (["plain cas"],
    ["recoverable cas"], ["recoverable t&s (fresh, win)"], ["atomic faa"],
    ["recoverable faa"], ...), each a fresh thunk over fresh objects on
    4 processes.  bench/main.ml's T2 times the rows both suites name
    through these same thunks. *)

type config = {
  domains_list : int list;  (** worker-domain counts to sweep *)
  width : int;  (** contention-array width of the contended mode *)
  duration : float;  (** seconds per throughput cell *)
}

val default_config : config

val run : ?log:(string -> unit) -> config -> Bench_native_json.t
(** The full suite: latency rows, alloc rows, then one throughput cell
    per (object, impl, mode, domains).  [log] receives human-readable
    progress lines as rows complete.  [domains_available] in the result
    is this host's honest [Domain.recommended_domain_count ()]. *)
