(** The native benchmark suite behind [nrlsim bench-native]:
    single-domain latency and allocation rows plus the memento-style
    contended/uncontended throughput sweep.  Hand-rolled on the
    monotonic {!Obs.Clock}.  {!spread_ns} is the repo's one ns/op
    sampler: bench/main.ml and the e2e bench time through it too.  This
    is the only place the native latency rows are timed.  See
    docs/native.md for the methodology. *)

type spread = { median : float; min : float; q1 : float; q3 : float }
(** ns/op over the calibrated batches: the median, the fastest batch
    and the lower and upper quartiles (nearest rank). *)

val spread_ns : ?repeats:int -> ?min_batch_ns:int -> (unit -> unit) -> spread
(** ns/op over [repeats] (default 9) batches, each calibrated (by
    doubling) to run at least [min_batch_ns] (default 2 ms) of wall
    clock, after a warm-up of 8 calls. *)

val estimate_ns : ?repeats:int -> ?min_batch_ns:int -> (unit -> unit) -> float
(** The median of {!spread_ns}, over the same batches. *)

val latency_fields : spread -> (string * Obs.Json.t) list
(** A latency row's [ns], [ns_min], [ns_q1] and [ns_q3] fields. *)

val alloc_words_per_op : ?iters:int -> (unit -> unit) -> float
(** Minor-heap words allocated per call of the thunk ([Gc.minor_words]
    delta over [iters] calls, after a warm-up). *)

val latency_thunks : unit -> (string * string * (unit -> unit)) list
(** The native latency table: [(section, name, thunk)] rows, each a
    fresh thunk over fresh objects, [section] the DESIGN.md section 5
    table the row belongs to (["T1"] register, ["T2"] CAS/T&S/FAA,
    ["T10"] the other hot paths, ["T12"] mutex and consensus). *)

type config = {
  domains_list : int list;  (** worker-domain counts to sweep *)
  width : int;  (** contention-array width of the contended mode *)
  duration : float;  (** seconds per throughput cell *)
}

val default_config : config

val run : ?log:(string -> unit) -> config -> Obs.Bench.t
(** The full suite: one [native] latency row per {!latency_thunks} entry
    (with [words] on the hot paths whose allocation is counted), then
    one ["T10"] throughput row per (object, impl, mode, domains) cell.
    [log] receives human-readable progress lines as rows complete,
    among them the recoverable-over-plain overhead of the T1, T2 and
    T12 pairs and the alloc-corrected T&S win latencies. *)
