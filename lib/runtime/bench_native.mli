(** The native benchmark suite behind [nrlsim bench-native]:
    single-domain latency and allocation rows plus the memento-style
    contended/uncontended throughput sweep.  Hand-rolled on the
    monotonic {!Obs.Clock}.  This is the only place the native latency
    rows are timed; the e2e bench times its per-layer probes through
    {!estimate_ns}.  See docs/native.md for the methodology. *)

val estimate_ns : ?repeats:int -> ?min_batch_ns:int -> (unit -> unit) -> float
(** Median ns/op over [repeats] (default 9) batches, each calibrated (by
    doubling) to run at least [min_batch_ns] (default 2 ms) of wall
    clock, after a warm-up of 8 calls. *)

val latency_thunks : unit -> (string * string * (unit -> unit)) list
(** The native latency table: [(section, name, thunk)] rows, each a
    fresh thunk over fresh objects, [section] the DESIGN.md section 5
    table or figure the row belongs to (["T1"] register, ["T2"]
    CAS/T&S/FAA, ["T10"] the other hot paths, ["T12"] mutex and
    consensus, ["F3"] the CAS recovery row scan vs N, rows
    [scan2]..[scan128], ["F1"] a crash at each position of WRITE, T&S
    and CAS followed by its recovery). *)

type config = {
  domains_list : int list;  (** worker-domain counts to sweep *)
  width : int;  (** contention-array width of the contended mode *)
  duration : float;  (** seconds per throughput cell, timed as five equal windows *)
}

val default_config : config

val run : ?log:(string -> unit) -> config -> Obs.Bench.t
(** The full suite: one [native] latency row per {!latency_thunks} entry
    (the median, min and quartiles of its batches in [ns], [ns_min],
    [ns_q1], [ns_q3], and [words] on the hot paths whose allocation is
    counted), then one ["T10"] throughput row per (object, impl, mode,
    domains) cell: [ops_per_sec] is the median of five equal windows
    of the cell's duration, [ops_per_sec_min]/[_q1]/[_q3] their spread,
    and [ops] and [seconds] the windows' totals.  [log] receives
    human-readable progress lines as rows complete, among them the recoverable-over-plain overhead of the T1,
    T2 and T12 pairs and the T&S win latencies net of allocation (the
    median and quartiles of per-batch differences, the allocation and
    the win timed in alternating batches). *)
