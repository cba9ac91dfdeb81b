(** The simulator and explorer benchmark behind [nrlsim bench-explore]:
    the DESIGN.md section 5 rows measured on the simulated machine.
    Each section is a tag:

    - ["T5"]: shared accesses of one solo operation on a fresh object,
      N = 2, 4, 8 ([machine] rows, [accesses]);
    - ["T6"], ["T7"], ["T8"], ["T9"], ["T12"], ["F5"]: one [explore] row
      per exhaustive search of the instance table, each asserted clean
      and untruncated, with the engine configuration, the statistics,
      the flushes and fences executed, wall [seconds] and the process's
      user+sys [cpu_s];
    - ["F2"]: the NRL check's ns per call against history length
      ([machine] rows, [hist_len] and [check_ns], timed through
      {!Runtime.Bench_native.estimate_ns}).

    Every search starts from a compacted heap.  A row with repeats (T6's
    jobs rows) runs them in rounds interleaved with its section's other
    rows, asserts identical statistics across them and reports the
    median by wall time. *)

val tags : string list
(** The tags {!run} accepts: every section, in run order, then a bare
    ["T"] and ["F"] for every section with that letter. *)

val run : ?log:(string -> unit) -> string list -> Obs.Bench.t
(** Run the sections [tags] select (no tag selects every section), one
    [log] line per row as its section completes.
    @raise Invalid_argument on an unknown tag, before any work.
    @raise Failure if a search is not clean or is truncated, or if a
    repeated search's statistics differ. *)
