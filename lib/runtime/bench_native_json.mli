(** Machine-readable output of the native benchmark suite: the
    [BENCH_native.json] document [nrlsim bench-native] writes, tracked
    across PRs as a CI artifact; {!Workload.Bench_json} is its sibling
    for the simulator suite.

    Schema ["nrl-native/1"], printed by {!Obs.Json.to_doc}:

    - [domains_available]: [Domain.recommended_domain_count ()] on the
      measuring host — read it before trusting any scaling row (a
      1-core container still produces the document, honestly);
    - [duration_s]: the per-cell measured window of the throughput
      suite;
    - [throughput]: one row per (object, impl, mode, width, domains)
      cell, with the summed per-domain op counters, the measured
      window and the derived rate.  For CAS objects [ops] counts
      {e attempts} (a read + CAS pair), not successes;
    - [latency]: single-domain ns/op rows ({!Bench_native.estimate_ns}),
      names shared with the bench harness's BENCH_explore.json, which
      uses the same sampler, so the two can be cross-read;
    - [alloc_per_op]: minor-heap words allocated per operation
      ([Gc.minor_words] deltas) — the hot-path allocation-freedom
      evidence. *)

val schema_version : string

type tp_row = {
  tp_object : string;  (** ["cas"], ["counter"], ["faa"] or ["stack"] *)
  tp_impl : string;  (** ["recoverable"] or ["plain"] *)
  tp_mode : string;  (** ["contended"] or ["uncontended"] *)
  tp_width : int;  (** number of locations in the contention array *)
  tp_domains : int;
  tp_ops : int;  (** summed per-domain op counters; CAS rows count attempts *)
  tp_seconds : float;
  tp_ops_per_sec : float;
}

type ns_row = { ns_name : string; ns_ns : float }

type alloc_row = { al_name : string; al_words : float }

type t = {
  domains_available : int;
  duration_s : float;
  throughput : tp_row list;
  latency : ns_row list;
  alloc_per_op : alloc_row list;
}

val render : t -> string
val write : path:string -> t -> unit
