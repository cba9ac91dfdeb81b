(* The service records its latencies in [Obs.Metrics] histograms; this
   alias keeps the [Service.Latency] name that the end-to-end bench
   (bench/e2e) reads them through. *)

type t = Obs.Metrics.histogram

include Obs.Metrics.Histogram
