(** A metric registry: monotonic counters, timers and log-linear
    histograms, designed for single-domain mutation and cross-domain
    aggregation by explicit {!merge}.

    {b Threading model.}  A registry is {e not} thread-safe: exactly one
    domain may mutate it.  Parallel code gives each worker its own
    registry and merges them into the parent's at the join point, in
    worker order — so aggregated values are exact sums, deterministic
    for a deterministic workload, never sampled.  This is what lets the
    explorer promise counter values identical across [--jobs] values.

    {b Cost model.}  Handles ({!counter}, {!timer}, {!histogram}) are
    looked up (or created) once by name; increments through a handle are
    a single unboxed field bump — cheap enough to leave in the machine's
    hot loops behind an [option] match.  Instrumentation never touches
    memory shared between domains, so attaching a registry cannot change
    the concurrency behaviour of the code under observation.

    {b Histogram buckets.}  Values below 16 are recorded exactly; above,
    each power-of-two octave splits into 16 linear sub-buckets, so a
    bucket is at most ~6% wide relative to its values and a quantile is
    read to that precision.  944 buckets cover every OCaml int. *)

type t
(** A registry (a mutable name → metric table). *)

type counter
type timer
type histogram

val create : unit -> t

val counter : t -> string -> counter
(** Find or create the counter [name]; starts at 0.
    @raise Invalid_argument if [name] exists with a different kind. *)

val timer : t -> string -> timer
(** Find or create the timer [name]; starts at 0 ns over 0 intervals.
    @raise Invalid_argument if [name] exists with a different kind. *)

val histogram : t -> string -> histogram
(** Find or create the histogram [name]; starts empty.
    @raise Invalid_argument if [name] exists with a different kind. *)

module Counter : sig
  val incr : counter -> unit
  val add : counter -> int -> unit
  val value : counter -> int
end

module Timer : sig
  val add : timer -> int -> unit
  (** Record one interval of the given length in nanoseconds. *)

  val ns : timer -> int
  (** Total nanoseconds across all recorded intervals. *)

  val intervals : timer -> int
  (** Number of intervals recorded. *)
end

val bucket_of : int -> int
(** The histogram bucket of a value: the value itself below 16 ([0] for
    [v <= 0]), else [16 * (o - 3)] plus the four bits below the leading
    one, where [o] is the value's octave ([2{^o} <= v < 2{^o+1}]). *)

module Histogram : sig
  val observe : histogram -> int -> unit
  (** Record one value into its {!bucket_of} bucket ([v <= 0] lands in
      bucket 0), so a histogram is a fixed array however many values it
      sees. *)

  val count : histogram -> int
  val sum : histogram -> int
  val max_value : histogram -> int

  val mean : histogram -> float
  (** [sum / count]; 0 when empty. *)

  val quantile : histogram -> float -> int
  (** [quantile h q] is an upper bound for the [q]-quantile
      ([0 < q <= 1]): the inclusive upper edge of the bucket holding
      rank [ceil (q * count)], clamped to the observed maximum.  0 when
      empty. *)
end

(** A read-only snapshot of one metric, for reporting and serialising.
    Histogram buckets are [(le, n)] pairs — [n] observations with value
    [<= le] and greater than the previous bucket's [le] — listing only
    non-empty buckets. *)
type view =
  | Counter of int
  | Timer of { ns : int; intervals : int }
  | Histogram of { count : int; sum : int; max_value : int; buckets : (int * int) list }

val view : t -> string -> view option

val to_list : t -> (string * view) list
(** Every metric in the registry, sorted by name. *)

val record : string -> view -> Json.t
(** The metric record of one named view, as both [nrl-trace/1] traces
    and checkpoints store it:
    [{"type":"counter","name":n,"value":v}],
    [{"type":"timer","name":n,"ns":ns,"intervals":k}] or
    [{"type":"histogram","name":n,"count":c,"sum":s,"max":m,"buckets":[{"le":le,"n":k},...]}]. *)

val of_record : Json.t -> string * view
(** Inverse of {!record}.
    @raise Json.Bad on a record of another type or with missing fields. *)

val merge : into:t -> t -> unit
(** Add every metric of the source registry into [into], creating
    missing names.  Counters and timers add; histograms add bucket-wise
    (and take the max of maxima).  The source is left unchanged.
    @raise Invalid_argument on a name present in both with different
    kinds. *)

val absorb : into:t -> string -> view -> unit
(** Add one metric snapshot into the registry — the deserialising
    counterpart of {!merge}: absorbing every [(name, view)] of
    {!to_list} into a fresh registry reproduces the original exactly
    (histogram bucket bounds round-trip because they are the buckets'
    exact upper bounds).  Used to restore persisted metrics from a
    checkpoint.  A record of the earlier power-of-two buckets (bounds
    [2{^i} - 1], each the top edge of a log-linear bucket) absorbs with
    its count, sum and max intact.
    @raise Invalid_argument if [name] exists with a different kind. *)
