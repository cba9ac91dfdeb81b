(** Coverage-guided fuzzing campaigns over scenario descriptors.

    A campaign runs the descriptors sampled at seed indices
    [0 .. seeds-1]; index [i]'s descriptor is a pure function of
    [(base_seed, i)], which makes the campaign deterministic, restartable
    at any index ([--resume]) and extensible (the corpus stamp excludes
    the seed count, so re-running with a larger [seeds] continues where
    the finished corpus stopped).  Coverage is the set of configuration
    fingerprints ({!Machine.Fingerprint}) observed after any applied
    decision of any run; seeds that discover new fingerprints are kept in
    the corpus with the hashes they discovered, so a resume rebuilds the
    exact coverage set and the final corpus is byte-identical to an
    uninterrupted run's.

    Counters ({!Obs.Names}): [fuzz.runs], [fuzz.new_coverage],
    [fuzz.violations], [fuzz.shrink_steps], [fuzz.corpus_entries].
    Trace events: [fuzz.new_coverage], [fuzz.violation], [fuzz.shrunk],
    [fuzz.zoo.detected], [fuzz.zoo.missed]. *)

type cfg = {
  base_seed : int;
  seeds : int;  (** seed indices to run: [0 .. seeds - 1] *)
  kinds : string list;  (** drawn from {!Gen.all_kinds} *)
  shrink : bool;  (** minimise each violating descriptor *)
  corpus_path : string option;  (** persist/resume the campaign here *)
  resume : bool;  (** continue from [corpus_path] if it exists *)
}

val default_cfg : cfg
(** [base_seed = 1], [seeds = 100], the seven base kinds
    ({!Gen.base_kinds}), shrinking on, no corpus file. *)

val stamp : cfg -> (string * string) list
(** What a corpus must match to be resumed: base seed and kind list —
    {e not} the seed count, so a campaign can be extended. *)

val descriptor : cfg -> int -> Gen.t
(** The descriptor at a seed index — pure in [(cfg.base_seed, index)]. *)

type report = {
  r_stats : Corpus.stats;
  r_entries : Corpus.entry list;
  r_violations : Corpus.violation list;
  r_finished : bool;  (** ran the whole seed budget (vs stopped early) *)
}

val run :
  ?obs:Obs.Metrics.t ->
  ?trace:Obs.Trace.t ->
  ?progress:Obs.Progress.t ->
  ?should_stop:(unit -> bool) ->
  cfg ->
  (report, string) result
(** Run (or resume) a campaign.  [should_stop] is polled between seed
    indices — on budget exhaustion or a signal the campaign saves a
    resumable corpus and returns with [r_finished = false].  [Error]
    reports an unreadable corpus or a stamp mismatch.  Stats in the
    report are cumulative across resumes (they ride in the corpus);
    [obs] counters only reflect work done by this process. *)

(** {1 Zoo detection} *)

type detection = {
  z_mutant : Objects.Zoo.mutant;
  z_seeds_tried : int;
  z_found : (Gen.t * string) option;  (** first violating descriptor and why *)
  z_shrunk : Shrink.outcome option;
}

val default_zoo_budget : int
(** 150 — the per-mutant seed budget the pinned detection test allows
    ({!zoo}'s default).  Empirically every mutant falls within 60 seeds
    at [base_seed = 1]; the slack absorbs generator-range tweaks. *)

val zoo :
  ?obs:Obs.Metrics.t ->
  ?trace:Obs.Trace.t ->
  ?should_stop:(unit -> bool) ->
  ?shrink:bool ->
  ?budget_seeds:int ->
  ?mutants:Objects.Zoo.mutant list ->
  base_seed:int ->
  unit ->
  detection list
(** Measure detection power: for each mutant, fuzz scenarios restricted
    to that mutant's kind until it violates or the per-mutant seed budget
    runs out, then shrink the counterexample.  Deterministic in
    [base_seed]. *)

val pp_detection : detection Fmt.t
