(** Scenario descriptors: the fuzzer's genotype.

    A descriptor is a flat record of small integers and two names — every
    parameter a fuzzed run depends on.  The integers include the scenario
    and schedule seeds, so a descriptor is a {e complete} replay recipe:
    [run (parse s)] reproduces a run bit-for-bit from its printed form.
    Probabilities are stored in per-mille (so descriptors round-trip
    through text without float formatting hazards). *)

module Prng = Machine.Schedule.Prng

type t = {
  kind : string;  (** base scenario kind or zoo mutant name *)
  nprocs : int;
  ops : int;  (** per-process operation count (ignored by tas workloads) *)
  mix_pm : int;  (** mutating-op ratio (write/cas/inc/run), per mille *)
  scen_seed : int;  (** machine seed: junk generator + workload rng *)
  sched_seed : int;  (** random-schedule seed *)
  crash_pm : int;  (** per-process crash probability, per mille *)
  recover_pm : int;  (** recovery probability per consideration, per mille *)
  system_pm : int;  (** full-system crash probability, per mille *)
  max_crashes : int;
  max_steps : int;
  junk : string;  (** junk strategy name, see {!Machine.Junk.strategy_names} *)
}

let base_kinds = List.map Workload.Scenarios.name Workload.Scenarios.catalogue

let all_kinds = base_kinds @ List.map (fun m -> m.Objects.Zoo.m_name) Objects.Zoo.all

let validate_kind k =
  if not (List.mem k all_kinds) then
    invalid_arg (Printf.sprintf "Fuzz.Gen: unknown scenario kind %S" k)

(* {2 Printing and parsing} *)

let to_string d =
  Printf.sprintf
    "kind=%s,n=%d,ops=%d,mix=%d,seed=%d,sched=%d,crash=%d,rec=%d,sys=%d,maxc=%d,steps=%d,junk=%s"
    d.kind d.nprocs d.ops d.mix_pm d.scen_seed d.sched_seed d.crash_pm d.recover_pm
    d.system_pm d.max_crashes d.max_steps d.junk

let of_string s =
  let fail fmt = Printf.ksprintf (fun m -> Error ("Fuzz.Gen.of_string: " ^ m)) fmt in
  let fields = String.split_on_char ',' s in
  let kvs =
    List.map
      (fun f ->
        match String.index_opt f '=' with
        | Some i -> (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
        | None -> (f, ""))
      fields
  in
  let str k = Option.to_result ~none:(Printf.sprintf "missing field %s" k) (List.assoc_opt k kvs) in
  let int k =
    Result.bind (str k) (fun v ->
        match int_of_string_opt v with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "field %s: not an integer: %S" k v))
  in
  let ( let* ) = Result.bind in
  match
    let* kind = str "kind" in
    let* nprocs = int "n" in
    let* ops = int "ops" in
    let* mix_pm = int "mix" in
    let* scen_seed = int "seed" in
    let* sched_seed = int "sched" in
    let* crash_pm = int "crash" in
    let* recover_pm = int "rec" in
    let* system_pm = int "sys" in
    let* max_crashes = int "maxc" in
    let* max_steps = int "steps" in
    let* junk = str "junk" in
    if not (List.mem kind all_kinds) then Error (Printf.sprintf "unknown kind %S" kind)
    else if not (List.mem junk Machine.Junk.strategy_names) then
      Error (Printf.sprintf "unknown junk strategy %S" junk)
    else if nprocs < 1 || ops < 1 || max_steps < 1 || max_crashes < 0 then
      Error "out-of-range field"
    else
      Ok
        {
          kind;
          nprocs;
          ops;
          mix_pm;
          scen_seed;
          sched_seed;
          crash_pm;
          recover_pm;
          system_pm;
          max_crashes;
          max_steps;
          junk;
        }
  with
  | Ok d -> Ok d
  | Error m -> fail "%s (in %S)" m s

(* {2 Sampling} *)

(* Ranges deliberately reach beyond the exhaustive-exploration envelope
   (explore tops out around 3 processes and a couple of ops): more
   processes, longer scripts, many crashes, all junk strategies. *)
let sample ~rng ~kinds =
  (match kinds with [] -> invalid_arg "Fuzz.Gen.sample: empty kind list" | _ -> ());
  List.iter validate_kind kinds;
  let kind = Prng.pick rng kinds in
  let nprocs = 2 + Prng.int rng 4 in
  let ops = 2 + Prng.int rng 9 in
  let mix_pm = 100 + Prng.int rng 801 in
  let scen_seed = 1 + Prng.int rng 1_000_000 in
  let sched_seed = 1 + Prng.int rng 1_000_000 in
  let crash_pm = 20 + Prng.int rng 281 in
  let recover_pm = 200 + Prng.int rng 701 in
  let system_pm = if Prng.int rng 5 = 0 then 10 + Prng.int rng 91 else 0 in
  let max_crashes = 2 + Prng.int rng 9 in
  let max_steps = 600 + (200 * Prng.int rng 18) in
  let junk = Prng.pick rng Machine.Junk.strategy_names in
  {
    kind;
    nprocs;
    ops;
    mix_pm;
    scen_seed;
    sched_seed;
    crash_pm;
    recover_pm;
    system_pm;
    max_crashes;
    max_steps;
    junk;
  }

(* {2 Building and running} *)

let build d sim =
  ignore
    (Workload.Scenarios.install d.kind sim ~nprocs:d.nprocs ~ops:d.ops
       ~ratio:(float_of_int d.mix_pm /. 1000.0)
       ~rng_seed:d.scen_seed)

let scenario d =
  { Workload.Trial.scen_name = to_string d; nprocs = d.nprocs; build = build d }

type verdict = {
  v_outcome : Machine.Schedule.outcome;
  v_steps : int;
  v_violation : string option;
}

let judge sim =
  match Workload.Check.nrl_violation sim with
  | Some reason -> Some reason
  | None -> (
    match Workload.Check.strictness_violations sim with
    | [] -> None
    | vs ->
      Some (Printf.sprintf "strictness: %d completed responses never persisted" (List.length vs)))

(* Like {!Workload.Trial.run} but driving the schedule loop ourselves so a
   [collect] callback can fingerprint the configuration after every applied
   decision — the campaign's coverage signal. *)
let run ?obs ?collect d =
  (* persistency mutants are the sound algorithm under the instant model:
     only an explicit-persist machine can expose their missing flush *)
  let persist =
    match Objects.Zoo.find d.kind with
    | Some m when m.Objects.Zoo.m_persist -> Nvm.Memory.Explicit
    | _ -> Nvm.Memory.Instant
  in
  let sim = Machine.Sim.create ~seed:d.scen_seed ~persist ~nprocs:d.nprocs () in
  Machine.Sim.set_obs sim obs;
  build d sim;
  Machine.Sim.apply_junk_strategy sim d.junk;
  let policy =
    Machine.Schedule.random
      ~crash_prob:(float_of_int d.crash_pm /. 1000.0)
      ~recover_prob:(float_of_int d.recover_pm /. 1000.0)
      ~max_crashes:d.max_crashes
      ~system_crash_prob:(float_of_int d.system_pm /. 1000.0)
      ~seed:d.sched_seed ()
  in
  (* masked to 53 bits: any JSON reader that holds numbers as doubles
     reads corpus hashes exactly (Obs.Json itself parses ints exactly),
     and the mask is part of every stored hash, so it stays *)
  let touch () =
    match collect with
    | None -> ()
    | Some f ->
      f (Machine.Fingerprint.hash (Machine.Fingerprint.of_sim sim) land 0x1F_FFFF_FFFF_FFFF)
  in
  let rec loop steps =
    if Machine.Sim.all_done sim then Machine.Schedule.Completed
    else if steps >= d.max_steps then Machine.Schedule.Out_of_steps
    else
      match policy sim with
      | Machine.Schedule.Dhalt -> Machine.Schedule.Halted
      | dec ->
        Machine.Schedule.apply sim dec;
        touch ();
        loop (steps + 1)
  in
  let outcome = loop 0 in
  {
    v_outcome = outcome;
    v_steps = Machine.Sim.total_steps sim;
    v_violation = judge sim;
  }
