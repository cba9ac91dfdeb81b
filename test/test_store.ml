(* The shared visited store and the process-symmetry quotient: the two
   halves of the deduplication layer the work-stealing engine hangs off
   Fingerprint.  The store must be linearizable under concurrent
   insertion (a lost or doubled "fresh" answer corrupts node counts and
   can prune unexplored states); the quotient must never change a
   verdict — pinned here against unquotiented ground truth on every
   bug-zoo mutant, the scenarios explicitly built to be caught. *)

module F = Machine.Fingerprint
module Sim = Machine.Sim
module Explore = Machine.Explore

(* Distinct fingerprints on demand: one configuration, distinct opaque
   path context (the [extra] the explorer uses for the crash budget). *)
let make_fps n =
  let sim = Sim.create ~nprocs:2 () in
  Array.init n (fun i -> F.of_sim ~extra:i sim)

(* {1 The store} *)

let test_fresh_exactly_once () =
  let store = F.Store.create () in
  let fps = make_fps 500 in
  Array.iter (fun fp -> Alcotest.(check bool) "first insert fresh" true (F.Store.add store fp)) fps;
  Array.iter
    (fun fp -> Alcotest.(check bool) "re-insert not fresh" false (F.Store.add store fp))
    fps;
  Alcotest.(check int) "cardinal" 500 (F.Store.cardinal store)

let test_shard_rounding () =
  Alcotest.(check int) "shard count rounds up to a power of two" 8
    (F.Store.shards (F.Store.create ~shards:5 ()))

(* Concurrent insertion is linearizable: across racing domains every
   distinct fingerprint is reported fresh exactly once, none is lost.
   Domains insert overlapping random samples so the CAS paths race on
   purpose; the per-domain fresh counts must sum to the union size. *)
let prop_concurrent_inserts =
  QCheck2.Test.make ~name:"store: concurrent inserts lose and double nothing" ~count:8
    (QCheck2.Gen.int_range 1 1_000_000) (fun seed ->
      let n = 2_000 and domains = 4 in
      let fps = make_fps n in
      let rng = Random.State.make [| seed |] in
      (* sample before spawning: Random.State is not domain-safe *)
      let picks =
        Array.init domains (fun _ ->
            Array.of_list
              (List.filter
                 (fun _ -> Random.State.float rng 1.0 < 0.6)
                 (List.init n Fun.id)))
      in
      let union = Array.make n false in
      Array.iter (Array.iter (fun i -> union.(i) <- true)) picks;
      let distinct = Array.fold_left (fun a b -> if b then a + 1 else a) 0 union in
      (* few shards on purpose: more CAS collisions per slot *)
      let store = F.Store.create ~shards:4 () in
      let workers =
        Array.map
          (fun pick ->
            Domain.spawn (fun () ->
                Array.fold_left
                  (fun fresh i -> if F.Store.add store fps.(i) then fresh + 1 else fresh)
                  0 pick))
          picks
      in
      let fresh_total = Array.fold_left (fun a d -> a + Domain.join d) 0 workers in
      fresh_total = distinct && F.Store.cardinal store = distinct)

let test_shard_distribution () =
  let store = F.Store.create ~shards:64 () in
  let n = 4_096 in
  Array.iter (fun fp -> ignore (F.Store.add store fp)) (make_fps n);
  let sizes = F.Store.shard_sizes store in
  Alcotest.(check int) "shard sizes sum to cardinal" n (Array.fold_left ( + ) 0 sizes);
  let mean = n / Array.length sizes in
  Array.iteri
    (fun i sz ->
      if sz > 4 * mean then
        Alcotest.failf "shard %d holds %d inserts (mean %d): hash is not spreading" i sz mean)
    sizes

(* {1 The packed key}

   Equality, ordering and the store read only the packed key, so the
   key encoder must be injective on exactly the fields the structural
   view holds.  The reference is the structural printer [F.to_string]
   applied to [F.of_sim_uncached], whose view is copied from the live
   machine, so it reads no key bytes and no cache: on every
   configuration an explicit-persist search steps to (persisted view,
   owners, crashed processes and scrambled locals included), the keys
   [F.of_sim] joins must be [F.equal] exactly when those prints are
   the same. *)

(* A configuration's key as [F.of_sim] joins it, and its reference
   print. *)
let keyed_print ?extra sim = (F.of_sim ?extra sim, F.to_string (F.of_sim_uncached ?extra sim))

(* Every configuration a dedup search of register 2x2 under explicit
   persistence, one crash on process 0, steps to (repeats included). *)
let explicit_states () =
  let root = Sim.create ~persist:Nvm.Memory.Explicit ~nprocs:2 () in
  (Workload.Scenarios.register ~nprocs:2 ~ops:2 ()).Workload.Trial.build root;
  let cfg = { Explore.default_config with max_steps = 100; crash_procs = [ 0 ] } in
  let states = ref [] in
  ignore
    (Explore.dfs ~cfg ~dedup:true
       ~on_step:(fun s -> states := keyed_print s :: !states)
       ~on_terminal:ignore root);
  !states

let test_key_injective () =
  let states = explicit_states () in
  let by_print = Hashtbl.create 4096 and by_key = F.Table.create 4096 in
  List.iter
    (fun (fp, printed) ->
      (match Hashtbl.find_opt by_print printed with
      | Some rep ->
        if not (F.equal rep fp) then Alcotest.failf "same print, unequal keys: %s" printed
      | None -> Hashtbl.add by_print printed fp);
      F.Table.replace by_key fp ())
    states;
  (* equal prints imply equal keys (above); as many key classes as print
     classes means equal keys imply equal prints *)
  Alcotest.(check int) "key classes = print classes" (Hashtbl.length by_print)
    (F.Table.length by_key);
  Alcotest.(check bool) "states span many classes" true (F.Table.length by_key > 1_000)

(* Pairs of configurations that differ in one field only. *)
let test_key_separates_fields () =
  let unequal what (a, print_a) (b, print_b) =
    Alcotest.(check bool) (what ^ ": prints differ") true (print_a <> print_b);
    Alcotest.(check bool) (what ^ ": keys differ") false (F.equal a b)
  in
  let explicit_cell () =
    let sim = Sim.create ~persist:Nvm.Memory.Explicit ~nprocs:2 () in
    let m = Sim.mem sim in
    (sim, m, Nvm.Memory.alloc m Nvm.Value.Null)
  in
  let written_by p =
    let sim, m, a = explicit_cell () in
    Nvm.Memory.set_current_pid m p;
    Nvm.Memory.write m a (Nvm.Value.Int 5);
    keyed_print sim
  in
  unequal "owner cell" (written_by 0) (written_by 1);
  let persisted_before v =
    let sim, m, a = explicit_cell () in
    Nvm.Memory.set_current_pid m 0;
    Nvm.Memory.write m a v;
    Nvm.Memory.flush m a;
    Nvm.Memory.write m a (Nvm.Value.Int 5);
    keyed_print sim
  in
  unequal "persisted cell" (persisted_before (Nvm.Value.Int 3))
    (persisted_before (Nvm.Value.Int 4));
  let with_env env =
    let sim = Sim.create ~nprocs:1 () in
    (Workload.Scenarios.register ~nprocs:1 ~ops:1 ()).Workload.Trial.build sim;
    Machine.Schedule.apply sim (Machine.Schedule.Dstep 0);
    (match (Sim.proc sim 0).Sim.stack with
    | f :: _ -> f.Sim.f_env <- env ()
    | [] -> Alcotest.fail "no frame after the first step");
    keyed_print sim
  in
  let scrambled seed () = Machine.Env.create_post_crash (Machine.Junk.create seed) in
  unequal "env junk state" (with_env (scrambled 1)) (with_env (scrambled 2));
  unequal "env mode" (with_env Machine.Env.create) (with_env (scrambled 1));
  let sim = Sim.create ~nprocs:2 () in
  unequal "extra" (keyed_print ~extra:0 sim) (keyed_print ~extra:1 sim)

(* The store takes the shard from the low hash bits: the hash of real
   explicit-persist keys must spread over them. *)
let test_shard_balance_explicit () =
  let store = F.Store.create ~shards:64 () in
  List.iter (fun (fp, _) -> ignore (F.Store.add store fp)) (explicit_states ());
  let sizes = F.Store.shard_sizes store in
  let n = F.Store.cardinal store in
  let mean = float_of_int n /. float_of_int (Array.length sizes) in
  Array.iteri
    (fun i sz ->
      if float_of_int sz > 2.0 *. mean then
        Alcotest.failf "shard %d holds %d of %d keys (mean %.1f)" i sz n mean)
    sizes

(* {1 Symmetry soundness on the bug zoo} *)

(* Each mutant under its base kind's symmetric workload
   ([Scenarios.install_symmetric]): every process runs the same script up
   to own-pid renaming ([Opgen.tagged p] carries [Pid p], which the
   detector erases), so the quotient is active wherever the object's
   declaration allows it. *)
let build_mutant m ~nprocs =
  let sim = Sim.create ~nprocs () in
  ignore (Workload.Scenarios.install_symmetric m.Objects.Zoo.m_name sim ~nprocs);
  sim

let verdict ~cfg ~symmetry sim =
  let viol, stats =
    Explore.find_violation ~cfg ~dedup:true ~symmetry
      ~check_mode:(`Incremental (Workload.Check.nrl_incremental ()))
      ~check:Workload.Check.nrl_violation sim
  in
  (Option.is_some viol, stats)

(* Every mutant, crashes enabled: the canonical and uncanonical searches
   must agree on whether a violation exists.  The quotient is active for
   the Algorithm 1 mutants (recovery pid-oblivious); for the TAS/CAS
   mutants the detector must refuse (their recoveries scan pids in fixed
   order), which is itself part of the soundness contract. *)
let test_zoo_verdicts_pinned () =
  let nprocs = 2 in
  let cfg =
    {
      Explore.default_config with
      max_steps = 120;
      max_crashes = 1;
      crash_procs = List.init nprocs Fun.id;
    }
  in
  let caught = ref 0 in
  List.iter
    (fun m ->
      let name = m.Objects.Zoo.m_name in
      let active = Explore.symmetry_group cfg (build_mutant m ~nprocs) <> None in
      (match m.Objects.Zoo.m_algo with
      | "register" ->
        Alcotest.(check bool) (name ^ ": quotient active under crashes") true active
      | "tas" | "cas" ->
        Alcotest.(check bool)
          (name ^ ": detector refuses pid-ordered recovery under crashes")
          false active
      | _ -> ());
      let found_q, _ = verdict ~cfg ~symmetry:true (build_mutant m ~nprocs) in
      let found_g, _ = verdict ~cfg ~symmetry:false (build_mutant m ~nprocs) in
      if found_g then incr caught;
      Alcotest.(check bool) (name ^ ": quotiented verdict = ground truth") found_g found_q)
    Objects.Zoo.all;
  (* the pinning is only evidence if the exhaustive bound actually
     exposes bugs at this instance size *)
  Alcotest.(check bool) "some mutants are caught" true (!caught > 0)

(* Crash-free axis: recovery obliviousness is moot, so the quotient is
   active for every mutant whose object declares a symmetry (the
   counter's nested registers and the pcall's nested call frames do
   not); the state-space shrinks and the clean verdict must survive. *)
let test_zoo_verdicts_pinned_crash_free () =
  let nprocs = 2 in
  let cfg = { Explore.default_config with max_steps = 120; max_crashes = 0 } in
  let no_sym = [ "counter"; "pcall" ] in
  List.iter
    (fun m ->
      let name = m.Objects.Zoo.m_name in
      if not (List.mem m.Objects.Zoo.m_algo no_sym) then
        Alcotest.(check bool)
          (name ^ ": quotient active crash-free")
          true
          (Explore.symmetry_group cfg (build_mutant m ~nprocs) <> None);
      let found_q, stats_q = verdict ~cfg ~symmetry:true (build_mutant m ~nprocs) in
      let found_g, stats_g = verdict ~cfg ~symmetry:false (build_mutant m ~nprocs) in
      Alcotest.(check bool) (name ^ ": crash-free verdicts agree") found_g found_q;
      if (not found_g) && not (List.mem m.Objects.Zoo.m_algo no_sym) then
        Alcotest.(check bool)
          (name ^ ": quotient explored no more than ground truth")
          true
          (stats_q.Explore.nodes <= stats_g.Explore.nodes))
    Objects.Zoo.all

let tas_scenario ~nprocs =
  let sim = Sim.create ~nprocs () in
  let t = Objects.Tas_obj.make sim ~name:"T" in
  for p = 0 to nprocs - 1 do
    Sim.set_script sim p (Workload.Opgen.tas_ops t)
  done;
  sim

(* The canonical map at the root of a symmetric scenario, where every
   process ties: idempotent, and the group is the full one. *)
let test_canonical_idempotent () =
  let sim = tas_scenario ~nprocs:3 in
  let cfg = { Explore.default_config with max_crashes = 0 } in
  match Explore.symmetry_group cfg sim with
  | None -> Alcotest.fail "symmetric tas scenario not detected"
  | Some g ->
    Alcotest.(check int) "full symmetric group on 3 processes" 6 (F.Symmetry.degree g);
    let fp = F.of_sim sim in
    let c = F.Symmetry.canonical g fp in
    Alcotest.(check bool) "canonical is idempotent" true
      (F.equal c (F.Symmetry.canonical g c))

(* {1 The quotient, pinned}

   Node, terminal and dup counts of dedup + symmetry searches (the
   incremental NRL check, 400-step bound, one crash): the quotient must
   stay exactly the same set of orbits whatever representative the
   canonical form picks.  The split crash-class rows exercise the
   per-class ordering of the canonical form. *)

(* Each process WRITEs its own tagged value to one recoverable register,
   then READs it back when [reads]. *)
let rw_scenario ~nprocs ~reads =
  let sim = Sim.create ~nprocs () in
  let r = Objects.Rw_obj.make sim ~name:"R" in
  for p = 0 to nprocs - 1 do
    Sim.set_script sim p
      ((r, "WRITE", Sim.Args [| Workload.Opgen.tagged p 0 |])
      :: (if reads then [ (r, "READ", Sim.Args [||]) ] else []))
  done;
  sim

let quotient_cfg crash_procs =
  {
    Explore.default_config with
    max_steps = 400;
    max_crashes = (if crash_procs = [] then 0 else 1);
    crash_procs;
  }

let quotient_pin ~build ~crash_procs (nodes, terminals, dup) () =
  let cfg = quotient_cfg crash_procs in
  let sim = build () in
  Alcotest.(check bool) "quotient active" true (Explore.symmetry_group cfg sim <> None);
  let viol, st =
    Explore.find_violation ~cfg ~dedup:true
      ~check_mode:(`Incremental (Workload.Check.nrl_incremental ()))
      ~check:Workload.Check.nrl_violation sim
  in
  Alcotest.(check bool) "no violation" true (viol = None);
  Alcotest.(check (list int))
    "nodes / terminals / truncated / dup"
    [ nodes; terminals; 0; dup ]
    [ st.Explore.nodes; st.Explore.terminals; st.Explore.truncated; st.Explore.dup ]

let quotient_pins =
  let rw n ~reads () = rw_scenario ~nprocs:n ~reads in
  let tas n () = tas_scenario ~nprocs:n in
  [
    ("rw3x1 crash all", `Quick, rw 3 ~reads:false, [ 0; 1; 2 ], (4_828, 27, 3_565));
    ("rw4x1 crash {0,1}", `Slow, rw 4 ~reads:false, [ 0; 1 ], (107_574, 42, 96_337));
    ("rw4x1 crash {0}", `Slow, rw 4 ~reads:false, [ 0 ], (40_770, 24, 37_165));
    ("rw3x2 crash {0,2}", `Quick, rw 3 ~reads:true, [ 0; 2 ], (27_122, 137, 15_794));
    ("tas3 crash-free", `Quick, tas 3, [], (652, 1, 448));
    ("tas4 crash-free", `Quick, tas 4, [], (2_863, 1, 2_583));
  ]
  |> List.map (fun (name, speed, build, crash_procs, pins) ->
         Alcotest.test_case ("quotient pin " ^ name) speed
           (quotient_pin ~build ~crash_procs pins))

(* {1 The canonical form is an orbit invariant}

   For states the explorer actually visits, every permutation of the
   group (one that keeps the crash-enabled set) must leave the canonical
   form unchanged, and canonicalising twice must change nothing.  Unlike
   the root, where every process ties, these states separate the
   processes, so a canonical form that ignored the process keys or
   ordered them wrongly would fail here. *)

(* Every permutation of 0..n-1 that maps [keep] onto itself. *)
let group_members n keep =
  let rec perms = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x -> List.map (fun t -> x :: t) (perms (List.filter (( <> ) x) l)))
        l
  in
  perms (List.init n Fun.id)
  |> List.map Array.of_list
  |> List.filter (fun pi ->
         Array.for_all Fun.id (Array.mapi (fun p q -> List.mem p keep = List.mem q keep) pi))

let orbit_invariance ~nprocs ~crash_procs ~nodes () =
  let cfg = quotient_cfg crash_procs in
  let root = rw_scenario ~nprocs ~reads:false in
  let g = Option.get (Explore.symmetry_group cfg root) in
  let members = group_members nprocs crash_procs in
  Alcotest.(check int) "degree = members" (List.length members) (F.Symmetry.degree g);
  (* every configuration the quotiented search steps to, so the sample
     spans the orbits rather than one corner of the tree *)
  let states = ref [] in
  ignore
    (Explore.dfs ~cfg ~dedup:true
       ~budget:{ Explore.no_budget with max_nodes = Some nodes }
       ~on_step:(fun s -> states := F.of_sim s :: !states)
       ~on_terminal:ignore root);
  Alcotest.(check bool) "states sampled" true (List.length !states >= nodes);
  let moved = ref 0 in
  List.iter
    (fun x ->
      let c = F.Symmetry.canonical g x in
      if not (F.equal c x) then incr moved;
      if not (F.equal c (F.Symmetry.canonical g c)) then
        Alcotest.failf "canonical not idempotent on %s" (F.to_string x);
      List.iter
        (fun pi ->
          let y = F.Symmetry.permute g pi x in
          if not (F.equal c (F.Symmetry.canonical g y)) then
            Alcotest.failf "canonical differs on %s and its image under [%s]" (F.to_string x)
              (String.concat ";" (Array.to_list (Array.map string_of_int pi))))
        members)
    !states;
  (* the sample must include states whose canonical form is a proper
     permutation, or the invariance above is vacuous *)
  Alcotest.(check bool) "some states canonicalise to another orbit member" true (!moved > 0)

(* {1 Incremental keys}

   [F.of_sim] joins the key from parts the heap and the machine keep
   (cell encodings, process segments) and re-encodes only what a step
   invalidated.  On every configuration a dedup search steps to —
   through trail undo, crashes, junk draws, explicit-persist flushes and
   losses — the joined key must be the bytes [F.of_sim_uncached]
   encodes from the live machine.  The structural view the cached parts
   carry (heap image, process views) must print as the live machine's
   does; printing is slow, so every eighth state is compared. *)

let oracle ~build ~cfg ~symmetry ~min_states () =
  let root = build () in
  let n = ref 0 in
  ignore
    (Explore.dfs ~cfg ~dedup:true ~symmetry
       ~on_step:(fun s ->
         incr n;
         let cached = F.of_sim s and scratch = F.of_sim_uncached s in
         if not (F.equal cached scratch) then
           Alcotest.failf "state %d: cached key %s, from scratch %s" !n (F.to_string cached)
             (F.to_string scratch);
         if !n land 7 = 0 && F.to_string cached <> F.to_string scratch then
           Alcotest.failf "state %d: equal keys, cached view %s, live view %s" !n
             (F.to_string cached) (F.to_string scratch))
       ~on_terminal:ignore root);
  Alcotest.(check bool) "states checked" true (!n >= min_states)

let explicit_root scen () =
  let sim = Sim.create ~persist:Nvm.Memory.Explicit ~nprocs:2 () in
  scen.Workload.Trial.build sim;
  sim

let oracle_cases =
  let crash0 = { Explore.default_config with crash_procs = [ 0 ] } in
  [
    ( "register 2x2 explicit",
      oracle
        ~build:(explicit_root (Workload.Scenarios.register ~nprocs:2 ~ops:2 ()))
        ~cfg:{ crash0 with max_steps = 100 } ~symmetry:false ~min_states:10_000 );
    ( "pcall 2x2 explicit, depth 50",
      oracle
        ~build:(explicit_root (Workload.Scenarios.pcall ~nprocs:2 ~ops:2 ()))
        ~cfg:{ crash0 with max_steps = 50 } ~symmetry:false ~min_states:50_000 );
    ( "tas3 crash-free, symmetry",
      oracle
        ~build:(fun () -> tas_scenario ~nprocs:3)
        ~cfg:(quotient_cfg []) ~symmetry:true ~min_states:1_000 );
    ( "rw3x1 crash all, symmetry",
      oracle
        ~build:(fun () -> rw_scenario ~nprocs:3 ~reads:false)
        ~cfg:(quotient_cfg [ 0; 1; 2 ]) ~symmetry:true ~min_states:5_000 );
  ]
  |> List.map (fun (name, f) -> Alcotest.test_case ("incremental key = scratch, " ^ name) `Quick f)

(* A visited state allocates what its step and its key cost: the key
   joins cached parts and re-encodes only the stepped process and stale
   cells.  The search's own terms (decision lists, trail thunks, the
   store's slot) are in the count too, and so is the heap image copied
   when a mutation made the memory section stale.  A state takes 271.3
   words here, against 424.8 when every key copied and re-encoded the
   whole machine; the bound leaves 10% room. *)
let words_per_state_bound = 300.

let test_words_per_state () =
  let root = explicit_root (Workload.Scenarios.pcall ~nprocs:2 ~ops:2 ()) () in
  let cfg = { Explore.default_config with crash_procs = [ 0 ]; max_steps = 50 } in
  let w0 = Gc.minor_words () in
  let st = Explore.dfs ~cfg ~dedup:true ~on_terminal:ignore root in
  let per_state =
    (Gc.minor_words () -. w0) /. float_of_int (st.Explore.nodes + st.Explore.dup)
  in
  if per_state > words_per_state_bound then
    Alcotest.failf "pcall 2x2 explicit: %.1f minor words per visited state (bound %.0f)"
      per_state words_per_state_bound

let suite =
  [
    Alcotest.test_case "fresh exactly once, cardinal exact" `Quick test_fresh_exactly_once;
    Alcotest.test_case "shard count rounds to a power of two" `Quick test_shard_rounding;
    QCheck_alcotest.to_alcotest prop_concurrent_inserts;
    Alcotest.test_case "shard distribution is sane" `Quick test_shard_distribution;
    Alcotest.test_case "key injective on explicit states" `Quick test_key_injective;
    Alcotest.test_case "key separates single fields" `Quick test_key_separates_fields;
    Alcotest.test_case "shard balance on explicit keys" `Quick test_shard_balance_explicit;
    Alcotest.test_case "zoo verdicts pinned, crashes enabled" `Slow test_zoo_verdicts_pinned;
    Alcotest.test_case "zoo verdicts pinned, crash-free" `Slow
      test_zoo_verdicts_pinned_crash_free;
    Alcotest.test_case "canonical map idempotent, full group" `Quick
      test_canonical_idempotent;
    Alcotest.test_case "orbit invariance rw3x1 all" `Quick
      (orbit_invariance ~nprocs:3 ~crash_procs:[ 0; 1; 2 ] ~nodes:5_000);
    Alcotest.test_case "orbit invariance rw4x1 {0,1}" `Quick
      (orbit_invariance ~nprocs:4 ~crash_procs:[ 0; 1 ] ~nodes:3_000);
  ]
  @ quotient_pins @ oracle_cases
  @ [
      Alcotest.test_case "dedup states allocate few words" `Quick test_words_per_state;
    ]
