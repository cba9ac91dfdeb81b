(* Golden listing of the scripts every scenario source installs: each
   catalogue kind's scenario, one fuzz descriptor per fuzzable kind (base
   kinds and zoo mutants), the mutant scenario that `nrlsim
   run/check/explore <mutant>` runs, one per base algorithm, and every
   other named scenario at its defaults and at n=3, ops=6.

   For each scenario the listing names the object instance (name and
   registry id) and every process's operations with their arguments; a
   [Compute] argument is printed as its value on the freshly built
   machine.  The fuzz corpora, the zoo's detection seeds and the pinned
   counterexamples all depend on these scripts, so they are pinned byte
   for byte in scripts.expected. *)

open Machine
module S = Workload.Scenarios

let listing title (scen : Workload.Trial.scenario) =
  let sim = Sim.create ~nprocs:scen.nprocs () in
  scen.build sim;
  let b = Buffer.create 256 in
  Printf.bprintf b "%s\n" title;
  for p = 0 to scen.nprocs - 1 do
    Printf.bprintf b "  p%d:" p;
    List.iter
      (fun ((inst : Objdef.instance), op, spec) ->
        let args = match spec with Sim.Args a -> a | Sim.Compute f -> f (Sim.mem sim) in
        Printf.bprintf b " %s#%d.%s(%s)" inst.obj_name inst.id op
          (Fmt.str "%a" Fmt.(array ~sep:(any ",") Nvm.Value.pp) args))
      (Sim.proc sim p).Sim.script;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

let catalogue () =
  List.map
    (fun k ->
      let scen = S.of_kind k ~nprocs:3 ~ops:6 () in
      listing ("scenario " ^ scen.scen_name) scen)
    S.catalogue

let fuzz () =
  List.mapi
    (fun i kind ->
      let d = Fuzz.Gen.sample ~rng:(Schedule.Prng.create (i + 1)) ~kinds:[ kind ] in
      listing ("fuzz " ^ Fuzz.Gen.to_string d) (Fuzz.Gen.scenario d))
    Fuzz.Gen.all_kinds

(* the first mutant of each base algorithm, as the CLI builds it *)
let mutants () =
  List.filter_map
    (fun k ->
      List.find_opt (fun (m : Objects.Zoo.mutant) -> m.m_algo = S.name k) Objects.Zoo.all
      |> Option.map (fun (m : Objects.Zoo.mutant) ->
             listing
               (Printf.sprintf "mutant %s n=3 ops=6" m.m_name)
               (S.mutant m ~nprocs:3 ~ops:6 ())))
    S.catalogue

(* the named scenarios the fuzzer does not draw, in [nrlsim list] order:
   each at its defaults, then at n=3, ops=6 unless that is the same
   instance *)
let named () =
  List.concat_map
    (fun k ->
      let d = S.of_kind k () and b = S.of_kind k ~nprocs:3 ~ops:6 () in
      listing ("named " ^ d.scen_name) d
      :: (if b.scen_name = d.scen_name then [] else [ listing ("named " ^ b.scen_name) b ]))
    S.others

let test_scripts_golden () =
  let expected = In_channel.with_open_bin "scripts.expected" In_channel.input_all in
  Alcotest.(check (list string))
    "scripts match scripts.expected"
    (String.split_on_char '\n' expected)
    (String.split_on_char '\n'
       (String.concat "" (catalogue () @ fuzz () @ mutants () @ named ())))

let test_mutant_algos_are_catalogue_kinds () =
  List.iter
    (fun (m : Objects.Zoo.mutant) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s's base %s is a catalogue kind" m.m_name m.m_algo)
        true
        (List.exists (fun k -> S.name k = m.m_algo) S.catalogue))
    Objects.Zoo.all

let suite =
  [
    Alcotest.test_case "scripts match the golden listing" `Quick test_scripts_golden;
    Alcotest.test_case "every mutant's base is a catalogue kind" `Quick
      test_mutant_algos_are_catalogue_kinds;
  ]
