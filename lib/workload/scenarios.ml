(** Ready-made scenarios: one per algorithm of the paper and per naive
    baseline, parameterised by process count and per-process operation
    count.  Used by tests, experiments and the CLI. *)

module Prng = Machine.Schedule.Prng

(* {1 The object-kind catalogue} *)

type kind = {
  k_name : string;
  k_instance : string;
  k_nprocs : int;
  k_ops : int option;
  k_ratio : float;
  k_build :
    Machine.Sim.t ->
    name:string ->
    edit:(Machine.Objdef.instance -> Machine.Objdef.instance) ->
    nprocs:int ->
    ops:int ->
    ratio:float ->
    rng_seed:int ->
    Machine.Objdef.instance;
}

(* what a row's script function draws from: the shared rng, the process,
   and the workload's size and mix *)
type gen = { rng : Prng.t; pid : int; ops : int; ratio : float }

(* One row: [make] builds the object (and whatever cells its workload
   reads), [edit] may rewrite it, and [script] scripts every process from
   one rng seeded by [rng_seed]. *)
let row k_name k_instance ?(nprocs = 3) ?ops ?(ratio = 0.0) make script =
  let k_build sim ~name ~edit ~nprocs ~ops ~ratio ~rng_seed =
    let inst, cells = make sim ~name in
    let inst = edit inst in
    let rng = Prng.create rng_seed in
    for pid = 0 to nprocs - 1 do
      Machine.Sim.set_script sim pid (script { rng; pid; ops; ratio } inst cells)
    done;
    inst
  in
  { k_name; k_instance; k_nprocs = nprocs; k_ops = ops; k_ratio = ratio; k_build }

let plain make sim ~name = (make sim ~name, ())

let catalogue =
  let open Objects in
  [
    row "register" "R" ~ops:6 ~ratio:0.6 (plain (fun sim -> Rw_obj.make sim)) (fun g inst () ->
        Opgen.register_ops ~rng:g.rng ~pid:g.pid ~count:g.ops ~write_ratio:g.ratio inst);
    row "cas" "C" ~ops:6 ~ratio:0.7 Cas_obj.make_ex (fun g inst cells ->
        Opgen.cas_ops ~rng:g.rng ~pid:g.pid ~count:g.ops ~cas_ratio:g.ratio inst
          ~cell:cells.Cas_obj.c);
    row "tas" "T" (plain (fun sim -> Tas_obj.make sim)) (fun _ inst () -> Opgen.tas_ops inst);
    row "counter" "CTR" ~ops:5 ~ratio:0.7 (plain Counter_obj.make) (fun g inst () ->
        Opgen.counter_ops ~rng:g.rng ~count:g.ops ~inc_ratio:g.ratio inst);
    row "mutex" "MX" ~ops:4 (plain Mutex_obj.make) (fun g inst () ->
        Opgen.mutex_ops ~rng:g.rng ~pid:g.pid ~count:g.ops inst);
    row "consensus" "CNS" ~ops:2 (plain Consensus_obj.make) (fun g inst () ->
        Opgen.consensus_ops ~pid:g.pid ~count:g.ops inst);
    row "pcall" "PC" ~nprocs:2 ~ops:3 ~ratio:0.6 (plain Pcall_obj.make) (fun g inst () ->
        Opgen.pcall_ops ~rng:g.rng ~count:g.ops ~run_ratio:g.ratio inst);
  ]

let name k = k.k_name

let kind name =
  match List.find_opt (fun k -> k.k_name = name) catalogue with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "Scenarios.kind: unknown object kind %S" name)

(* A zoo mutant is its base kind's row under instance name "Z", with the
   mutant's edits applied to the freshly built object. *)
let install name sim ~nprocs ~ops ~ratio ~rng_seed =
  let k, name, edit =
    match Objects.Zoo.find name with
    | Some m -> (kind m.m_algo, "Z", Objects.Zoo.mutate m sim)
    | None ->
      let k = kind name in
      (k, k.k_instance, Fun.id)
  in
  k.k_build sim ~name ~edit ~nprocs ~ops ~ratio ~rng_seed

let scenario label k ?(nprocs = k.k_nprocs) ?ops ?(ratio = k.k_ratio) ?(rng_seed = 42) () =
  let ops = Option.value ops ~default:(Option.value k.k_ops ~default:1) in
  {
    Trial.scen_name =
      (match k.k_ops with
      | Some _ -> Printf.sprintf "%s/n%d/ops%d" label nprocs ops
      | None -> Printf.sprintf "%s/n%d" label nprocs);
    nprocs;
    build = (fun sim -> ignore (install label sim ~nprocs ~ops ~ratio ~rng_seed));
  }

let of_kind k = scenario k.k_name k

(* the fixed workload every zoo mutant scenario runs *)
let mutant (m : Objects.Zoo.mutant) ?nprocs ?ops () =
  scenario m.m_name (kind m.m_algo) ?nprocs ?ops ~ratio:0.6 ~rng_seed:1 ()

let register ?nprocs ?ops ?write_ratio ?rng_seed () =
  of_kind (kind "register") ?nprocs ?ops ?ratio:write_ratio ?rng_seed ()

let cas ?nprocs ?ops ?cas_ratio ?rng_seed () =
  of_kind (kind "cas") ?nprocs ?ops ?ratio:cas_ratio ?rng_seed ()

let tas ?nprocs () = of_kind (kind "tas") ?nprocs ()

let counter ?nprocs ?ops ?inc_ratio ?rng_seed () =
  of_kind (kind "counter") ?nprocs ?ops ?ratio:inc_ratio ?rng_seed ()

let elect ?(nprocs = 3) ?k () =
  {
    Trial.scen_name = Printf.sprintf "elect/n%d" nprocs;
    nprocs;
    build =
      (fun sim ->
        let inst = Objects.Elect_obj.make ?k sim ~name:"E" in
        for p = 0 to nprocs - 1 do
          Machine.Sim.set_script sim p [ (inst, "ELECT", Machine.Sim.Args [||]) ]
        done);
  }

let faa ?(nprocs = 3) ?(ops = 4) ?(faa_ratio = 0.75) ?(rng_seed = 42) () =
  {
    Trial.scen_name = Printf.sprintf "faa/n%d/ops%d" nprocs ops;
    nprocs;
    build =
      (fun sim ->
        let inst = Objects.Faa_obj.make sim ~name:"F" in
        let rng = Prng.create rng_seed in
        for p = 0 to nprocs - 1 do
          Machine.Sim.set_script sim p
            (List.init ops (fun _ ->
                 if Prng.float rng < faa_ratio then
                   (inst, "FAA", Machine.Sim.Args [| Nvm.Value.Int (1 + Prng.int rng 3) |])
                 else (inst, "READ", Machine.Sim.Args [||])))
        done);
  }

let histogram ?(nprocs = 3) ?(ops = 4) ?(k = 3) ?(rng_seed = 42) () =
  {
    Trial.scen_name = Printf.sprintf "histogram/n%d/ops%d" nprocs ops;
    nprocs;
    build =
      (fun sim ->
        let inst = Objects.Histogram_obj.make ~k sim ~name:"H" in
        let rng = Prng.create rng_seed in
        for p = 0 to nprocs - 1 do
          Machine.Sim.set_script sim p
            (List.init ops (fun _ ->
                 match Prng.int rng 4 with
                 | 0 -> (inst, "TOTAL", Machine.Sim.Args [||])
                 | 1 -> (inst, "BUCKET", Machine.Sim.Args [| Nvm.Value.Int (Prng.int rng k) |])
                 | _ -> (inst, "RECORD", Machine.Sim.Args [| Nvm.Value.Int (Prng.int rng k) |])))
        done);
  }

let stack ?(nprocs = 3) ?(ops = 4) ?(rng_seed = 42) () =
  {
    Trial.scen_name = Printf.sprintf "stack/n%d/ops%d" nprocs ops;
    nprocs;
    build =
      (fun sim ->
        let inst = Objects.Stack_obj.make sim ~name:"S" in
        let rng = Prng.create rng_seed in
        for p = 0 to nprocs - 1 do
          Machine.Sim.set_script sim p
            (List.init ops (fun k ->
                 match Prng.int rng 5 with
                 | 0 | 1 -> (inst, "PUSH", Machine.Sim.Args [| Opgen.tagged p (k + 1) |])
                 | 2 | 3 -> (inst, "POP", Machine.Sim.Args [||])
                 | _ -> (inst, "PEEK", Machine.Sim.Args [||])))
        done);
  }

let queue ?(nprocs = 3) ?(ops = 4) ?(rng_seed = 42) () =
  {
    Trial.scen_name = Printf.sprintf "queue/n%d/ops%d" nprocs ops;
    nprocs;
    build =
      (fun sim ->
        let inst = Objects.Queue_obj.make sim ~name:"Q" in
        let rng = Prng.create rng_seed in
        for p = 0 to nprocs - 1 do
          Machine.Sim.set_script sim p
            (List.init ops (fun k ->
                 match Prng.int rng 5 with
                 | 0 | 1 -> (inst, "ENQ", Machine.Sim.Args [| Opgen.tagged p (k + 1) |])
                 | 2 | 3 -> (inst, "DEQ", Machine.Sim.Args [||])
                 | _ -> (inst, "FRONT", Machine.Sim.Args [||])))
        done);
  }

let max_register ?(nprocs = 3) ?(ops = 4) ?(rng_seed = 42) () =
  {
    Trial.scen_name = Printf.sprintf "max-register/n%d/ops%d" nprocs ops;
    nprocs;
    build =
      (fun sim ->
        let inst = Objects.Max_register_obj.make sim ~name:"M" in
        let rng = Prng.create rng_seed in
        for p = 0 to nprocs - 1 do
          Machine.Sim.set_script sim p
            (List.init ops (fun _ ->
                 if Prng.int rng 3 < 2 then
                   (inst, "WRITE_MAX", Machine.Sim.Args [| Nvm.Value.Int (1 + Prng.int rng 50) |])
                 else (inst, "READ", Machine.Sim.Args [||])))
        done);
  }

let mutex ?nprocs ?ops ?rng_seed () = of_kind (kind "mutex") ?nprocs ?ops ?rng_seed ()

(* deterministic acquire/release pairs, small enough for exhaustive
   exploration *)
let mutex_pairs ?(nprocs = 2) () =
  {
    Trial.scen_name = Printf.sprintf "mutex-pairs/n%d" nprocs;
    nprocs;
    build =
      (fun sim ->
        let inst = Objects.Mutex_obj.make sim ~name:"MX" in
        for p = 0 to nprocs - 1 do
          Machine.Sim.set_script sim p (Opgen.mutex_pair ~pid:p inst ~seq:1)
        done);
  }

let consensus ?nprocs ?ops () = of_kind (kind "consensus") ?nprocs ?ops ()

let pcall ?nprocs ?ops ?run_ratio ?rng_seed () =
  of_kind (kind "pcall") ?nprocs ?ops ?ratio:run_ratio ?rng_seed ()

(* Naive baselines: same workloads, unsound recovery. *)

let naive_rw ~strategy ?(nprocs = 3) ?(ops = 6) ?(write_ratio = 0.6) ?(rng_seed = 42) () =
  {
    Trial.scen_name =
      Printf.sprintf "naive-rw-%s/n%d/ops%d"
        (match strategy with `Optimistic -> "optimistic" | `Reexecute -> "reexec")
        nprocs ops;
    nprocs;
    build =
      (fun sim ->
        let inst = Objects.Naive.make_rw ~strategy sim ~name:"R" in
        let rng = Prng.create rng_seed in
        for p = 0 to nprocs - 1 do
          Machine.Sim.set_script sim p
            (Opgen.register_ops ~rng ~pid:p ~count:ops ~write_ratio inst)
        done);
  }

let naive_cas ~strategy ?(nprocs = 3) ?(ops = 6) ?(cas_ratio = 0.7) ?(rng_seed = 42) () =
  {
    Trial.scen_name =
      Printf.sprintf "naive-cas-%s/n%d/ops%d"
        (match strategy with `Optimistic -> "optimistic" | `Reexecute -> "reexec")
        nprocs ops;
    nprocs;
    build =
      (fun sim ->
        let inst, cell = Objects.Naive.make_cas_ex ~strategy sim ~name:"C" in
        let rng = Prng.create rng_seed in
        for p = 0 to nprocs - 1 do
          Machine.Sim.set_script sim p
            (List.init ops (fun k ->
                 if Prng.float rng < cas_ratio then
                   ( inst,
                     "CAS",
                     Machine.Sim.Compute
                       (fun mem -> [| Nvm.Memory.peek mem cell; Opgen.tagged p (k + 1) |]) )
                 else (inst, "READ", Machine.Sim.Args [||])))
        done);
  }

let naive_tas ?(nprocs = 3) () =
  {
    Trial.scen_name = Printf.sprintf "naive-tas-reexec/n%d" nprocs;
    nprocs;
    build =
      (fun sim ->
        let inst = Objects.Naive.make_tas ~strategy:`Reexecute sim ~name:"T" in
        for p = 0 to nprocs - 1 do
          Machine.Sim.set_script sim p (Opgen.tas_ops inst)
        done);
  }

let all_paper ?(nprocs = 3) () =
  [ register ~nprocs (); cas ~nprocs (); tas ~nprocs (); counter ~nprocs () ]
