(** Ready-made scenarios: one per algorithm of the paper, per extension
    and per naive baseline, parameterised by process count and
    per-process operation count.  Used by tests, experiments and the
    CLI. *)

module Prng = Machine.Schedule.Prng

(* {1 The scenario table} *)

type build =
  Machine.Sim.t ->
  name:string ->
  edit:(Machine.Objdef.instance -> Machine.Objdef.instance) ->
  nprocs:int ->
  ops:int ->
  ratio:float ->
  rng_seed:int ->
  Machine.Objdef.instance

type kind = {
  k_name : string;
  k_instance : string;
  k_nprocs : int;
  k_ops : int option;
  k_ratio : float;
  k_build : build;
  k_symmetric : build option;
}

(* what a row's script function draws from: the shared rng, the process,
   and the workload's size and mix *)
type gen = { rng : Prng.t; pid : int; ops : int; ratio : float }

(* One row: [make] builds the object (and whatever cells its workload
   reads), [edit] may rewrite it, and [script] scripts every process from
   one rng seeded by [rng_seed].  [symmetric], when given, is the same
   for a script that is identical across processes up to pid renaming. *)
let row k_name k_instance ?(nprocs = 3) ?ops ?(ratio = 0.0) ?symmetric make script =
  let build script sim ~name ~edit ~nprocs ~ops ~ratio ~rng_seed =
    let inst, cells = make sim ~name in
    let inst = edit inst in
    let rng = Prng.create rng_seed in
    for pid = 0 to nprocs - 1 do
      Machine.Sim.set_script sim pid (script { rng; pid; ops; ratio } inst cells)
    done;
    inst
  in
  { k_name; k_instance; k_nprocs = nprocs; k_ops = ops; k_ratio = ratio;
    k_build = build script; k_symmetric = Option.map build symmetric }

let plain make sim ~name = (make sim ~name, ())
let op inst name args = (inst, name, Machine.Sim.Args args)

let register_script g inst () =
  Opgen.register_ops ~rng:g.rng ~pid:g.pid ~count:g.ops ~write_ratio:g.ratio inst

let tas_script _ inst () = Opgen.tas_ops inst
let mutex_pair g inst () = Opgen.mutex_pair ~pid:g.pid inst ~seq:1

(* [put] 2/5 (distinct tagged values), [take] 2/5, [look] 1/5 *)
let container put take look g inst () =
  List.init g.ops (fun k ->
      match Prng.int g.rng 5 with
      | 0 | 1 -> op inst put [| Opgen.tagged g.pid (k + 1) |]
      | 2 | 3 -> op inst take [||]
      | _ -> op inst look [||])

(* a naive CAS cell holds the bare value, so it is itself the [old]
   argument ([Opgen.cas_ops] reads a <pid,v> pair) *)
let naive_cas_script g inst cell =
  List.init g.ops (fun k ->
      if Prng.float g.rng < g.ratio then
        let args mem = [| Nvm.Memory.peek mem cell; Opgen.tagged g.pid (k + 1) |] in
        (inst, "CAS", Machine.Sim.Compute args)
      else op inst "READ" [||])

let catalogue =
  let open Objects in
  [
    row "register" "R" ~ops:6 ~ratio:0.6 (plain (fun sim -> Rw_obj.make sim)) register_script
      ~symmetric:(fun g inst () ->
        [ op inst "WRITE" [| Opgen.tagged g.pid 0 |]; op inst "READ" [||] ]);
    row "cas" "C" ~ops:6 ~ratio:0.7 Cas_obj.make_ex
      (fun g inst cells ->
        Opgen.cas_ops ~rng:g.rng ~pid:g.pid ~count:g.ops ~cas_ratio:g.ratio inst
          ~cell:cells.Cas_obj.c)
      ~symmetric:(fun g inst _ -> [ op inst "CAS" [| Nvm.Value.Null; Opgen.tagged g.pid 0 |] ]);
    row "tas" "T" (plain (fun sim -> Tas_obj.make sim)) tas_script ~symmetric:tas_script;
    row "counter" "CTR" ~ops:5 ~ratio:0.7 (plain Counter_obj.make)
      (fun g inst () -> Opgen.counter_ops ~rng:g.rng ~count:g.ops ~inc_ratio:g.ratio inst)
      ~symmetric:(fun _ inst () -> [ op inst "INC" [||]; op inst "READ" [||] ]);
    row "mutex" "MX" ~ops:4 (plain Mutex_obj.make)
      (fun g inst () -> Opgen.mutex_ops ~rng:g.rng ~pid:g.pid ~count:g.ops inst)
      ~symmetric:mutex_pair;
    row "consensus" "CNS" ~ops:2 (plain Consensus_obj.make)
      (fun g inst () -> Opgen.consensus_ops ~pid:g.pid ~count:g.ops inst)
      ~symmetric:(fun g inst () ->
        [ op inst "DECIDE" [| Nvm.Value.Int 1; Opgen.tagged g.pid 0 |] ]);
    row "pcall" "PC" ~nprocs:2 ~ops:3 ~ratio:0.6 (plain Pcall_obj.make)
      (fun g inst () -> Opgen.pcall_ops ~rng:g.rng ~count:g.ops ~run_ratio:g.ratio inst)
      ~symmetric:(fun _ inst () -> [ op inst "RUN" [| Nvm.Value.Int 1 |] ]);
  ]

let strategy_name = function `Optimistic -> "optimistic" | `Reexecute -> "reexec"

let others =
  let open Objects in
  let strategies = [ `Optimistic; `Reexecute ] in
  [
    row "elect" "E" (plain (fun sim -> Elect_obj.make sim)) (fun _ inst () ->
        [ op inst "ELECT" [||] ]);
    row "faa" "F" ~ops:4 ~ratio:0.75 (plain (fun sim -> Faa_obj.make sim)) (fun g inst () ->
        List.init g.ops (fun _ ->
            if Prng.float g.rng < g.ratio then
              op inst "FAA" [| Nvm.Value.Int (1 + Prng.int g.rng 3) |]
            else op inst "READ" [||]));
    row "stack" "S" ~ops:4 (plain Stack_obj.make) (container "PUSH" "POP" "PEEK");
    (let k = 3 in
     row "histogram" "H" ~ops:4 (plain (Histogram_obj.make ~k)) (fun g inst () ->
         List.init g.ops (fun _ ->
             match Prng.int g.rng 4 with
             | 0 -> op inst "TOTAL" [||]
             | 1 -> op inst "BUCKET" [| Nvm.Value.Int (Prng.int g.rng k) |]
             | _ -> op inst "RECORD" [| Nvm.Value.Int (Prng.int g.rng k) |])));
    row "queue" "Q" ~ops:4 (plain Queue_obj.make) (container "ENQ" "DEQ" "FRONT");
    row "max-register" "M" ~ops:4 (plain (fun sim -> Max_register_obj.make sim)) (fun g inst () ->
        List.init g.ops (fun _ ->
            if Prng.int g.rng 3 < 2 then
              op inst "WRITE_MAX" [| Nvm.Value.Int (1 + Prng.int g.rng 50) |]
            else op inst "READ" [||]));
    row "mutex-pairs" "MX" ~nprocs:2 (plain Mutex_obj.make) mutex_pair;
  ]
  (* naive baselines: the sound rows' workloads, unsound recovery *)
  @ List.map
      (fun strategy ->
        row ("naive-rw-" ^ strategy_name strategy) "R" ~ops:6 ~ratio:0.6
          (plain (fun sim -> Naive.make_rw ~strategy sim)) register_script)
      strategies
  @ List.map
      (fun strategy ->
        row ("naive-cas-" ^ strategy_name strategy) "C" ~ops:6 ~ratio:0.7
          (fun sim -> Naive.make_cas_ex ~strategy sim) naive_cas_script)
      strategies
  @ [ row "naive-tas" "T" (plain (Naive.make_tas ~strategy:`Reexecute)) tas_script ]

let name k = k.k_name

let kind name =
  match List.find_opt (fun k -> k.k_name = name) (catalogue @ others) with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "Scenarios.kind: unknown scenario %S" name)

(* A zoo mutant is its base kind's row under instance name "Z", with the
   mutant's edits applied to the freshly built object. *)
let resolve name sim =
  match Objects.Zoo.find name with
  | Some m -> (kind m.m_algo, "Z", Objects.Zoo.mutate m sim)
  | None ->
    let k = kind name in
    (k, k.k_instance, Fun.id)

let install name sim ~nprocs ~ops ~ratio ~rng_seed =
  let k, name, edit = resolve name sim in
  k.k_build sim ~name ~edit ~nprocs ~ops ~ratio ~rng_seed

let install_symmetric name sim ~nprocs =
  match resolve name sim with
  | { k_symmetric = Some build; _ }, name, edit ->
    (* a symmetric script takes no size or mix and draws nothing *)
    build sim ~name ~edit ~nprocs ~ops:1 ~ratio:0.0 ~rng_seed:0
  | k, _, _ ->
    invalid_arg (Printf.sprintf "Scenarios.install_symmetric: %S has no symmetric script" k.k_name)

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

(* {1 Named views} *)

let register ?nprocs ?ops ?write_ratio ?rng_seed () =
  of_kind (kind "register") ?nprocs ?ops ?ratio:write_ratio ?rng_seed ()

let cas ?nprocs ?ops ?cas_ratio ?rng_seed () =
  of_kind (kind "cas") ?nprocs ?ops ?ratio:cas_ratio ?rng_seed ()

let tas ?nprocs () = of_kind (kind "tas") ?nprocs ()

let counter ?nprocs ?ops ?inc_ratio ?rng_seed () =
  of_kind (kind "counter") ?nprocs ?ops ?ratio:inc_ratio ?rng_seed ()

let elect ?nprocs () = of_kind (kind "elect") ?nprocs ()

let faa ?nprocs ?ops ?faa_ratio ?rng_seed () =
  of_kind (kind "faa") ?nprocs ?ops ?ratio:faa_ratio ?rng_seed ()

let histogram ?nprocs ?ops ?rng_seed () = of_kind (kind "histogram") ?nprocs ?ops ?rng_seed ()
let stack ?nprocs ?ops ?rng_seed () = of_kind (kind "stack") ?nprocs ?ops ?rng_seed ()
let queue ?nprocs ?ops ?rng_seed () = of_kind (kind "queue") ?nprocs ?ops ?rng_seed ()
let max_register ?nprocs ?ops ?rng_seed () = of_kind (kind "max-register") ?nprocs ?ops ?rng_seed ()
let mutex ?nprocs ?ops ?rng_seed () = of_kind (kind "mutex") ?nprocs ?ops ?rng_seed ()
let mutex_pairs ?nprocs () = of_kind (kind "mutex-pairs") ?nprocs ()
let consensus ?nprocs ?ops () = of_kind (kind "consensus") ?nprocs ?ops ()

let pcall ?nprocs ?ops ?run_ratio ?rng_seed () =
  of_kind (kind "pcall") ?nprocs ?ops ?ratio:run_ratio ?rng_seed ()

let naive_rw ~strategy ?nprocs ?ops ?write_ratio ?rng_seed () =
  of_kind (kind ("naive-rw-" ^ strategy_name strategy)) ?nprocs ?ops ?ratio:write_ratio ?rng_seed ()

let naive_cas ~strategy ?nprocs ?ops ?cas_ratio ?rng_seed () =
  of_kind (kind ("naive-cas-" ^ strategy_name strategy)) ?nprocs ?ops ?ratio:cas_ratio ?rng_seed ()

let naive_tas ?nprocs () = of_kind (kind "naive-tas") ?nprocs ()

let all_paper ?(nprocs = 3) () =
  [ register ~nprocs (); cas ~nprocs (); tas ~nprocs (); counter ~nprocs () ]
