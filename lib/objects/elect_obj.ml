(** Extension (beyond the paper's examples): a recoverable {e slot
    allocator} ("elect"), built modularly from an array of recoverable TAS
    objects (Algorithm 3 instances).

    [ELECT()] scans slots [0 .. k-1] and returns the index of the first
    TAS it wins.  Each returned slot is owned by exactly one process.

    The construction showcases the role of {e strictness} (Definition 1)
    in nesting: the paper's T&S persists its response in [Res_p] before
    returning, which is exactly what lets ELECT's recovery function cope
    with a crash {e after} a nested T&S completed but {e before} its
    (volatile) response was consumed — ELECT.RECOVER reads the inner
    operation's own persisted response instead of guessing.  A per-process
    persistent progress cell [Prog_p] (written before each nested
    invocation) tells the recovery which slot was being attempted:

    - [T\[Prog_p\].Res_p = null]: the nested T&S never completed (a crash
      while it was pending is handled by {e its} recovery first, which
      always persists the response before the cascade reaches ELECT), so
      it was never invoked — re-invoke it;
    - [= 0]: that slot was won — persist and return it;
    - [= 1]: that slot was lost — move on to the next slot.

    The sequential specification ("return any currently free slot") is
    deliberately nondeterministic: {!Linearize.Spec.slot_allocator},
    which {!Linearize.Spec.of_otype} selects for this object's
    ["slot_allocator"] type with the slot count [k] recorded in its
    [init_value]. *)

open Machine.Program

type cells = {
  tases : Machine.Objdef.instance array;
  tas_ids : int array;
  tas_res : Nvm.Memory.addr array;  (** base of each TAS instance's [Res] array *)
  prog : Nvm.Memory.addr;  (** per-process progress: slot being attempted *)
  res : Nvm.Memory.addr;  (** per-process persistent response of ELECT *)
  k : int;
}

(* address of T[i].Res_p where i is the value of a local *)
let inner_res c i_local : int exp =
 fun ctx env -> c.tas_res.(Nvm.Value.as_int (Machine.Env.get env i_local)) + ctx.pid

(* Explicit-persist annotations (docs/memory-model.md): the nested T&S
   carries its own flushes, so ELECT persists only its direct writes —
   the progress cell before each nested invocation (the recovery's
   inference reads it) and the strict response cell before the response
   escapes.  The recovery needs no read flushes: [Prog_p] and the inner
   [Res_p] cells are durable by the writers' program-order flush
   discipline (a crash inside the nested T&S runs {e its} recovery
   first, which re-persists). *)
let elect_body ~persist c =
  make ~name:"ELECT"
    (List.concat
       [
         [ (2, Assign ("i", int 0)); (3, Write (my_slot c.prog, local "i")) ];
         only_if persist [ (301, Flush (my_slot c.prog)) ];
         [
           ( 4,
             Invoke
               ( "r",
                 (fun _ env -> c.tas_ids.(Nvm.Value.as_int (Machine.Env.get env "i"))),
                 "T&S",
                 [||] ) );
           (5, Branch_if (eq (local "r") (int 0), 9));
           (6, Assign ("i", add (local "i") (int 1)));
           (7, Branch_if ((fun _ env -> Nvm.Value.as_int (Machine.Env.get env "i") < c.k), 3));
           (8, Ret (int (-1)));  (* all slots taken; unreachable when k >= nprocs *)
           (9, Write (my_slot c.res, local "i"));
         ];
         only_if persist [ (901, Flush (my_slot c.res)) ];
         [ (10, Ret (local "i")) ];
       ])

let elect_recover c =
  make ~name:"ELECT.RECOVER"
    [
      (12, Read ("i", my_slot c.prog));
      (13, Read ("rr", inner_res c "i"));
      (* null: the attempt at slot i never completed; redo from line 3
         (Prog_p already holds i, rewriting it is harmless) *)
      (14, Branch_if (is_null (local "rr"), 20));
      (* 0: slot i was won; persist and return via lines 9-10 *)
      (15, Branch_if (eq (local "rr") (int 0), 21));
      (* 1: slot i was lost; continue scanning from i+1 *)
      (16, Assign ("i", add (local "i") (int 1)));
      (17, Branch_if ((fun _ env -> Nvm.Value.as_int (Machine.Env.get env "i") < c.k), 20));
      (18, Ret (int (-1)));
      (20, Resume 3);
      (21, Resume 9);
    ]

(** Create a recoverable slot allocator over [k] slots (default: one per
    process) in [sim]'s memory, together with its TAS instances. *)
let make ?k sim ~name =
  let mem = Machine.Sim.mem sim in
  let nprocs = Machine.Sim.nprocs sim in
  let persist = Machine.Sim.persist_annotations sim in
  let k = Option.value k ~default:nprocs in
  let tases =
    Array.init k (fun i -> Tas_obj.make sim ~name:(Printf.sprintf "%s.T[%d]" name i))
  in
  let tas_res =
    Array.map
      (fun (t : Machine.Objdef.instance) ->
        match t.Machine.Objdef.strict_cells with
        | [ ("T&S", cells) ] -> cells.(0) (* base address: cells.(p) = base + p *)
        | _ -> invalid_arg "Elect_obj: TAS instance lacks strict cells")
      tases
  in
  let c =
    {
      tases;
      tas_ids = Array.map (fun (t : Machine.Objdef.instance) -> t.Machine.Objdef.id) tases;
      tas_res;
      prog = Nvm.Memory.alloc_array ~name:(name ^ ".Prog") mem nprocs (Nvm.Value.Int 0);
      res = Nvm.Memory.alloc_array ~name:(name ^ ".Res") mem nprocs Nvm.Value.Null;
      k;
    }
  in
  let res_cells = Array.init nprocs (fun i -> c.res + i) in
  Machine.Objdef.register (Machine.Sim.registry sim) ~otype:"slot_allocator" ~name
    ~init_value:(Nvm.Value.Int k) ~strict_cells:[ ("ELECT", res_cells) ]
    ~subobjects:(Array.to_list tases)
    [
      ( "ELECT",
        { Machine.Objdef.op_name = "ELECT"; body = elect_body ~persist c; recover = elect_recover c }
      );
    ]
