(* Differential conformance suite: every object kind that exists on both
   backends runs the same deterministic solo schedule through

   - the native runtime (lib/runtime on real OCaml atomics), with a
     crash drilled at every [Crash.point] of the schedule and a second
     one at every [Crash.point] of the crashed operation's recovery, and
   - the simulator (lib/objects on the machine's simulated NVM), with a
     crash drilled after every machine step — under the Instant persist
     model, the Explicit model with individual crashes, and the Explicit
     model with full-system crashes that lose unflushed writes.

   At every crash position the schedule's responses must form one of the
   row's admissible response vectors, and the history must stay
   nesting-safe recoverable linearizable.  Most kinds have exactly one
   admissible vector — the crash-free responses — which pins exactly-once
   semantics across every crash position.  The abortable mutex has two
   (granted/released or aborted/refused): a crash before its CAS can
   prove anything legitimately aborts, but the two operations must then
   agree, and no third vector (e.g. acquire granted, release refused) is
   ever admissible.  A native schedule may also end in observation steps
   that read state no response shows — the T&S's persisted [Res_p], the
   stack's top after PUSH/POP — so the table pins those effects at every
   crash position too.

   The two backends count positions differently — the simulator steps
   individual memory accesses of the pseudocode interpreter, the native
   code its [Crash.point] markers — so the comparison is on the abstract
   response vectors, which the table makes identical up to value
   encoding (the simulated CAS cell holds [<id, value>] pairs, so its
   READ answers the tagged pair where the native object answers the raw
   int). *)

open Machine
open Runtime

let nrl_ok sim =
  match Workload.Check.nrl_violation sim with
  | None -> ()
  | Some reason ->
    Fmt.epr "history:@.%a@." History.pp (Sim.history sim);
    Alcotest.failf "NRL violation: %s" reason

let run_rr sim =
  match Schedule.run sim (Schedule.round_robin ()) with
  | Schedule.Completed -> ()
  | _ -> Alcotest.fail "execution did not complete"

let steps sim p n =
  for _ = 1 to n do
    Sim.step sim p
  done

(* {2 The native drill}

   A native schedule is a list of steps; each step runs its operation
   under a shared crash point and recovers it from the operation's
   arguments alone.  A crash is armed at a global position [k] spanning
   the whole schedule: whichever operation is in flight when point [k]
   is reached aborts, a second crash is armed at position [j] of its
   recovery, and a recovery so crashed re-runs crash-free.  The other
   operations proceed crash-free. *)

type nstep = {
  nlabel : string;
  nop : Crash.t -> Nvm.Value.t;
  nrecover : Crash.t -> Nvm.Value.t;
}

(* an observation step: reads native state after the operations and
   traverses no crash point, so no crash ever lands in it *)
let observe nlabel f = { nlabel; nop = (fun _ -> f ()); nrecover = (fun _ -> f ()) }

(* how many crash points a crash-free run of the schedule traverses
   (arm far past the end; [traversed] must be read before [disarm]
   resets it) *)
let native_positions mk =
  let cp = Crash.create () in
  Crash.arm cp max_int;
  List.iter (fun s -> ignore (s.nop cp)) (mk ());
  let n = Crash.traversed cp in
  Crash.disarm cp;
  n

(* run a fresh schedule with a crash armed at global position [k] and
   one at position [j] of the crashed operation's recovery; also says
   whether that second crash fired *)
let native_run mk k j =
  let cp = Crash.create () in
  let recrashed = ref false in
  Crash.arm cp k;
  let results =
    List.map
      (fun s ->
        match s.nop cp with
        | r -> (s.nlabel, r)
        | exception Crash.Crashed ->
          Crash.arm cp j;
          let r =
            try s.nrecover cp
            with Crash.Crashed ->
              Crash.disarm cp;
              recrashed := true;
              s.nrecover cp
          in
          Crash.disarm cp;
          (s.nlabel, r))
      (mk ())
  in
  Crash.disarm cp;
  (results, !recrashed)

(* {2 The simulator drill} *)

(* crash the solo simulator process after [k] steps (if its operation is
   still open) — individually, or with the whole system losing unflushed
   writes — recover, run to completion, check NRL *)
let vm_run ~mode ~system ~seed script_of k =
  let sim = Sim.create ~seed ~persist:mode ~nprocs:1 () in
  Sim.set_script sim 0 (script_of sim);
  (try
     steps sim 0 k;
     if (Sim.proc sim 0).Sim.stack <> [] then begin
       if system then Sim.crash_all sim else Sim.crash sim 0;
       Sim.recover sim 0
     end
   with Invalid_argument _ -> () (* script exhausted before step k *));
  run_rr sim;
  nrl_ok sim;
  Sim.results sim 0

(* enough steps to cover the longest solo schedule below (the pcall RUN
   expands into nested WRITE + INC with their flushes), crash or not *)
let vm_bound = 120

(* {2 The table} *)

type row = {
  kind : string;
  native : (unit -> nstep list) option;  (* None: simulator-only kind *)
  script : Sim.t -> (Objdef.instance * string * Sim.arg_spec) list;
  admissible_native : (string * Nvm.Value.t) list list;
  admissible_vm : (string * Nvm.Value.t) list list;
}

let ack = Nvm.Value.ack
let int n = Nvm.Value.Int n
let bool b = Nvm.Value.Bool b
let tagged = Workload.Opgen.tagged

let register_row =
  {
    kind = "register";
    native =
      Some
        (fun () ->
          let r = Rrw.create ~nprocs:1 0 in
          [
            {
              nlabel = "WRITE";
              nop =
                (fun cp ->
                  Rrw.write ~cp r ~pid:0 5;
                  ack);
              nrecover =
                (fun cp ->
                  Rrw.write_recover ~cp r ~pid:0 5;
                  ack);
            };
            {
              nlabel = "READ";
              nop = (fun cp -> int (Rrw.read ~cp r));
              nrecover = (fun cp -> int (Rrw.read_recover ~cp r));
            };
          ]);
    script =
      (fun sim ->
        let inst = Objects.Rw_obj.make sim ~name:"R" in
        [ (inst, "WRITE", Sim.Args [| int 5 |]); (inst, "READ", Sim.Args [||]) ]);
    admissible_native = [ [ ("WRITE", ack); ("READ", int 5) ] ];
    admissible_vm = [ [ ("WRITE", ack); ("READ", int 5) ] ];
  }

let cas_row =
  {
    kind = "cas";
    native =
      Some
        (fun () ->
          let c = Rcas.create ~nprocs:1 0 in
          [
            {
              nlabel = "CAS";
              nop = (fun cp -> bool (Rcas.cas ~cp c ~pid:0 ~old:0 ~new_:1));
              nrecover = (fun cp -> bool (Rcas.cas_recover ~cp c ~pid:0 ~old:0 ~new_:1));
            };
            {
              nlabel = "READ";
              nop = (fun cp -> int (Rcas.read ~cp c));
              nrecover = (fun cp -> int (Rcas.read_recover ~cp c));
            };
          ]);
    script =
      (fun sim ->
        let inst = Objects.Cas_obj.make sim ~name:"C" in
        [
          Workload.Opgen.cas_fixed ~pid:0 inst ~old:Nvm.Value.Null ~seq:1;
          (inst, "READ", Sim.Args [||]);
        ]);
    admissible_native = [ [ ("CAS", bool true); ("READ", int 1) ] ];
    admissible_vm = [ [ ("CAS", bool true); ("READ", tagged 0 1) ] ];
  }

let scas_row =
  {
    kind = "scas";
    native =
      Some
        (fun () ->
          let c = Rscas.create ~nprocs:1 0 in
          [
            {
              nlabel = "CAS";
              nop = (fun cp -> bool (Rscas.cas ~cp c ~pid:0 ~old:0 ~new_:1 ~seq:1));
              nrecover =
                (fun cp -> bool (Rscas.cas_recover ~cp c ~pid:0 ~old:0 ~new_:1 ~seq:1));
            };
            {
              nlabel = "READ";
              nop = (fun cp -> int (Rscas.read ~cp c));
              nrecover = (fun cp -> int (Rscas.read ~cp c));
            };
          ]);
    script =
      (fun sim ->
        let inst = Objects.Scas_obj.make sim ~name:"SC" in
        [
          (inst, "CAS", Sim.Args [| Nvm.Value.Null; tagged 0 1; int 1 |]);
          (inst, "READ", Sim.Args [||]);
        ]);
    admissible_native = [ [ ("CAS", bool true); ("READ", int 1) ] ];
    admissible_vm = [ [ ("CAS", bool true); ("READ", tagged 0 1) ] ];
  }

let tas_row =
  {
    kind = "tas";
    native =
      Some
        (fun () ->
          let t = Rtas.create ~nprocs:1 in
          [
            {
              nlabel = "T&S";
              nop = (fun cp -> int (Rtas.test_and_set ~cp t ~pid:0));
              nrecover = (fun cp -> int (Rtas.recover ~cp t ~pid:0));
            };
            observe "Res_p" (fun () -> int (Rtas.response t ~pid:0));
          ]);
    script =
      (fun sim -> Workload.Opgen.tas_ops (Objects.Tas_obj.make sim ~name:"T"));
    admissible_native = [ [ ("T&S", int 0); ("Res_p", int 0) ] ];
    admissible_vm = [ [ ("T&S", int 0) ] ];
  }

let counter_row =
  {
    kind = "counter";
    native =
      Some
        (fun () ->
          let c = Rcounter.create ~nprocs:1 in
          [
            {
              nlabel = "INC";
              nop =
                (fun cp ->
                  Rcounter.inc ~cp c ~pid:0;
                  ack);
              nrecover =
                (fun cp ->
                  Rcounter.inc_recover ~cp c ~pid:0;
                  ack);
            };
            {
              nlabel = "READ";
              nop = (fun cp -> int (Rcounter.read ~cp c ~pid:0));
              nrecover = (fun cp -> int (Rcounter.read_recover ~cp c ~pid:0));
            };
          ]);
    script =
      (fun sim ->
        let inst = Objects.Counter_obj.make sim ~name:"K" in
        [ (inst, "INC", Sim.Args [||]); (inst, "READ", Sim.Args [||]) ]);
    admissible_native = [ [ ("INC", ack); ("READ", int 1) ] ];
    admissible_vm = [ [ ("INC", ack); ("READ", int 1) ] ];
  }

(* the drilled FAA follows a completed one: on a fresh object a stale
   commit marker and a missing one read alike, so a marker written
   before the operation's tag persists would go unseen *)
let faa_row =
  let faa f label delta =
    {
      nlabel = label;
      nop = (fun cp -> int (Rfaa.faa ~cp f ~pid:0 delta));
      nrecover = (fun cp -> int (Rfaa.recover ~cp f ~pid:0 delta));
    }
  in
  {
    kind = "faa";
    native =
      Some
        (fun () ->
          let f = Rfaa.create ~nprocs:1 () in
          [
            faa f "FAA 2" 2;
            faa f "FAA" 3;
            {
              nlabel = "READ";
              nop = (fun cp -> int (Rfaa.read ~cp f));
              nrecover = (fun cp -> int (Rfaa.read ~cp f));
            };
          ]);
    script =
      (fun sim ->
        let inst = Objects.Faa_obj.make sim ~name:"F" in
        [
          (inst, "FAA", Sim.Args [| int 2 |]);
          (inst, "FAA", Sim.Args [| int 3 |]);
          (inst, "READ", Sim.Args [||]);
        ]);
    admissible_native = [ [ ("FAA 2", int 0); ("FAA", int 2); ("READ", int 5) ] ];
    admissible_vm = [ [ ("FAA", int 0); ("FAA", int 2); ("READ", int 5) ] ];
  }

let stack_row =
  let of_response = function
    | Rstack.Pushed -> ack
    | Rstack.Popped v -> int v
    | Rstack.Empty -> Nvm.Value.Null
  in
  {
    kind = "stack";
    native =
      Some
        (fun () ->
          let s = Rstack.create ~nprocs:1 () in
          [
            {
              nlabel = "PUSH";
              nop = (fun cp -> of_response (Rstack.decode (Rstack.push ~cp s ~pid:0 7)));
              nrecover =
                (fun cp -> of_response (Rstack.decode (Rstack.push_recover ~cp s ~pid:0 7)));
            };
            {
              nlabel = "POP";
              nop = (fun cp -> of_response (Rstack.decode (Rstack.pop ~cp s ~pid:0)));
              nrecover =
                (fun cp -> of_response (Rstack.decode (Rstack.pop_recover ~cp s ~pid:0)));
            };
            (* empty again: the pop took effect exactly once *)
            observe "TOP" (fun () ->
                match Rstack.peek s with Some v -> int v | None -> Nvm.Value.Null);
          ]);
    script =
      (fun sim ->
        let inst = Objects.Stack_obj.make sim ~name:"S" in
        [ (inst, "PUSH", Sim.Args [| int 7 |]); (inst, "POP", Sim.Args [||]) ]);
    admissible_native = [ [ ("PUSH", ack); ("POP", int 7); ("TOP", Nvm.Value.Null) ] ];
    admissible_vm = [ [ ("PUSH", ack); ("POP", int 7) ] ];
  }

(* the abortable mutex is the one genuinely bi-stable row: a crash
   before the acquire's CAS can prove anything aborts (returns false),
   after which the release finds no lock to free — but acquire and
   release must then agree, and "granted yet refused" is inadmissible *)
let mutex_admissible =
  [
    [ ("ACQUIRE", bool true); ("RELEASE", bool true) ];
    [ ("ACQUIRE", bool false); ("RELEASE", bool false) ];
  ]

let mutex_row =
  {
    kind = "mutex";
    native =
      Some
        (fun () ->
          let m = Rmutex.create ~nprocs:1 in
          [
            {
              nlabel = "ACQUIRE";
              nop = (fun cp -> bool (Rmutex.acquire ~cp m ~pid:0 ~seq:1));
              nrecover = (fun cp -> bool (Rmutex.acquire_recover ~cp m ~pid:0 ~seq:1));
            };
            {
              nlabel = "RELEASE";
              nop = (fun cp -> bool (Rmutex.release ~cp m ~pid:0 ~seq:2));
              nrecover = (fun cp -> bool (Rmutex.release_recover ~cp m ~pid:0 ~seq:2));
            };
          ]);
    script =
      (fun sim ->
        Workload.Opgen.mutex_pair ~pid:0 (Objects.Mutex_obj.make sim ~name:"MX") ~seq:1);
    admissible_native = mutex_admissible;
    admissible_vm = mutex_admissible;
  }

let consensus_row =
  {
    kind = "consensus";
    native =
      Some
        (fun () ->
          let c = Rconsensus.create ~nprocs:1 in
          [
            {
              nlabel = "DECIDE";
              nop = (fun cp -> int (Rconsensus.decide ~cp c ~pid:0 ~seq:1 7));
              nrecover = (fun cp -> int (Rconsensus.decide_recover ~cp c ~pid:0 ~seq:1 7));
            };
          ]);
    script =
      (fun sim ->
        let inst = Objects.Consensus_obj.make sim ~name:"CNS" in
        [ (inst, "DECIDE", Sim.Args [| int 1; tagged 0 1 |]) ]);
    admissible_native = [ [ ("DECIDE", int 7) ] ];
    admissible_vm = [ [ ("DECIDE", tagged 0 1) ] ];
  }

(* the persistent call stack is simulator-only (its point is the
   machine's nested Invoke/Resume bookkeeping); a solo RUN must apply
   its nested INC exactly once at every crash position — the schedule
   that caught the flush-line/LI ordering bug *)
let pcall_row =
  {
    kind = "pcall";
    native = None;
    script =
      (fun sim ->
        let inst = Objects.Pcall_obj.make sim ~name:"PC" in
        [ (inst, "RUN", Sim.Args [| int 1 |]); (inst, "READ", Sim.Args [| int 2 |]) ]);
    admissible_native = [];
    admissible_vm = [ [ ("RUN", ack); ("READ", int 1) ] ];
  }

let rows =
  [
    register_row;
    cas_row;
    scas_row;
    tas_row;
    counter_row;
    faa_row;
    stack_row;
    mutex_row;
    consensus_row;
    pcall_row;
  ]

(* {2 The drills} *)

let pp_results = Fmt.Dump.list (Fmt.Dump.pair Fmt.string Nvm.Value.pp)

(* a vector matches step by step, in schedule order, so one label may
   occur twice (the simulator labels a response by its operation name) *)
let check_admissible ~msg admissible results =
  let matches vector =
    List.equal
      (fun (label, v) (label', r) -> String.equal label label' && Nvm.Value.equal r v)
      vector results
  in
  if not (List.exists matches admissible) then
    Alcotest.failf "%s: responses %a match no admissible vector" msg pp_results results

(* every operation crash position [k], and for each every recovery
   crash position [j] until the recovery no longer reaches [j]; [f]
   sees each run's results, and the count of runs is returned *)
let iter_drills mk f =
  let runs = ref 0 in
  for k = 0 to native_positions mk do
    let rec from j =
      let results, recrashed = native_run mk k j in
      incr runs;
      f k j results;
      if recrashed then from (j + 1)
    in
    from 0
  done;
  !runs

let drill_native row mk =
  Alcotest.(check bool)
    (row.kind ^ ": the native drill covers real positions")
    true
    (native_positions mk > 0);
  ignore
    (iter_drills mk (fun k j results ->
         check_admissible
           ~msg:(Printf.sprintf "native %s, crash at %d, recovery crash at %d" row.kind k j)
           row.admissible_native results))

let vm_modes =
  [
    ("instant", Nvm.Memory.Instant, false);
    ("explicit", Nvm.Memory.Explicit, false);
    ("explicit+system", Nvm.Memory.Explicit, true);
  ]

let drill_vm row =
  List.iter
    (fun (mode_name, mode, system) ->
      for k = 1 to vm_bound do
        check_admissible
          ~msg:(Printf.sprintf "vm %s (%s), crash after step %d" row.kind mode_name k)
          row.admissible_vm
          (vm_run ~mode ~system ~seed:(Hashtbl.hash (row.kind, mode_name) + k) row.script k)
      done)
    vm_modes

let drill_row row () =
  (match row.native with Some mk -> drill_native row mk | None -> ());
  drill_vm row

(* each native row's crash-free crash-point count and the number of
   (k, j) drills it runs: a refactor of a native object (nesting it on
   another's functions, say) must keep its crash-point sequence, and a
   sequence that moves shifts one of these *)
let native_pins =
  [
    ("register", 5, 26);
    ("cas", 3, 13);
    ("scas", 4, 21);
    ("tas", 5, 37);
    ("counter", 7, 36);
    ("faa", 16, 155);
    ("stack", 15, 153);
    ("mutex", 9, 47);
    ("consensus", 5, 31);
  ]

let test_native_pins () =
  let measured =
    List.filter_map
      (fun row ->
        Option.map
          (fun mk -> (row.kind, native_positions mk, iter_drills mk (fun _ _ _ -> ())))
          row.native)
      rows
  in
  Alcotest.(check (list (triple string int int)))
    "(kind, crash-free points, drills)" native_pins measured

let suite =
  List.map
    (fun row ->
      Alcotest.test_case
        (row.kind ^ ": admissible responses at every crash position, every persist model")
        `Quick (drill_row row))
    rows
  @ [ Alcotest.test_case "native crash-point counts pinned" `Quick test_native_pins ]
