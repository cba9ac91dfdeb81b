(* Tests for the sequential specifications and the linearizability / NRL
   checkers, including a brute-force oracle comparison on random small
   histories. *)

open Linearize

let opref obj op : History.Step.opref = { History.Step.obj; obj_name = "o"; op }

let inv ?(pid = 0) ?(obj = 0) ~op ?(args = [||]) id =
  History.Step.Inv { pid; opref = opref obj op; args; call_id = id }

let res ?(pid = 0) ?(obj = 0) ~op ~ret id =
  History.Step.Res { pid; opref = opref obj op; ret; call_id = id; persisted = None }

let lin = function Checker.Linearizable _ -> true | Checker.Not_linearizable _ -> false

let check_reg h = lin (Checker.check_object ~spec:(Spec.register ()) ~nprocs:2 (History.of_list h))

(* {2 Direct checker tests on hand histories} *)

let test_empty_history () =
  Alcotest.(check bool) "empty linearizable" true (check_reg [])

let test_sequential_rw () =
  Alcotest.(check bool) "write then read" true
    (check_reg
       [
         inv ~op:"WRITE" ~args:[| Nvm.Value.Int 1 |] 1;
         res ~op:"WRITE" ~ret:Nvm.Value.ack 1;
         inv ~op:"READ" 2;
         res ~op:"READ" ~ret:(Nvm.Value.Int 1) 2;
       ])

let test_stale_read_rejected () =
  Alcotest.(check bool) "read of old value after write rejected" false
    (check_reg
       [
         inv ~op:"WRITE" ~args:[| Nvm.Value.Int 1 |] 1;
         res ~op:"WRITE" ~ret:Nvm.Value.ack 1;
         inv ~op:"READ" 2;
         res ~op:"READ" ~ret:Nvm.Value.Null 2;
       ])

let test_concurrent_write_read_both_values_ok () =
  (* read concurrent with a write may return old or new value *)
  let h ret =
    [
      inv ~pid:0 ~op:"WRITE" ~args:[| Nvm.Value.Int 1 |] 1;
      inv ~pid:1 ~op:"READ" 2;
      res ~pid:1 ~op:"READ" ~ret 2;
      res ~pid:0 ~op:"WRITE" ~ret:Nvm.Value.ack 1;
    ]
  in
  Alcotest.(check bool) "new value ok" true (check_reg (h (Nvm.Value.Int 1)));
  Alcotest.(check bool) "old value ok" true (check_reg (h Nvm.Value.Null))

let test_pending_write_may_take_effect () =
  (* a write that never responds may still be linearized (completion) *)
  Alcotest.(check bool) "pending write explains read" true
    (check_reg
       [
         inv ~pid:0 ~op:"WRITE" ~args:[| Nvm.Value.Int 1 |] 1;
         inv ~pid:1 ~op:"READ" 2;
         res ~pid:1 ~op:"READ" ~ret:(Nvm.Value.Int 1) 2;
       ])

let test_pending_write_may_be_dropped () =
  Alcotest.(check bool) "pending write may not take effect" true
    (check_reg
       [
         inv ~pid:0 ~op:"WRITE" ~args:[| Nvm.Value.Int 1 |] 1;
         inv ~pid:1 ~op:"READ" 2;
         res ~pid:1 ~op:"READ" ~ret:Nvm.Value.Null 2;
       ])

let test_new_old_new_inversion_rejected () =
  (* reads by one process observing new then old value: classic violation *)
  Alcotest.(check bool) "value inversion rejected" false
    (check_reg
       [
         inv ~pid:0 ~op:"WRITE" ~args:[| Nvm.Value.Int 1 |] 1;
         res ~pid:0 ~op:"WRITE" ~ret:Nvm.Value.ack 1;
         inv ~pid:1 ~op:"READ" 2;
         res ~pid:1 ~op:"READ" ~ret:(Nvm.Value.Int 1) 2;
         inv ~pid:1 ~op:"READ" 3;
         res ~pid:1 ~op:"READ" ~ret:Nvm.Value.Null 3;
       ])

let check_tas h = lin (Checker.check_object ~spec:(Spec.tas ()) ~nprocs:2 (History.of_list h))

let test_tas_single_winner () =
  Alcotest.(check bool) "0 then 1 ok" true
    (check_tas
       [
         inv ~pid:0 ~op:"T&S" 1;
         res ~pid:0 ~op:"T&S" ~ret:(Nvm.Value.Int 0) 1;
         inv ~pid:1 ~op:"T&S" 2;
         res ~pid:1 ~op:"T&S" ~ret:(Nvm.Value.Int 1) 2;
       ]);
  Alcotest.(check bool) "two winners rejected" false
    (check_tas
       [
         inv ~pid:0 ~op:"T&S" 1;
         res ~pid:0 ~op:"T&S" ~ret:(Nvm.Value.Int 0) 1;
         inv ~pid:1 ~op:"T&S" 2;
         res ~pid:1 ~op:"T&S" ~ret:(Nvm.Value.Int 0) 2;
       ]);
  Alcotest.(check bool) "no winner rejected" false
    (check_tas
       [
         inv ~pid:0 ~op:"T&S" 1;
         res ~pid:0 ~op:"T&S" ~ret:(Nvm.Value.Int 1) 1;
         inv ~pid:1 ~op:"T&S" 2;
         res ~pid:1 ~op:"T&S" ~ret:(Nvm.Value.Int 1) 2;
       ])

let check_counter h =
  lin (Checker.check_object ~spec:(Spec.counter ()) ~nprocs:2 (History.of_list h))

let test_counter_spec () =
  Alcotest.(check bool) "inc, read 1" true
    (check_counter
       [
         inv ~op:"INC" 1;
         res ~op:"INC" ~ret:Nvm.Value.ack 1;
         inv ~op:"READ" 2;
         res ~op:"READ" ~ret:(Nvm.Value.Int 1) 2;
       ]);
  Alcotest.(check bool) "inc, read 2 rejected" false
    (check_counter
       [
         inv ~op:"INC" 1;
         res ~op:"INC" ~ret:Nvm.Value.ack 1;
         inv ~op:"READ" 2;
         res ~op:"READ" ~ret:(Nvm.Value.Int 2) 2;
       ])

let test_cas_spec_transitions () =
  let s = (Spec.cas ()).Spec.initial ~nprocs:2 in
  (match s.Spec.apply ~pid:0 ~op:"CAS" ~args:[| Nvm.Value.Null; Nvm.Value.Int 1 |] with
  | [ (Nvm.Value.Bool true, s') ] -> (
    match s'.Spec.apply ~pid:1 ~op:"CAS" ~args:[| Nvm.Value.Null; Nvm.Value.Int 2 |] with
    | [ (Nvm.Value.Bool false, _) ] -> ()
    | _ -> Alcotest.fail "second CAS from stale old should fail")
  | _ -> Alcotest.fail "first CAS should succeed");
  match s.Spec.apply ~pid:0 ~op:"READ" ~args:[||] with
  | [ (Nvm.Value.Null, _) ] -> ()
  | _ -> Alcotest.fail "READ of initial value"

let test_max_register_spec () =
  let s = (Spec.max_register ()).Spec.initial ~nprocs:2 in
  match s.Spec.apply ~pid:0 ~op:"WRITE_MAX" ~args:[| Nvm.Value.Int 5 |] with
  | [ (_, s') ] -> (
    match s'.Spec.apply ~pid:0 ~op:"WRITE_MAX" ~args:[| Nvm.Value.Int 3 |] with
    | [ (_, s'') ] -> (
      match s''.Spec.apply ~pid:0 ~op:"READ" ~args:[||] with
      | [ (Nvm.Value.Int 5, _) ] -> ()
      | _ -> Alcotest.fail "max should be 5")
    | _ -> Alcotest.fail "write_max 3")
  | _ -> Alcotest.fail "write_max 5"

let test_nrl_rejects_malformed () =
  (* recovery step without crash: fails recoverable well-formedness *)
  let h =
    History.of_list [ inv ~op:"READ" 1; History.Step.Rec { pid = 0 }; res ~op:"READ" ~ret:Nvm.Value.Null 1 ]
  in
  let r = Nrl.check ~spec_for:(fun _ -> Some (Spec.register ())) ~nprocs:1 h in
  Alcotest.(check bool) "rejected" false (Nrl.ok r)

let test_strictness_detection () =
  let h =
    History.of_list
      [
        inv ~op:"READ" 1;
        History.Step.Res
          { pid = 0; opref = opref 0 "READ"; ret = Nvm.Value.Int 0; call_id = 1; persisted = Some false };
      ]
  in
  Alcotest.(check int) "one strictness violation" 1 (List.length (Nrl.strictness_violations h))

(* {2 Brute-force oracle comparison}

   Generate small random register histories (2 processes, <= 5 ops, random
   values from a tiny domain so collisions and violations are common) and
   compare the checker's verdict with an exhaustive enumeration of
   linearization orders. *)

type bop = {
  b_pid : int;
  b_op : string;
  b_arg : int option;
  b_ret : Nvm.Value.t option;  (* None = pending *)
  b_inv : int;
  b_res : int;  (* max_int if pending *)
}

let brute_force_linearizable ops =
  let n = List.length ops in
  let arr = Array.of_list ops in
  (* choose a subset of pending ops to include, a permutation of included
     ops, check real-time order + register semantics *)
  let rec perms = function
    | [] -> [ [] ]
    | l -> List.concat_map (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( != ) x) l))) l
  in
  let indices = List.init n Fun.id in
  let completed, pending = List.partition (fun i -> arr.(i).b_ret <> None) indices in
  let rec subsets = function
    | [] -> [ [] ]
    | x :: tl ->
      let s = subsets tl in
      s @ List.map (fun ss -> x :: ss) s
  in
  List.exists
    (fun pending_subset ->
      let included = completed @ pending_subset in
      List.exists
        (fun order ->
          (* real-time: if a.res < b.inv then a before b in order *)
          let pos = Hashtbl.create 8 in
          List.iteri (fun k i -> Hashtbl.replace pos i k) order;
          let respects =
            List.for_all
              (fun a ->
                List.for_all
                  (fun b ->
                    a = b
                    || arr.(a).b_res >= arr.(b).b_inv
                    || Hashtbl.find pos a < Hashtbl.find pos b)
                  included)
              included
          in
          respects
          &&
          (* replay register semantics *)
          let state = ref Nvm.Value.Null in
          List.for_all
            (fun i ->
              let o = arr.(i) in
              match o.b_op, o.b_arg with
              | "WRITE", Some v ->
                state := Nvm.Value.Int v;
                (match o.b_ret with
                | None -> true
                | Some r -> Nvm.Value.equal r Nvm.Value.ack)
              | "READ", _ -> (
                match o.b_ret with
                | None -> true
                | Some r -> Nvm.Value.equal r !state)
              | _ -> false)
            order)
        (perms included))
    (subsets pending)

let history_of_bops ops =
  (* events sorted by time; ties broken inv-before-res deterministically *)
  let events =
    List.concat_map
      (fun (i, o) ->
        let args =
          match o.b_arg with Some v -> [| Nvm.Value.Int v |] | None -> [||]
        in
        let iv = (o.b_inv, 0, inv ~pid:o.b_pid ~op:o.b_op ~args i) in
        match o.b_ret with
        | Some r -> [ iv; (o.b_res, 1, res ~pid:o.b_pid ~op:o.b_op ~ret:r i) ]
        | None -> [ iv ])
      (List.mapi (fun i o -> (i, o)) ops)
  in
  History.of_list
    (List.map (fun (_, _, s) -> s)
       (List.sort (fun (t1, k1, _) (t2, k2, _) -> compare (t1, k1) (t2, k2)) events))

let bops_gen =
  let open QCheck2.Gen in
  let op_gen pid slot =
    let* is_write = bool in
    let* arg = int_range 1 3 in
    let* ret_kind = int_range 0 3 in
    let* len = int_range 1 4 in
    let b_inv = slot * 3 in
    let b_res = b_inv + len in
    return
      (if is_write then
         {
           b_pid = pid;
           b_op = "WRITE";
           b_arg = Some arg;
           b_ret = (if ret_kind = 0 then None else Some Nvm.Value.ack);
           b_inv;
           b_res = (if ret_kind = 0 then max_int else b_res);
         }
       else
         {
           b_pid = pid;
           b_op = "READ";
           b_arg = None;
           b_ret =
             (match ret_kind with
             | 0 -> None
             | 1 -> Some Nvm.Value.Null
             | k -> Some (Nvm.Value.Int (k - 1)));
           b_inv;
           b_res = (if ret_kind = 0 then max_int else b_res);
         })
  in
  let* n0 = int_range 1 3 in
  let* n1 = int_range 1 2 in
  let* ops0 =
    flatten_l (List.init n0 (fun s -> op_gen 0 s))
  in
  let* ops1 = flatten_l (List.init n1 (fun s -> op_gen 1 s)) in
  (* per-process sequential: make invocations follow previous responses *)
  let seq ops =
    let rec fix t = function
      | [] -> []
      | o :: tl ->
        let b_inv = max o.b_inv t in
        let b_res = if o.b_ret = None then max_int else b_inv + max 1 (o.b_res - o.b_inv) in
        let o = { o with b_inv; b_res } in
        o :: fix (if b_res = max_int then b_inv + 100 else b_res) tl
    in
    fix 0 ops
  in
  (* at most one pending op per process: drop ops after a pending one *)
  let truncate ops =
    let rec go = function
      | [] -> []
      | o :: _ when o.b_ret = None -> [ o ]
      | o :: tl -> o :: go tl
    in
    go ops
  in
  return (truncate (seq ops0) @ truncate (seq ops1))

let prop_checker_matches_bruteforce =
  QCheck2.Test.make ~name:"WGL checker agrees with brute force on register histories"
    ~count:400 bops_gen (fun ops ->
      let h = history_of_bops ops in
      let expected = brute_force_linearizable ops in
      let got =
        lin (Checker.check_object ~spec:(Spec.register ()) ~nprocs:2 h)
      in
      expected = got)

(* the structural (bitset-words, spec-state) memo key must not change any
   verdict: cross-check the memoised search against the memo-free one *)
let prop_memo_verdicts_identical =
  QCheck2.Test.make ~name:"structural memo key: memoised = unmemoised verdicts" ~count:400
    bops_gen (fun ops ->
      let h = history_of_bops ops in
      lin (Checker.check_object ~spec:(Spec.register ()) ~nprocs:2 h)
      = lin (Checker.check_object ~memo:false ~spec:(Spec.register ()) ~nprocs:2 h))

let test_memo_verdicts_on_hand_histories () =
  let agree ~spec h =
    let h = History.of_list h in
    Alcotest.(check bool) "memoised = unmemoised"
      (lin (Checker.check_object ~memo:false ~spec ~nprocs:2 h))
      (lin (Checker.check_object ~spec ~nprocs:2 h))
  in
  let reg = Spec.register () in
  agree ~spec:reg [];
  agree ~spec:reg
    [
      inv ~op:"WRITE" ~args:[| Nvm.Value.Int 1 |] 1;
      res ~op:"WRITE" ~ret:Nvm.Value.ack 1;
      inv ~op:"READ" 2;
      res ~op:"READ" ~ret:(Nvm.Value.Int 1) 2;
    ];
  agree ~spec:reg
    [
      inv ~pid:0 ~op:"WRITE" ~args:[| Nvm.Value.Int 1 |] 1;
      res ~pid:0 ~op:"WRITE" ~ret:Nvm.Value.ack 1;
      inv ~pid:1 ~op:"READ" 2;
      res ~pid:1 ~op:"READ" ~ret:(Nvm.Value.Int 1) 2;
      inv ~pid:1 ~op:"READ" 3;
      res ~pid:1 ~op:"READ" ~ret:Nvm.Value.Null 3;
    ];
  agree ~spec:(Spec.tas ())
    [
      inv ~pid:0 ~op:"T&S" 1;
      res ~pid:0 ~op:"T&S" ~ret:(Nvm.Value.Int 0) 1;
      inv ~pid:1 ~op:"T&S" 2;
      res ~pid:1 ~op:"T&S" ~ret:(Nvm.Value.Int 0) 2;
    ];
  agree ~spec:(Spec.counter ())
    [
      inv ~op:"INC" 1;
      res ~op:"INC" ~ret:Nvm.Value.ack 1;
      inv ~op:"READ" 2;
      res ~op:"READ" ~ret:(Nvm.Value.Int 1) 2;
    ]

(* {2 Model-based spec properties: replay random op sequences against
   plain OCaml reference structures} *)

let spec_vs_model ~spec ~model_init ~model_apply ops =
  let rec go st model = function
    | [] -> true
    | (op, args) :: tl -> (
      match st.Spec.apply ~pid:0 ~op ~args with
      | [ (ret, st') ] -> (
        match model_apply model op args with
        | Some (mret, model') -> Nvm.Value.equal ret mret && go st' model' tl
        | None -> false)
      | _ -> false)
  in
  go (spec.Spec.initial ~nprocs:1) model_init ops

let stack_model_apply l op args =
  match op, l with
  | "PUSH", _ -> Some (Nvm.Value.ack, args.(0) :: l)
  | "POP", [] -> Some (Nvm.Value.Str "empty", [])
  | "POP", h :: t -> Some (h, t)
  | "PEEK", [] -> Some (Nvm.Value.Str "empty", l)
  | "PEEK", h :: _ -> Some (h, l)
  | _ -> None

let queue_model_apply l op args =
  match op, l with
  | "ENQ", _ -> Some (Nvm.Value.ack, l @ [ args.(0) ])
  | "DEQ", [] -> Some (Nvm.Value.Str "empty", [])
  | "DEQ", h :: t -> Some (h, t)
  | "FRONT", [] -> Some (Nvm.Value.Str "empty", l)
  | "FRONT", h :: _ -> Some (h, l)
  | _ -> None

let container_ops_gen names =
  QCheck2.Gen.(
    list_size (int_range 1 25)
      (let* k = int_range 0 (List.length names - 1) in
       let* v = int_range 1 9 in
       let op = List.nth names k in
       return (op, if op = "PUSH" || op = "ENQ" then [| Nvm.Value.Int v |] else [||])))

let prop_stack_spec_model =
  QCheck2.Test.make ~name:"stack spec matches list model" ~count:200
    (container_ops_gen [ "PUSH"; "POP"; "PEEK" ])
    (fun ops ->
      spec_vs_model ~spec:(Spec.stack ()) ~model_init:[] ~model_apply:stack_model_apply ops)

let prop_queue_spec_model =
  QCheck2.Test.make ~name:"queue spec matches list model" ~count:200
    (container_ops_gen [ "ENQ"; "DEQ"; "FRONT" ])
    (fun ops ->
      spec_vs_model ~spec:(Spec.queue ()) ~model_init:[] ~model_apply:queue_model_apply ops)

let prop_counter_spec_model =
  QCheck2.Test.make ~name:"counter spec matches int model" ~count:200
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 25)
       (QCheck2.Gen.map (fun b -> ((if b then "INC" else "READ"), [||])) QCheck2.Gen.bool))
    (fun ops ->
      spec_vs_model ~spec:(Spec.counter ()) ~model_init:0
        ~model_apply:(fun n op _ ->
          match op with
          | "INC" -> Some (Nvm.Value.ack, n + 1)
          | "READ" -> Some (Nvm.Value.Int n, n)
          | _ -> None)
        ops)

let test_slot_allocator_nondet () =
  let spec = Spec.slot_allocator ~k:3 () in
  let st = spec.Spec.initial ~nprocs:2 in
  match st.Spec.apply ~pid:0 ~op:"ELECT" ~args:[||] with
  | outcomes ->
    Alcotest.(check int) "three possible slots initially" 3 (List.length outcomes);
    (* electing from a state where slot 0 is taken leaves two choices *)
    let _, st' = List.hd outcomes in
    Alcotest.(check int) "two choices next" 2
      (List.length (st'.Spec.apply ~pid:1 ~op:"ELECT" ~args:[||]))

(* checker vs the machine: histories the simulator produces for the
   counter must check out; the same history with a READ response bumped
   beyond the number of INCs must be rejected *)
let prop_checker_on_machine_histories =
  QCheck2.Test.make ~name:"checker accepts machine histories, rejects corrupted ones"
    ~count:40 (QCheck2.Gen.int_range 1 100_000) (fun seed ->
      let scen = Workload.Scenarios.counter ~nprocs:2 ~ops:4 ~inc_ratio:0.6 () in
      let sim, r = Workload.Trial.run ~seed ~crash_prob:0.05 scen in
      if not r.Workload.Trial.nrl_ok then false
      else begin
        let h = History.n_of (Machine.Sim.history sim) in
        let events =
          History.filter
            (function
              | History.Step.Inv { opref = { History.Step.obj = o; _ }; _ }
              | History.Step.Res { opref = { History.Step.obj = o; _ }; _ } ->
                (* the counter is the last-registered object of the scenario *)
                o = List.fold_left max 0 (History.objects h)
              | _ -> false)
            h
        in
        let corrupt =
          Array.map
            (function
              | History.Step.Res ({ opref = { History.Step.op = "READ"; _ }; _ } as r) ->
                History.Step.Res { r with ret = Nvm.Value.Int 999 }
              | s -> s)
            events
        in
        let had_read =
          Array.exists
            (function
              | History.Step.Res { opref = { History.Step.op = "READ"; _ }; _ } -> true
              | _ -> false)
            events
        in
        let verdict h = lin (Checker.check_object ~spec:(Spec.counter ()) ~nprocs:2 h) in
        verdict events && ((not had_read) || not (verdict corrupt))
      end)

(* {2 Long machine histories}

   The checker scans a window of each search node's operations rather
   than all of them.  These tests run it on 3 x 64 histories against the
   independently built incremental automaton, and pin its search order on
   one stack history. *)

let counter_value reg name =
  match Obs.Metrics.view reg name with Some (Obs.Metrics.Counter n) -> n | _ -> 0

let bump_ret = function
  | Nvm.Value.Int v -> Nvm.Value.Int (v + 1)
  | Nvm.Value.Bool b -> Nvm.Value.Bool (not b)
  | _ -> Nvm.Value.Int 999

(* [h] with the response at position [i] changed to a different value *)
let bump_response (h : History.t) i =
  let h = Array.copy h in
  (match h.(i) with
  | History.Step.Res r -> h.(i) <- History.Step.Res { r with ret = bump_ret r.ret }
  | _ -> invalid_arg "bump_response: not a response step");
  h

let response_positions (h : History.t) =
  List.filter
    (fun i -> match h.(i) with History.Step.Res _ -> true | _ -> false)
    (List.init (Array.length h) Fun.id)

let long_scenarios =
  let nprocs = 3 and ops = 64 in
  Workload.Scenarios.
    [|
      register ~nprocs ~ops ();
      cas ~nprocs ~ops ();
      counter ~nprocs ~ops ();
      faa ~nprocs ~ops ();
      stack ~nprocs ~ops ();
    |]

(* Histories are cut at a random point: a cut leaves operations pending
   below completed ones (the never-responding operations the window has
   to visit first), which full machine runs, where every crashed process
   recovers, never do. *)
let prop_nrl_matches_incremental_on_long_histories =
  QCheck2.Test.make
    ~name:"Nrl.check = Nrl.Incremental on cut 3x64 machine histories, clean and corrupted"
    ~count:30
    QCheck2.Gen.(
      quad
        (int_range 0 (Array.length long_scenarios - 1))
        (int_range 1 100_000) (int_range 50 100) (int_range 0 1_000_000))
    (fun (k, seed, cut_pct, pick) ->
      let sim, _ = Workload.Trial.run ~seed ~crash_prob:0.02 long_scenarios.(k) in
      let full = Machine.Sim.history sim in
      let h = Array.sub full 0 (Array.length full * cut_pct / 100) in
      let spec_for = Workload.Check.spec_for sim and nprocs = 3 in
      let nrl h = Nrl.ok (Nrl.check ~spec_for ~nprocs h) in
      let incremental h =
        Nrl.Incremental.(violation (steps (create ~spec_for ~nprocs) (History.to_list h)))
        = None
      in
      let corrupt =
        match response_positions h with
        | [] -> h
        | l -> bump_response h (List.nth l (pick mod List.length l))
      in
      nrl h && incremental h && nrl corrupt = incremental corrupt)

(* The transition memo: folding one event twice into one automaton state
   reaches the physically same object state, counts a replayed closure
   without computing it, and judges the step exactly as a fresh
   automaton does (which computes every closure).  Checked at every
   invocation and response of a nested counter run with crashes, and at
   every response again with its value corrupted. *)
let test_incremental_memo_shares_successors () =
  let sim, _ =
    Workload.Trial.run ~seed:5 ~crash_prob:0.05 (Workload.Scenarios.counter ~nprocs:2 ~ops:2 ())
  in
  let spec_for = Workload.Check.spec_for sim and nprocs = 2 in
  let fold prefix = Nrl.Incremental.(steps (create ~spec_for ~nprocs) prefix) in
  let check_at h i =
    let prefix = Array.to_list (Array.sub h 0 i) and s = h.(i) in
    let obj, is_res =
      match s with
      | History.Step.Inv { opref; _ } -> (opref.History.Step.obj, false)
      | History.Step.Res { opref; _ } -> (opref.History.Step.obj, true)
      | History.Step.Crash _ | History.Step.Rec _ -> assert false
    in
    let st = fold prefix in
    let a = Nrl.Incremental.step st s in
    let reg = Obs.Metrics.create () in
    let b = Nrl.Incremental.step ~obs:reg st s in
    let at = Printf.sprintf "step %d" i in
    Alcotest.(check bool) (at ^ ": shared successor") true
      (Nrl.Incremental.shares_object_state a b obj);
    Alcotest.(check int) (at ^ ": replayed, not computed") 0
      (counter_value reg Obs.Names.nrl_inc_closures);
    Alcotest.(check int) (at ^ ": still counted as a transition")
      (if is_res then 1 else 0)
      (counter_value reg Obs.Names.nrl_inc_res_transitions);
    let fresh = Nrl.Incremental.violation (fold (prefix @ [ s ])) in
    Alcotest.(check (option string)) (at ^ ": verdict of a fresh automaton") fresh
      (Nrl.Incremental.violation b);
    fresh
  in
  let h = Machine.Sim.history sim in
  Alcotest.(check bool) "the run crashed" true
    (Array.exists (function History.Step.Crash _ -> true | _ -> false) h);
  Array.iteri
    (fun i s ->
      match s with
      | History.Step.Inv _ | History.Step.Res _ ->
        Alcotest.(check (option string)) "clean run" None (check_at h i)
      | History.Step.Crash _ | History.Step.Rec _ -> ())
    h;
  let caught =
    List.filter (fun i -> check_at (bump_response h i) i <> None) (response_positions h)
  in
  Alcotest.(check bool) "some corrupted response is rejected" true (caught <> [])

(* The stack object's own steps in N(H) of one seeded 3 x 8 run. *)
let pinned_stack_history () =
  let sim, _ =
    Workload.Trial.run ~seed:3 ~crash_prob:0.05 (Workload.Scenarios.stack ~nprocs:3 ~ops:8 ())
  in
  History.filter
    (function
      | History.Step.Inv { opref; _ } | History.Step.Res { opref; _ } ->
        opref.History.Step.obj_name = "S"
      | History.Step.Crash _ | History.Step.Rec _ -> false)
    (History.n_of (Machine.Sim.history sim))

(* Verdict, witness and memo counts were recorded with the checker that
   scanned every operation at every node; the windowed scan must visit
   the same nodes in the same order. *)
let test_search_order_pinned () =
  let run h =
    let reg = Obs.Metrics.create () in
    let v = Checker.check_object ~obs:reg ~spec:(Spec.stack ()) ~nprocs:3 h in
    ( Fmt.str "%a" Checker.pp_verdict v,
      counter_value reg Obs.Names.checker_memo_hits,
      counter_value reg Obs.Names.checker_memo_misses )
  in
  let check what h (verdict, hits, misses) =
    let verdict', hits', misses' = run h in
    Alcotest.(check string) (what ^ ": verdict") verdict verdict';
    Alcotest.(check int) (what ^ ": memo hits") hits hits';
    Alcotest.(check int) (what ^ ": memo misses") misses misses'
  in
  let h = pinned_stack_history () in
  Alcotest.(check int) "history length" 48 (Array.length h);
  check "clean" h
    ( "linearizable: p1:PEEK->\"empty\" p0:PEEK->\"empty\" p1:PEEK->\"empty\" \
       p0:POP->\"empty\" p1:PEEK->\"empty\" p1:PUSH->\"ack\" p0:PUSH->\"ack\" \
       p1:PEEK-><p0,3> p0:PEEK-><p0,3> p2:PUSH->\"ack\" p0:PUSH->\"ack\" \
       p1:PUSH->\"ack\" p2:PUSH->\"ack\" p0:POP-><p2,2> p1:PUSH->\"ack\" \
       p1:PEEK-><p1,7> p2:POP-><p1,7> p2:POP-><p1,6> p0:PEEK-><p0,5> \
       p2:PUSH->\"ack\" p0:POP-><p2,5> p2:POP-><p0,5> p2:POP-><p2,1> \
       p2:POP-><p0,3>",
      16,
      185 );
  (* the first 36 steps leave p0's POP #44 pending below completed ops *)
  check "prefix" (Array.sub h 0 36)
    ( "linearizable: p1:PEEK->\"empty\" p0:PEEK->\"empty\" p1:PEEK->\"empty\" \
       p0:POP->\"empty\" p1:PEEK->\"empty\" p2:PUSH->\"ack\" p1:PUSH->\"ack\" \
       p0:PUSH->\"ack\" p1:PEEK-><p0,3> p0:PEEK-><p0,3> p0:PUSH->\"ack\" \
       p1:PUSH->\"ack\" p2:PUSH->\"ack\" p0:POP-><p2,2> p1:PUSH->\"ack\" \
       p1:PEEK-><p1,7> p2:POP-><p1,7> p2:POP-><p1,6>",
      5,
      50 );
  check "corrupted" (bump_response h 27)
    ("NOT linearizable: no legal linearization (best: 13 of 24 completed ops ordered)", 6, 63)

(* {2 Pending operations that must be dropped}

   Definition 2's completions allow a pending operation to be completed
   with some legal response *or* removed.  Every built-in specification
   is total (any operation is legal in any state), so only completion is
   ever exercised by the scenario tests; a one-shot gate — FIRE succeeds
   exactly once, and nothing is legal afterwards — makes dropping the
   only way to linearize. *)

let gate_spec () =
  let spent =
    { Spec.apply = (fun ~pid:_ ~op:_ ~args:_ -> []); repr = Nvm.Value.Int 1 }
  in
  let armed =
    {
      Spec.apply =
        (fun ~pid:_ ~op ~args:_ ->
          match op with "FIRE" -> [ (Nvm.Value.ack, spent) ] | _ -> []);
      repr = Nvm.Value.Int 0;
    }
  in
  { Spec.spec_name = "one-shot gate"; initial = (fun ~nprocs:_ -> armed) }

let check_gate ~memo h =
  lin (Checker.check_object ~memo ~spec:(gate_spec ()) ~nprocs:2 (History.of_list h))

let test_pending_op_must_be_dropped () =
  (* p1's FIRE never responds and can be appended nowhere (the gate is
     spent by p0's completed FIRE): the checker must drop it, with and
     without memoisation *)
  let h =
    [
      inv ~pid:0 ~op:"FIRE" 1;
      res ~pid:0 ~op:"FIRE" ~ret:Nvm.Value.ack 1;
      inv ~pid:1 ~op:"FIRE" 2;
    ]
  in
  Alcotest.(check bool) "dropped, memoised" true (check_gate ~memo:true h);
  Alcotest.(check bool) "dropped, unmemoised" true (check_gate ~memo:false h);
  (* sanity: the same history with p1's FIRE completed is rejected *)
  Alcotest.(check bool) "two completed fires rejected" false
    (check_gate ~memo:true (h @ [ res ~pid:1 ~op:"FIRE" ~ret:Nvm.Value.ack 2 ]))

let test_pending_op_dropped_after_speculation () =
  (* p1's pending FIRE is invoked *before* p0's, so the search may
     speculatively linearize it first — which strands p0's completed
     FIRE.  It must backtrack to the drop branch, not fail. *)
  let h =
    [
      inv ~pid:1 ~op:"FIRE" 2;
      inv ~pid:0 ~op:"FIRE" 1;
      res ~pid:0 ~op:"FIRE" ~ret:Nvm.Value.ack 1;
    ]
  in
  Alcotest.(check bool) "backtracks to dropping, memoised" true (check_gate ~memo:true h);
  Alcotest.(check bool) "backtracks to dropping, unmemoised" true
    (check_gate ~memo:false h)

let test_two_pendings_one_droppable () =
  (* two pending FIREs, no completed one: linearizable only because the
     checker may complete one and drop the other (completing both is
     illegal) *)
  let h = [ inv ~pid:0 ~op:"FIRE" 1; inv ~pid:1 ~op:"FIRE" 2 ] in
  Alcotest.(check bool) "one completed, one dropped" true (check_gate ~memo:true h);
  Alcotest.(check bool) "one completed, one dropped (unmemoised)" true
    (check_gate ~memo:false h)

let suite =
  [
    Alcotest.test_case "empty history" `Quick test_empty_history;
    Alcotest.test_case "sequential write/read" `Quick test_sequential_rw;
    Alcotest.test_case "stale read rejected" `Quick test_stale_read_rejected;
    Alcotest.test_case "concurrent write/read" `Quick test_concurrent_write_read_both_values_ok;
    Alcotest.test_case "pending write takes effect" `Quick test_pending_write_may_take_effect;
    Alcotest.test_case "pending write dropped" `Quick test_pending_write_may_be_dropped;
    Alcotest.test_case "value inversion rejected" `Quick test_new_old_new_inversion_rejected;
    Alcotest.test_case "tas winner uniqueness" `Quick test_tas_single_winner;
    Alcotest.test_case "counter spec" `Quick test_counter_spec;
    Alcotest.test_case "cas spec transitions" `Quick test_cas_spec_transitions;
    Alcotest.test_case "max register spec" `Quick test_max_register_spec;
    Alcotest.test_case "nrl rejects malformed" `Quick test_nrl_rejects_malformed;
    Alcotest.test_case "strictness detection" `Quick test_strictness_detection;
    Alcotest.test_case "slot allocator spec nondeterminism" `Quick test_slot_allocator_nondet;
    Alcotest.test_case "memo key: identical verdicts (hand histories)" `Quick
      test_memo_verdicts_on_hand_histories;
    Alcotest.test_case "pending op must be dropped" `Quick test_pending_op_must_be_dropped;
    Alcotest.test_case "drop after failed speculation" `Quick
      test_pending_op_dropped_after_speculation;
    Alcotest.test_case "two pendings, one droppable" `Quick test_two_pendings_one_droppable;
    Alcotest.test_case "search order pinned (stack 3x8, seed 3)" `Quick test_search_order_pinned;
    QCheck_alcotest.to_alcotest prop_checker_matches_bruteforce;
    QCheck_alcotest.to_alcotest prop_memo_verdicts_identical;
    QCheck_alcotest.to_alcotest prop_stack_spec_model;
    QCheck_alcotest.to_alcotest prop_queue_spec_model;
    QCheck_alcotest.to_alcotest prop_counter_spec_model;
    QCheck_alcotest.to_alcotest prop_checker_on_machine_histories;
    QCheck_alcotest.to_alcotest prop_nrl_matches_incremental_on_long_histories;
    Alcotest.test_case "incremental: memoised successors shared, verdicts unchanged" `Quick
      test_incremental_memo_shares_successors;
  ]
