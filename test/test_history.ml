(* Tests for histories, subhistories and (recoverable) well-formedness,
   built from hand-crafted step sequences. *)

open History

let opref obj op : Step.opref = { Step.obj; obj_name = Printf.sprintf "o%d" obj; op }

let inv ?(pid = 0) ?(obj = 0) ?(op = "OP") id =
  Step.Inv { pid; opref = opref obj op; args = [||]; call_id = id }

let res ?(pid = 0) ?(obj = 0) ?(op = "OP") ?(ret = Nvm.Value.ack) ?persisted id =
  Step.Res { pid; opref = opref obj op; ret; call_id = id; persisted }

let crash ?(pid = 0) ?crashed () =
  Step.Crash { pid; crashed = Option.map (fun (obj, id) -> (opref obj "OP", id)) crashed }

let rec_ ?(pid = 0) () = Step.Rec { pid }

let wf_ok r = Alcotest.(check bool) "well-formed" true (Wellformed.is_ok r)
let wf_bad r = Alcotest.(check bool) "violation detected" false (Wellformed.is_ok r)

let test_n_of_removes_crashes () =
  let h = of_list [ inv 1; crash ~crashed:(0, 1) (); rec_ (); res 1 ] in
  Alcotest.(check int) "N(H) length" 2 (length (n_of h));
  Alcotest.(check bool) "crash-free" true (is_crash_free (n_of h));
  Alcotest.(check bool) "original not crash-free" false (is_crash_free h)

let test_by_proc () =
  let h = of_list [ inv ~pid:0 1; inv ~pid:1 2; res ~pid:1 2; res ~pid:0 1 ] in
  Alcotest.(check int) "p0 steps" 2 (length (by_proc h 0));
  Alcotest.(check int) "p1 steps" 2 (length (by_proc h 1))

let test_by_object_includes_matching_crash () =
  (* crash of p0 inside an operation on object 0; its matching recovery
     must be included in H|0 but not in H|1 *)
  let h =
    of_list
      [
        inv ~obj:0 1;
        inv ~pid:1 ~obj:1 2;
        crash ~crashed:(0, 1) ();
        res ~pid:1 ~obj:1 2;
        rec_ ();
        res ~obj:0 1;
      ]
  in
  Alcotest.(check int) "H|0 has inv,crash,rec,res" 4 (length (by_object h 0));
  Alcotest.(check int) "H|1 has inv,res" 2 (length (by_object h 1))

let test_ops_of () =
  let h = of_list [ inv 1; inv ~pid:1 2; res ~pid:1 2; ] in
  let ops = ops_of h in
  Alcotest.(check int) "two ops" 2 (List.length ops);
  let pending = List.filter (fun o -> o.ret = None) ops in
  Alcotest.(check int) "one pending" 1 (List.length pending)

let test_happens_before () =
  let h = of_list [ inv 1; res 1; inv ~pid:1 2; res ~pid:1 2 ] in
  match ops_of h with
  | [ a; b ] ->
    Alcotest.(check bool) "a < b" true (happens_before a b);
    Alcotest.(check bool) "not b < a" false (happens_before b a);
    Alcotest.(check bool) "not concurrent" false (concurrent a b)
  | _ -> Alcotest.fail "expected two ops"

let test_concurrent () =
  let h = of_list [ inv 1; inv ~pid:1 2; res 1; res ~pid:1 2 ] in
  match ops_of h with
  | [ a; b ] -> Alcotest.(check bool) "concurrent" true (concurrent a b)
  | _ -> Alcotest.fail "expected two ops"

let test_wf_accepts_good () =
  wf_ok (Wellformed.check_well_formed (of_list [ inv 1; res 1; inv 2; res 2 ]));
  (* proper nesting on distinct objects *)
  wf_ok
    (Wellformed.check_well_formed
       (of_list [ inv ~obj:0 1; inv ~obj:1 2; res ~obj:1 2; res ~obj:0 1 ]))

let test_wf_rejects_double_invocation () =
  wf_bad (Wellformed.check_well_formed (of_list [ inv ~obj:0 1; inv ~obj:0 2 ]))

let test_wf_rejects_response_without_invocation () =
  wf_bad (Wellformed.check_well_formed (of_list [ res 1 ]))

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_wf_rejects_bad_nesting () =
  (* op2 invoked inside op1 but responds after op1: violates requirement 2 *)
  let r =
    Wellformed.check_well_formed
      (of_list [ inv ~obj:0 1; inv ~obj:1 2; res ~obj:0 1; res ~obj:1 2 ])
  in
  wf_bad r;
  match r with
  | Wellformed.Violation m ->
    Alcotest.(check bool) ("names #1 and #2: " ^ m) true (contains m "#1" && contains m "#2")
  | Wellformed.Ok -> ()

let test_wf_rejects_escape_from_outer () =
  (* op3 is invoked after op2, nested in op1, has closed, and outlives
     op1: the violation is against an operation deeper in the stack *)
  wf_bad
    (Wellformed.check_well_formed
       (of_list
          [ inv ~obj:0 1; inv ~obj:1 2; res ~obj:1 2; inv ~obj:2 3; res ~obj:0 1; res ~obj:2 3 ]))

let test_nesting_exempts_crashed_inner () =
  (* a crash inside the inner op2 leaves it pending for good, while the
     outer op1 later responds; a later op3 nests properly *)
  let h =
    of_list
      [
        inv ~obj:0 1;
        inv ~obj:1 2;
        crash ~crashed:(1, 2) ();
        rec_ ();
        inv ~obj:2 3;
        res ~obj:2 3;
        res ~obj:0 1;
        inv ~obj:0 4;
        res ~obj:0 4;
      ]
  in
  wf_ok (Wellformed.check_recoverable_well_formed h);
  wf_ok (Wellformed.check_well_formed (n_of h));
  wf_ok (Wellformed.check_nesting ~p:0 (n_of h))

(* The one-pass stack check of requirement (2) against the pairwise rule
   on random single-process histories, every operation on its own object
   (so only nesting can fail), some left pending. *)
let nesting_gen =
  QCheck2.Gen.(
    let* k = int_range 1 6 in
    let* pending = list_repeat k bool in
    let* order = shuffle_l (List.concat (List.init k (fun i -> [ i; i ]))) in
    let seen = Array.make k false in
    return
      (List.filter_map
         (fun i ->
           if not seen.(i) then begin
             seen.(i) <- true;
             Some (inv ~obj:i i)
           end
           else if List.nth pending i then None
           else Some (res ~obj:i i))
         order))

let pairwise_nesting_ok h =
  let ops = List.filter (fun (r : op_record) -> r.res_pos <> None) (ops_of h) in
  List.for_all
    (fun (a : op_record) ->
      List.for_all
        (fun (b : op_record) ->
          let r1 = Option.get a.res_pos and r2 = Option.get b.res_pos in
          a.call_id = b.call_id || not (a.inv_pos < b.inv_pos && b.inv_pos < r1 && r2 > r1))
        ops)
    ops

let prop_nesting_matches_pairwise =
  QCheck2.Test.make ~name:"stack nesting check = pairwise rule" ~count:500 nesting_gen
    (fun steps ->
      let h = of_list steps in
      Wellformed.is_ok (Wellformed.check_nesting ~p:0 h) = pairwise_nesting_ok h)

let test_wf_rejects_crashy_history () =
  wf_bad (Wellformed.check_well_formed (of_list [ inv 1; crash ~crashed:(0, 1) () ]))

let test_rwf_accepts_crash_as_last_step () =
  wf_ok
    (Wellformed.check_recoverable_well_formed (of_list [ inv 1; crash ~crashed:(0, 1) () ]))

let test_rwf_accepts_crash_rec_pairs () =
  wf_ok
    (Wellformed.check_recoverable_well_formed
       (of_list [ inv 1; crash ~crashed:(0, 1) (); rec_ (); crash ~crashed:(0, 1) (); rec_ (); res 1 ]))

let test_rwf_rejects_unmatched_crash () =
  (* p0 takes another step after a crash without a recovery step *)
  wf_bad
    (Wellformed.check_recoverable_well_formed
       (of_list [ inv 1; crash ~crashed:(0, 1) (); res 1 ]))

let test_rwf_rejects_rec_without_crash () =
  wf_bad (Wellformed.check_recoverable_well_formed (of_list [ inv 1; rec_ (); res 1 ]))

(* Lemma 1: every history the machine produces is recoverable well-formed.
   Property-tested over random seeds and scenarios. *)
let prop_lemma1 =
  QCheck2.Test.make ~name:"Lemma 1: machine histories are recoverable well-formed"
    ~count:60
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 0 3))
    (fun (seed, which) ->
      let scen =
        match which with
        | 0 -> Workload.Scenarios.register ~nprocs:2 ~ops:4 ()
        | 1 -> Workload.Scenarios.cas ~nprocs:2 ~ops:4 ()
        | 2 -> Workload.Scenarios.tas ~nprocs:3 ()
        | _ -> Workload.Scenarios.counter ~nprocs:2 ~ops:3 ()
      in
      let sim, _ = Workload.Trial.run ~seed ~crash_prob:0.1 ~max_crashes:4 scen in
      Wellformed.is_ok
        (Wellformed.check_recoverable_well_formed (Machine.Sim.history sim)))

let suite =
  [
    Alcotest.test_case "N(H) removes crash/rec" `Quick test_n_of_removes_crashes;
    Alcotest.test_case "H|p" `Quick test_by_proc;
    Alcotest.test_case "H|O includes matching crash+rec" `Quick test_by_object_includes_matching_crash;
    Alcotest.test_case "ops_of" `Quick test_ops_of;
    Alcotest.test_case "happens-before" `Quick test_happens_before;
    Alcotest.test_case "concurrency" `Quick test_concurrent;
    Alcotest.test_case "well-formed accepted" `Quick test_wf_accepts_good;
    Alcotest.test_case "double invocation rejected" `Quick test_wf_rejects_double_invocation;
    Alcotest.test_case "response w/o invocation rejected" `Quick test_wf_rejects_response_without_invocation;
    Alcotest.test_case "bad nesting rejected" `Quick test_wf_rejects_bad_nesting;
    Alcotest.test_case "escape from an outer op rejected" `Quick test_wf_rejects_escape_from_outer;
    Alcotest.test_case "crashed inner op exempt from nesting" `Quick
      test_nesting_exempts_crashed_inner;
    QCheck_alcotest.to_alcotest prop_nesting_matches_pairwise;
    Alcotest.test_case "crashes rejected by crash-free wf" `Quick test_wf_rejects_crashy_history;
    Alcotest.test_case "crash as last step ok (Def 3)" `Quick test_rwf_accepts_crash_as_last_step;
    Alcotest.test_case "repeated crash/rec ok (Def 3)" `Quick test_rwf_accepts_crash_rec_pairs;
    Alcotest.test_case "unmatched crash rejected" `Quick test_rwf_rejects_unmatched_crash;
    Alcotest.test_case "rec without crash rejected" `Quick test_rwf_rejects_rec_without_crash;
    QCheck_alcotest.to_alcotest prop_lemma1;
  ]
