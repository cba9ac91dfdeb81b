(* Tests for the native (Domains + Atomic) extension objects: strict CAS,
   fetch-and-add and the Treiber stack — recovery drills at every crash
   position and genuinely parallel postcondition checks. *)

open Runtime

(* {2 Strict CAS} *)

(* the persisted <seq, ret> of process [pid] *)
let res c pid =
  let r = c.Rscas.res.(Pad.slot pid) in
  (Enc.res_seq r, Enc.res_ret r)

let test_rscas_persists_response () =
  let c = Rscas.create ~nprocs:2 0 in
  Alcotest.(check bool) "cas wins" true (Rscas.cas c ~pid:0 ~old:0 ~new_:1 ~seq:5);
  Alcotest.(check (pair int bool)) "response persisted" (5, true) (res c 0);
  Alcotest.(check bool) "failing cas" false (Rscas.cas c ~pid:1 ~old:0 ~new_:2 ~seq:3);
  Alcotest.(check (pair int bool)) "failure persisted" (3, false) (res c 1)

let test_rscas_recover_from_tag () =
  let c = Rscas.create ~nprocs:2 0 in
  ignore (Rscas.cas c ~pid:0 ~old:0 ~new_:1 ~seq:7);
  (* recovery with the same tag answers from the persisted response, even
     though C has moved on *)
  ignore (Rscas.cas c ~pid:1 ~old:1 ~new_:2 ~seq:1);
  Alcotest.(check bool) "recover sees success" true
    (Rscas.cas_recover c ~pid:0 ~old:0 ~new_:1 ~seq:7)

let test_rscas_recover_crash_positions () =
  (* crash the CAS at every position; recovery must converge to a correct
     verdict and install the value exactly once *)
  for k = 0 to 3 do
    let c = Rscas.create ~nprocs:2 0 in
    let cp = Crash.create () in
    Crash.arm cp k;
    (match Rscas.cas ~cp c ~pid:0 ~old:0 ~new_:1 ~seq:1 with
    | ok -> Alcotest.(check bool) (Printf.sprintf "no crash at %d" k) true ok
    | exception Crash.Crashed ->
      Crash.disarm cp;
      Alcotest.(check bool)
        (Printf.sprintf "recovery verdict at %d" k)
        true
        (Rscas.cas_recover c ~pid:0 ~old:0 ~new_:1 ~seq:1));
    Alcotest.(check int) (Printf.sprintf "value installed once at %d" k) 1 (Rscas.read c)
  done

(* {2 FAA} *)

let test_rfaa_basics () =
  let f = Rfaa.create ~nprocs:2 () in
  Alcotest.(check int) "first faa returns 0" 0 (Rfaa.faa f ~pid:0 5);
  Alcotest.(check int) "second returns 5" 5 (Rfaa.faa f ~pid:1 3);
  Alcotest.(check int) "read" 8 (Rfaa.read f)

let test_rfaa_crash_positions () =
  (* solo FAA crashed at every position, recovered from nothing but its
     arguments: the delta applies exactly once and the response is the
     previous value *)
  for k = 0 to 9 do
    let f = Rfaa.create ~nprocs:1 () in
    ignore (Rfaa.faa f ~pid:0 10) (* value now 10 *);
    let cp = Crash.create () in
    Crash.arm cp k;
    (match Rfaa.faa ~cp f ~pid:0 7 with
    | v -> Alcotest.(check int) (Printf.sprintf "no crash at %d" k) 10 v
    | exception Crash.Crashed ->
      Crash.disarm cp;
      Alcotest.(check int)
        (Printf.sprintf "recovered response at %d" k)
        10
        (Rfaa.recover f ~pid:0 7));
    Alcotest.(check int) (Printf.sprintf "exactly-once at %d" k) 17 (Rfaa.read f)
  done

let test_rfaa_parallel_conservation () =
  let domains = min 4 (Par.max_domains ()) in
  let iters = 2_000 in
  let f = Rfaa.create ~nprocs:domains () in
  let _ = Par.run ~domains ~iters (fun ~pid ~i -> ignore i; ignore (Rfaa.faa f ~pid 1)) in
  Alcotest.(check int) "all deltas applied" (domains * iters) (Rfaa.read f)

(* {2 Stack} *)

let pop s ~pid = Rstack.decode (Rstack.pop s ~pid)

let test_rstack_lifo () =
  let s = Rstack.create ~nprocs:1 () in
  Alcotest.(check bool) "empty pop" true (pop s ~pid:0 = Rstack.Empty);
  ignore (Rstack.push s ~pid:0 1);
  ignore (Rstack.push s ~pid:0 2);
  Alcotest.(check (option int)) "peek" (Some 2) (Rstack.peek s);
  Alcotest.(check bool) "pop 2" true (pop s ~pid:0 = Rstack.Popped 2);
  Alcotest.(check bool) "pop 1" true (pop s ~pid:0 = Rstack.Popped 1);
  Alcotest.(check bool) "empty again" true (pop s ~pid:0 = Rstack.Empty)

let test_rstack_crash_positions () =
  (* PUSH and POP each crashed at every position over a non-empty stack,
     recovered from nothing but their arguments: each applies exactly
     once *)
  let crashed k op recover =
    let cp = Crash.create () in
    Crash.arm cp k;
    Rstack.decode
      (match op cp with
      | r -> r
      | exception Crash.Crashed ->
        Crash.disarm cp;
        recover ())
  in
  for k = 0 to 11 do
    let s = Rstack.create ~nprocs:1 () in
    ignore (Rstack.push s ~pid:0 1);
    let resp =
      crashed k (fun cp -> Rstack.push ~cp s ~pid:0 2) (fun () -> Rstack.push_recover s ~pid:0 2)
    in
    Alcotest.(check bool) (Printf.sprintf "pushed at %d" k) true (resp = Rstack.Pushed);
    Alcotest.(check (option int)) (Printf.sprintf "top after push at %d" k) (Some 2)
      (Rstack.peek s);
    let resp =
      crashed k (fun cp -> Rstack.pop ~cp s ~pid:0) (fun () -> Rstack.pop_recover s ~pid:0)
    in
    Alcotest.(check bool) (Printf.sprintf "popped 2 at %d" k) true (resp = Rstack.Popped 2);
    Alcotest.(check bool) (Printf.sprintf "popped 1 after %d" k) true
      (pop s ~pid:0 = Rstack.Popped 1);
    Alcotest.(check bool)
      (Printf.sprintf "stack empty at %d" k)
      true
      (pop s ~pid:0 = Rstack.Empty)
  done

let test_rstack_parallel_exactly_once () =
  let domains = min 4 (Par.max_domains ()) in
  let per = 300 in
  let s = Rstack.create ~nprocs:domains () in
  let popped = Array.init domains (fun _ -> ref []) in
  let _ =
    Par.run ~domains ~iters:(2 * per) (fun ~pid ~i ->
        if i < per then ignore (Rstack.push s ~pid ((pid * 1_000_000) + i))
        else
          match pop s ~pid with
          | Rstack.Popped v -> popped.(pid) := v :: !(popped.(pid))
          | _ -> ())
  in
  (* drain what is left *)
  let rec drain acc =
    match pop s ~pid:0 with
    | Rstack.Popped v -> drain (v :: acc)
    | _ -> acc
  in
  let leftovers = drain [] in
  let all = leftovers @ List.concat_map (fun r -> !r) (Array.to_list popped) in
  Alcotest.(check int) "every push popped exactly once" (domains * per) (List.length all);
  Alcotest.(check int) "no duplicates" (domains * per)
    (List.length (List.sort_uniq compare all))

let suite =
  [
    Alcotest.test_case "rscas: persists responses" `Quick test_rscas_persists_response;
    Alcotest.test_case "rscas: recover from tag" `Quick test_rscas_recover_from_tag;
    Alcotest.test_case "rscas: crash positions" `Quick test_rscas_recover_crash_positions;
    Alcotest.test_case "rfaa: basics" `Quick test_rfaa_basics;
    Alcotest.test_case "rfaa: crash positions" `Quick test_rfaa_crash_positions;
    Alcotest.test_case "rfaa: parallel conservation" `Slow test_rfaa_parallel_conservation;
    Alcotest.test_case "rstack: LIFO" `Quick test_rstack_lifo;
    Alcotest.test_case "rstack: crash positions" `Quick test_rstack_crash_positions;
    Alcotest.test_case "rstack: parallel exactly-once" `Slow test_rstack_parallel_exactly_once;
  ]
