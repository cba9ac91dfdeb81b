(* Unit and property tests for the NVRAM substrate: values and memory. *)

open Nvm

let value = Alcotest.testable Value.pp Value.equal

let test_value_equal () =
  Alcotest.(check bool) "null = null" true (Value.equal Null Null);
  Alcotest.(check bool) "int 3 = int 3" true (Value.equal (Int 3) (Int 3));
  Alcotest.(check bool) "int <> pid" false (Value.equal (Int 3) (Pid 3));
  Alcotest.(check bool)
    "pairs compare structurally" true
    (Value.equal (Value.pair (Int 1) (Bool true)) (Value.pair (Int 1) (Bool true)));
  Alcotest.(check bool)
    "pairs differ in snd" false
    (Value.equal (Value.pair (Int 1) (Bool true)) (Value.pair (Int 1) (Bool false)))

let test_value_accessors () =
  Alcotest.(check int) "as_int" 7 (Value.as_int (Int 7));
  Alcotest.(check bool) "as_bool" true (Value.as_bool (Bool true));
  Alcotest.(check int) "as_pid" 2 (Value.as_pid (Pid 2));
  Alcotest.check value "fst" (Int 1) (Value.fst (Value.pair (Int 1) (Int 2)));
  Alcotest.check value "snd" (Int 2) (Value.snd (Value.pair (Int 1) (Int 2)));
  Alcotest.check_raises "as_int on bool" (Value.Type_error ("int", Bool true)) (fun () ->
      ignore (Value.as_int (Bool true)))

let test_value_compare_consistent () =
  let vs =
    [ Value.Null; Bool false; Bool true; Int (-1); Int 5; Pid 0; Pid 3; Str "x";
      Value.pair (Int 1) Null; Value.pair Null (Pid 2) ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (Fmt.str "compare/equal agree on %a %a" Value.pp a Value.pp b)
            (Value.equal a b)
            (Value.compare a b = 0);
          if Value.equal a b then
            Alcotest.(check int)
              (Fmt.str "hash agrees on %a" Value.pp a)
              (Value.hash a) (Value.hash b))
        vs)
    vs

let test_alloc_read_write () =
  let m = Memory.create () in
  let a = Memory.alloc ~name:"x" m (Value.Int 0) in
  let b = Memory.alloc m Value.Null in
  Alcotest.check value "initial" (Int 0) (Memory.read m a);
  Memory.write m a (Int 42);
  Alcotest.check value "after write" (Int 42) (Memory.read m a);
  Alcotest.check value "other cell untouched" Null (Memory.read m b);
  Alcotest.(check string) "named" "x" (Memory.name m a);
  Alcotest.(check int) "size" 2 (Memory.size m)

let test_alloc_array () =
  let m = Memory.create () in
  let base = Memory.alloc_array ~name:"A" m 4 (Value.Int 7) in
  for i = 0 to 3 do
    Alcotest.check value (Printf.sprintf "A[%d]" i) (Int 7) (Memory.read m (base + i))
  done;
  Memory.write m (base + 2) (Int 9);
  Alcotest.check value "A[2] updated" (Int 9) (Memory.read m (base + 2));
  Alcotest.check value "A[1] untouched" (Int 7) (Memory.read m (base + 1));
  Alcotest.(check string) "array cell name" "A[3]" (Memory.name m (base + 3))

let test_cas_prim () =
  let m = Memory.create () in
  let a = Memory.alloc m (Value.Int 1) in
  Alcotest.(check bool) "cas succeeds" true (Memory.cas m a ~expected:(Int 1) ~desired:(Int 2));
  Alcotest.check value "cas wrote" (Int 2) (Memory.read m a);
  Alcotest.(check bool) "cas fails" false (Memory.cas m a ~expected:(Int 1) ~desired:(Int 3));
  Alcotest.check value "failed cas left value" (Int 2) (Memory.read m a)

let test_tas_prim () =
  let m = Memory.create () in
  let a = Memory.alloc m (Value.Int 0) in
  Alcotest.check value "first tas returns 0" (Int 0) (Memory.tas m a);
  Alcotest.check value "cell now 1" (Int 1) (Memory.read m a);
  Alcotest.check value "second tas returns 1" (Int 1) (Memory.tas m a)

let test_faa_prim () =
  let m = Memory.create () in
  let a = Memory.alloc m (Value.Int 10) in
  Alcotest.check value "faa returns prev" (Int 10) (Memory.fetch_and_add m a 5);
  Alcotest.check value "cell updated" (Int 15) (Memory.read m a)

let test_stats () =
  let m = Memory.create () in
  let a = Memory.alloc m (Value.Int 0) in
  ignore (Memory.read m a);
  ignore (Memory.read m a);
  Memory.write m a (Int 1);
  ignore (Memory.cas m a ~expected:(Int 1) ~desired:(Int 2));
  ignore (Memory.tas m a);
  let s = Memory.stats m in
  Alcotest.(check int) "reads" 2 s.Memory.reads;
  Alcotest.(check int) "writes" 1 s.Memory.writes;
  Alcotest.(check int) "rmws" 2 s.Memory.rmws;
  Memory.reset_stats m;
  Alcotest.(check int) "reads reset" 0 (Memory.stats m).Memory.reads

let test_peek_not_counted () =
  let m = Memory.create () in
  let a = Memory.alloc m (Value.Int 0) in
  ignore (Memory.peek m a);
  Alcotest.(check int) "peek doesn't count" 0 (Memory.stats m).Memory.reads

let test_snapshot_restore () =
  let m = Memory.create () in
  let a = Memory.alloc m (Value.Int 1) in
  let b = Memory.alloc m (Value.Str "s") in
  let snap = Memory.snapshot m in
  Memory.write m a (Int 99);
  Memory.write m b Null;
  Memory.restore m snap;
  Alcotest.check value "a restored" (Int 1) (Memory.read m a);
  Alcotest.check value "b restored" (Str "s") (Memory.read m b)

let test_copy_independent () =
  let m = Memory.create () in
  let a = Memory.alloc ~name:"a" m (Value.Int 1) in
  let m2 = Memory.copy m in
  Memory.write m a (Int 2);
  Alcotest.check value "copy unaffected" (Int 1) (Memory.read m2 a);
  Alcotest.(check string) "copy keeps names" "a" (Memory.name m2 a)

let test_out_of_bounds () =
  let m = Memory.create () in
  let _ = Memory.alloc m Value.Null in
  Alcotest.check_raises "read oob"
    (Invalid_argument "Memory: address 5 out of bounds (size 1)") (fun () ->
      ignore (Memory.read m 5))

let test_growth () =
  let m = Memory.create () in
  (* force several internal growths *)
  let addrs = List.init 500 (fun i -> Memory.alloc m (Value.Int i)) in
  List.iteri
    (fun i a -> Alcotest.check value (Printf.sprintf "cell %d" i) (Int i) (Memory.read m a))
    addrs

(* {2 Explicit-persist mode} *)

let test_explicit_flush () =
  let m = Memory.create ~mode:Memory.Explicit () in
  let a = Memory.alloc m (Value.Int 0) in
  let b = Memory.alloc m (Value.Int 0) in
  Alcotest.(check (list int)) "fresh cells are durable" [] (Memory.pending m);
  Memory.write m a (Int 1);
  Alcotest.check value "volatile sees the write" (Int 1) (Memory.read m a);
  Alcotest.check value "medium does not" (Int 0) (Memory.peek_persisted m a);
  Alcotest.(check (list int)) "a is dirty" [ a ] (Memory.pending m);
  Memory.flush m a;
  Alcotest.check value "flush persists" (Int 1) (Memory.peek_persisted m a);
  Alcotest.(check (list int)) "clean after flush" [] (Memory.pending m);
  (* rmws dirty their cell like writes do *)
  ignore (Memory.tas m b);
  Alcotest.check value "tas pending" (Int 0) (Memory.peek_persisted m b);
  Alcotest.(check (list int)) "b dirty after tas" [ b ] (Memory.pending m)

let test_explicit_fence_is_pid_scoped () =
  let m = Memory.create ~mode:Memory.Explicit () in
  let a = Memory.alloc m (Value.Int 0) in
  let b = Memory.alloc m (Value.Int 0) in
  Memory.set_current_pid m 0;
  Memory.write m a (Int 1);
  Memory.set_current_pid m 1;
  Memory.write m b (Int 2);
  Memory.fence m;
  (* only pid 1's pending write is ordered by pid 1's fence *)
  Alcotest.check value "b persisted by owner fence" (Int 2) (Memory.peek_persisted m b);
  Alcotest.check value "a still pending" (Int 0) (Memory.peek_persisted m a);
  Alcotest.(check (list int)) "a remains dirty" [ a ] (Memory.pending m)

let test_crash_lose_mask () =
  let m = Memory.create ~mode:Memory.Explicit () in
  let a = Memory.alloc m (Value.Int 0) in
  let b = Memory.alloc m (Value.Int 0) in
  let c = Memory.alloc m (Value.Int 0) in
  Memory.write m a (Int 1);
  Memory.write m b (Int 2);
  Memory.write m c (Int 3);
  (* bit i decides the i-th dirty cell in ascending address order:
     mask 0b101 keeps a and c, loses b *)
  Memory.crash_lose m ~mask:0b101;
  Alcotest.check value "a reached the medium" (Int 1) (Memory.read m a);
  Alcotest.check value "b reverted" (Int 0) (Memory.read m b);
  Alcotest.check value "c reached the medium" (Int 3) (Memory.read m c);
  Alcotest.(check (list int)) "all cells clean afterwards" [] (Memory.pending m);
  (* mask 0: every unflushed write is lost *)
  Memory.write m a (Int 9);
  Memory.crash_lose m ~mask:0;
  Alcotest.check value "default crash loses everything" (Int 1) (Memory.read m a)

let test_instant_mode_persist_noops () =
  let m = Memory.create () in
  let a = Memory.alloc m (Value.Int 0) in
  Memory.write m a (Int 7);
  Alcotest.(check (list int)) "nothing ever pending" [] (Memory.pending m);
  Alcotest.check value "peek_persisted = peek" (Int 7) (Memory.peek_persisted m a);
  Memory.flush m a;
  Memory.fence m;
  Memory.crash_lose m ~mask:0;
  Alcotest.check value "crash loses nothing" (Int 7) (Memory.read m a);
  Alcotest.(check int) "no persisted shadow array" 0 (Array.length (Memory.psnapshot m));
  (* flush/fence still count, so instrumented code meters identically *)
  let s = Memory.stats m in
  Alcotest.(check int) "flushes counted" 1 s.Memory.flushes;
  Alcotest.(check int) "fences counted" 1 s.Memory.fences

let test_explicit_copy_and_restore () =
  let m = Memory.create ~mode:Memory.Explicit () in
  let a = Memory.alloc m (Value.Int 0) in
  Memory.write m a (Int 5);
  let m2 = Memory.copy m in
  Alcotest.check value "copy keeps pending state" (Int 0) (Memory.peek_persisted m2 a);
  Memory.flush m a;
  Alcotest.check value "copy is independent" (Int 0) (Memory.peek_persisted m2 a);
  let snap = Memory.snapshot m in
  Memory.write m a (Int 8);
  Memory.restore m snap;
  Alcotest.check value "restore re-establishes durability" (Int 5)
    (Memory.peek_persisted m a);
  Alcotest.(check (list int)) "restored heap is clean" [] (Memory.pending m)

let test_junk_stream_deterministic () =
  let j1 = Value.junk_stream 7 in
  let j2 = Value.junk_stream 7 in
  for i = 0 to 99 do
    Alcotest.check value (Printf.sprintf "junk %d" i) (j1 ()) (j2 ())
  done

(* property: value compare is a total order (antisymmetric, transitive on a sample) *)
let value_gen =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [ return Value.Null;
            map (fun b -> Value.Bool b) bool;
            map (fun i -> Value.Int i) (int_range (-100) 100);
            map (fun i -> Value.Pid i) (int_range 0 7) ]
      else
        frequency
          [ (3, self 0); (1, map2 Value.pair (self (n / 2)) (self (n / 2))) ])

let prop_compare_antisym =
  QCheck2.Test.make ~name:"Value.compare antisymmetric" ~count:500
    (QCheck2.Gen.pair value_gen value_gen) (fun (a, b) ->
      let c1 = Value.compare a b and c2 = Value.compare b a in
      (c1 = 0 && c2 = 0) || (c1 > 0 && c2 < 0) || (c1 < 0 && c2 > 0))

let prop_equal_hash =
  QCheck2.Test.make ~name:"Value.equal implies equal hash" ~count:500 value_gen (fun v ->
      Value.hash v = Value.hash v && Value.equal v v)

(* property: on an explicit-persist heap, Trail.undo_to restores the
   volatile view, the persisted view, the pending set and the writer
   attribution byte-identically, whatever mix of mutations (including
   flushes, fences and crash-loss) ran since the mark *)
let persist_op_gen =
  QCheck2.Gen.(triple (int_range 0 6) (int_range 0 3) (int_range 0 20))

let apply_persist_op m (sel, i, v) =
  let a = i in
  match sel with
  | 0 -> Memory.write m a (Int v)
  | 1 -> ignore (Memory.cas m a ~expected:(Memory.peek m a) ~desired:(Int v))
  | 2 -> ignore (Memory.tas m a)
  | 3 -> ignore (Memory.fetch_and_add m a 1)
  | 4 -> Memory.flush m a
  | 5 ->
    Memory.set_current_pid m (v mod 2);
    Memory.fence m
  | _ -> Memory.crash_lose m ~mask:(v land 15)

let persist_view m =
  ( Array.to_list (Memory.snapshot m),
    Array.to_list (Memory.psnapshot m),
    Memory.pending m,
    Array.to_list (Memory.owners m) )

let prop_trail_undo_restores_persist_state =
  QCheck2.Test.make ~name:"Trail.undo_to restores volatile+persisted views" ~count:300
    QCheck2.Gen.(pair (small_list persist_op_gen) (small_list persist_op_gen))
    (fun (prefix, suffix) ->
      let m = Memory.create ~mode:Memory.Explicit () in
      let trail = Trail.create () in
      Memory.set_trail m (Some trail);
      for i = 0 to 3 do
        ignore (Memory.alloc ~name:(Printf.sprintf "c%d" i) m (Value.Int 0))
      done;
      List.iter (apply_persist_op m) prefix;
      let before = persist_view m in
      let mark = Trail.mark trail in
      List.iter (apply_persist_op m) suffix;
      ignore (Trail.undo_to trail mark);
      persist_view m = before)

(* property: over random push/mark/undo sequences with nested marks,
   Trail.undo_to reports exactly the entries pushed since its mark, and
   runs exactly those undos (undoing to the newest open mark, LIFO) *)
let prop_trail_undo_counts_entries =
  QCheck2.Test.make ~name:"Trail.undo_to returns the pushes since its mark" ~count:500
    QCheck2.Gen.(small_list (int_range 0 2))
    (fun ops ->
      let trail = Trail.create () in
      (* [live]: pushed entries not yet undone; each undo thunk retires one *)
      let live = ref 0 in
      let marks = ref [] in
      List.for_all
        (function
          | 0 ->
            incr live;
            Trail.push trail (fun () -> decr live);
            true
          | 1 ->
            marks := (Trail.mark trail, !live) :: !marks;
            true
          | _ -> (
            match !marks with
            | [] -> true
            | (m, at_mark) :: rest ->
              marks := rest;
              let pushed = !live - at_mark in
              Trail.undo_to trail m = pushed && !live = at_mark))
        ops)

let suite =
  [
    Alcotest.test_case "value equality" `Quick test_value_equal;
    Alcotest.test_case "value accessors" `Quick test_value_accessors;
    Alcotest.test_case "compare/equal/hash consistent" `Quick test_value_compare_consistent;
    Alcotest.test_case "alloc/read/write" `Quick test_alloc_read_write;
    Alcotest.test_case "array allocation" `Quick test_alloc_array;
    Alcotest.test_case "cas primitive" `Quick test_cas_prim;
    Alcotest.test_case "tas primitive" `Quick test_tas_prim;
    Alcotest.test_case "faa primitive" `Quick test_faa_prim;
    Alcotest.test_case "access statistics" `Quick test_stats;
    Alcotest.test_case "peek not counted" `Quick test_peek_not_counted;
    Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "out of bounds" `Quick test_out_of_bounds;
    Alcotest.test_case "heap growth" `Quick test_growth;
    Alcotest.test_case "explicit: write/flush/pending" `Quick test_explicit_flush;
    Alcotest.test_case "explicit: fence is pid-scoped" `Quick test_explicit_fence_is_pid_scoped;
    Alcotest.test_case "explicit: crash-loss mask" `Quick test_crash_lose_mask;
    Alcotest.test_case "instant: persist ops are no-ops" `Quick test_instant_mode_persist_noops;
    Alcotest.test_case "explicit: copy/restore" `Quick test_explicit_copy_and_restore;
    Alcotest.test_case "junk stream deterministic" `Quick test_junk_stream_deterministic;
    QCheck_alcotest.to_alcotest prop_compare_antisym;
    QCheck_alcotest.to_alcotest prop_equal_hash;
    QCheck_alcotest.to_alcotest prop_trail_undo_restores_persist_state;
    QCheck_alcotest.to_alcotest prop_trail_undo_counts_entries;
  ]
