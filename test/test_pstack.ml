(* The persistent call stack in isolation: model-based round-trips of
   the OCaml-side API, trail compatibility (pstack mutations undo
   through Trail like every other NVM write), and the crash-truncation
   prefix guarantee of the write-frame / flush / bump-top / flush
   discipline under the explicit-persist model — a durable top never
   covers a lost frame. *)

module Mem = Nvm.Memory
module Pstack = Nvm.Pstack
module Value = Nvm.Value
module Trail = Nvm.Trail

let int n = Value.Int n
let vlist = Alcotest.testable (Fmt.Dump.list Value.pp) (List.equal Value.equal)

(* {1 Model round-trip} *)

(* Random push/pop/overwrite traffic on every process against a list
   model, in both persist modes.  Every pstack mutation flushes, so the
   persisted view must track the volatile one exactly. *)
let prop_model_roundtrip =
  QCheck2.Test.make ~name:"pstack: push/pop tracks the list model per process" ~count:100
    (QCheck2.Gen.int_range 1 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nprocs = 2 and depth = 6 in
      List.iter
        (fun mode ->
          let mem = Mem.create ~mode () in
          let t = Pstack.alloc mem ~nprocs ~depth in
          let model = Array.make nprocs [] (* top first *) in
          for _ = 1 to 120 do
            let pid = Random.State.int rng nprocs in
            match Random.State.int rng 4 with
            | 0 | 1 ->
              if List.length model.(pid) < depth then begin
                let v = int (Random.State.int rng 100) in
                Pstack.push t ~pid v;
                model.(pid) <- v :: model.(pid)
              end
            | 2 -> (
              match (model.(pid), Pstack.pop t ~pid) with
              | [], None -> ()
              | v :: tl, Some w when Value.equal v w -> model.(pid) <- tl
              | _ -> Alcotest.fail "pop disagrees with the model")
            | _ ->
              if model.(pid) <> [] then begin
                let v = int (Random.State.int rng 100) in
                Pstack.set_top_frame t ~pid v;
                model.(pid) <- v :: List.tl model.(pid)
              end
          done;
          for pid = 0 to nprocs - 1 do
            Alcotest.check vlist "volatile view" (List.rev model.(pid))
              (Pstack.to_list t ~pid);
            Alcotest.(check int) "level" (List.length model.(pid)) (Pstack.level t ~pid);
            Alcotest.check vlist "persisted view never lags" (List.rev model.(pid))
              (Pstack.persisted_list t ~pid);
            match model.(pid) with
            | [] -> Alcotest.(check bool) "peek empty" true (Pstack.top_frame t ~pid = None)
            | v :: _ -> (
              match Pstack.top_frame t ~pid with
              | Some w -> Alcotest.(check bool) "peek" true (Value.equal v w)
              | None -> Alcotest.fail "peek on a non-empty stack")
          done)
        [ Mem.Instant; Mem.Explicit ];
      true)

(* {1 Trail undo} *)

(* With a trail attached, any burst of pstack traffic must unwind to the
   exact pre-mark state — volatile and persisted views both — since the
   exhaustive explorer backtracks composed objects through precisely
   this mechanism. *)
let prop_trail_undo =
  QCheck2.Test.make ~name:"pstack: mutations undo through the trail" ~count:100
    (QCheck2.Gen.int_range 1 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let mem = Mem.create ~mode:Mem.Explicit () in
      let t = Pstack.alloc mem ~nprocs:1 ~depth:5 in
      Pstack.push t ~pid:0 (int 1);
      Pstack.push t ~pid:0 (int 2);
      let trail = Trail.create () in
      Mem.set_trail mem (Some trail);
      let before_vol = Pstack.to_list t ~pid:0
      and before_per = Pstack.persisted_list t ~pid:0 in
      let mark = Trail.mark trail in
      for _ = 1 to 30 do
        match Random.State.int rng 4 with
        | 0 ->
          if Pstack.level t ~pid:0 < 5 then
            Pstack.push t ~pid:0 (int (Random.State.int rng 100))
        | 1 -> ignore (Pstack.pop t ~pid:0)
        | 2 ->
          if Pstack.level t ~pid:0 > 0 then
            Pstack.set_top_frame t ~pid:0 (int (Random.State.int rng 100))
        | _ -> Pstack.reset t ~pid:0
      done;
      ignore (Trail.undo_to trail mark);
      Mem.set_trail mem None;
      List.equal Value.equal before_vol (Pstack.to_list t ~pid:0)
      && List.equal Value.equal before_per (Pstack.persisted_list t ~pid:0))

(* {1 Crash truncation} *)

(* The push discipline replayed by hand through the address accessors
   (the DSL-side view), interrupted after every prefix of its four
   steps, with an arbitrary subset of the unflushed writes lost: the
   persisted stack must be the old stack or the fully pushed one —
   never a bumped top over a lost frame. *)
let prop_crash_truncation =
  QCheck2.Test.make ~name:"pstack: a full-system crash can only truncate" ~count:60
    (QCheck2.Gen.int_range 1 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      List.for_all
        (fun cut ->
          let mem = Mem.create ~mode:Mem.Explicit () in
          let t = Pstack.alloc mem ~nprocs:1 ~depth:4 in
          let d0 = Random.State.int rng 3 in
          for i = 1 to d0 do
            Pstack.push t ~pid:0 (int i)
          done;
          let before = Pstack.to_list t ~pid:0 in
          let v = int 77 in
          let frame = Pstack.frame_addr t ~pid:0 d0 and top = Pstack.top_addr t ~pid:0 in
          let steps =
            [|
              (fun () -> Mem.write mem frame v);
              (fun () -> Mem.flush mem frame);
              (fun () -> Mem.write mem top (int (d0 + 1)));
              (fun () -> Mem.flush mem top);
            |]
          in
          for i = 0 to cut - 1 do
            steps.(i) ()
          done;
          Mem.crash_lose mem ~mask:(Random.State.bits rng);
          let after = Pstack.persisted_list t ~pid:0 in
          List.equal Value.equal after before
          || (cut >= 3 && List.equal Value.equal after (before @ [ v ])))
        [ 0; 1; 2; 3; 4 ])

(* {1 Edges} *)

let test_bounds () =
  let mem = Mem.create () in
  let t = Pstack.alloc mem ~nprocs:2 ~depth:2 in
  Alcotest.(check bool) "pop empty" true (Pstack.pop t ~pid:0 = None);
  Pstack.push t ~pid:0 (int 1);
  Pstack.push t ~pid:0 (int 2);
  Alcotest.check_raises "push full" (Invalid_argument "Pstack.push: stack full") (fun () ->
      Pstack.push t ~pid:0 (int 3));
  Alcotest.(check int) "other process untouched" 0 (Pstack.level t ~pid:1);
  Pstack.reset t ~pid:0;
  Alcotest.(check int) "reset empties" 0 (Pstack.level t ~pid:0);
  Alcotest.check_raises "set_top_frame on empty"
    (Invalid_argument "Pstack.set_top_frame: empty stack") (fun () ->
      Pstack.set_top_frame t ~pid:0 (int 9))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_model_roundtrip;
    QCheck_alcotest.to_alcotest prop_trail_undo;
    QCheck_alcotest.to_alcotest prop_crash_truncation;
    Alcotest.test_case "bounds and isolation" `Quick test_bounds;
  ]
