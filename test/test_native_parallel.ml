(* Multi-domain correctness smoke for the native runtime: aggregate
   invariants raced on real domains through {!Runtime.Par}.  These are
   not linearizability checks (the simulator's exhaustive exploration
   owns those) — they are the cheap algebraic facts that any lost or
   duplicated effect would break: a CAS chain advances by exactly its
   success count, a counter totals the per-domain increments, FAA
   conserves its deltas, and a one-shot T&S elects exactly one winner.

   Skipped gracefully on single-core hosts: the invariants hold
   trivially without parallelism, so running them there would only
   dilute the suite. *)

open Runtime

let domains_available = Domain.recommended_domain_count ()
let racers = min 4 domains_available
let skip_if_single () = if domains_available < 2 then Alcotest.skip ()

(* every domain CASes the current value to its successor; successes
   counted per domain.  The cell advances by one per success and only
   from its current value, so final value = total successes — any
   duplicated or phantom success breaks the equality. *)
let test_cas_one_winner_per_generation () =
  skip_if_single ();
  let c = Rcas.create ~nprocs:racers 0 in
  let iters = 2_000 in
  let wins = Pad.flat_make racers 0 in
  ignore
    (Par.run ~domains:racers ~iters (fun ~pid ~i:_ ->
         let v = Rcas.read c in
         if Rcas.cas c ~pid ~old:v ~new_:(v + 1) then
           wins.(Pad.slot pid) <- wins.(Pad.slot pid) + 1));
  let total = ref 0 in
  for p = 0 to racers - 1 do
    total := !total + wins.(Pad.slot p)
  done;
  Alcotest.(check bool) "somebody won" true (!total > 0);
  Alcotest.(check int) "final value = total successful CASes" !total (Rcas.read c)

let test_counter_conservation () =
  skip_if_single ();
  let t = Rcounter.create ~nprocs:racers in
  let iters = 5_000 in
  ignore (Par.run ~domains:racers ~iters (fun ~pid ~i:_ -> Rcounter.inc t ~pid));
  Alcotest.(check int) "total = sum of per-domain incs" (racers * iters)
    (Rcounter.read t ~pid:0)

let test_tas_one_winner () =
  skip_if_single ();
  let t = Rtas.create ~nprocs:racers in
  let rets = Pad.flat_make racers (-1) in
  ignore
    (Par.run ~domains:racers ~iters:1 (fun ~pid ~i:_ ->
         rets.(Pad.slot pid) <- Rtas.test_and_set t ~pid));
  let winners = ref 0 in
  for p = 0 to racers - 1 do
    let r = rets.(Pad.slot p) in
    Alcotest.(check bool) (Printf.sprintf "p%d response well-formed" p) true
      (r = 0 || r = 1);
    if r = 0 then incr winners
  done;
  Alcotest.(check int) "exactly one winner" 1 !winners;
  (* the fused tas word must announce the same winner the responses do *)
  let announced = ref (-1) in
  for p = 0 to racers - 1 do
    if rets.(Pad.slot p) = 0 then announced := p
  done;
  Alcotest.(check int) "winner persisted in the object" 0
    (Rtas.response t ~pid:!announced)

(* FAA conservation under a randomized per-domain op count: the final
   value must equal iters * sum of the per-domain deltas *)
let prop_faa_conservation =
  QCheck2.Test.make ~name:"native faa: final value = sum of deltas" ~count:5
    (QCheck2.Gen.int_range 50 2_000) (fun iters ->
      if domains_available < 2 then true
      else begin
        let f = Rfaa.create ~nprocs:racers () in
        ignore
          (Par.run ~domains:racers ~iters (fun ~pid ~i:_ ->
               ignore (Rfaa.faa f ~pid (pid + 1))));
        Rfaa.read f = iters * (racers * (racers + 1) / 2)
      end)

let suite =
  [
    Alcotest.test_case "cas: value advances once per success" `Slow
      test_cas_one_winner_per_generation;
    Alcotest.test_case "counter: total = sum of incs" `Slow test_counter_conservation;
    Alcotest.test_case "t&s: exactly one winner" `Slow test_tas_one_winner;
    QCheck_alcotest.to_alcotest prop_faa_conservation;
  ]
