(** The native benchmark suite behind [nrlsim bench-native]: single-domain
    latency and allocation rows plus a memento-style contended/uncontended
    throughput sweep over the recoverable objects and their plain
    baselines.

    Everything here is hand-rolled on the monotonic {!Obs.Clock}, and
    [spread_ns] is the one ns/op sampler of the repo: the e2e bench times
    through it too ({!estimate_ns}).  Latency is
    the median, minimum and quartiles of [repeats] equal batches
    (calibrated to at least [min_batch_ns] per batch); allocation is the
    {!Gc.minor_words} delta across a long loop divided by the iteration
    count, so the measurement's own float boxes vanish in the
    denominator.

    The throughput harness follows the memento evaluation shape: each
    (object, impl, mode, width, domains) cell builds a fresh contention
    array of [width] locations, then {!Par.run_for} runs every domain's
    op loop for a fixed wall-clock window behind a two-phase start
    barrier, counting ops in domain-local counters.  A cell's duration
    is split into five equal windows; its rate is the median window's,
    with the minimum and quartiles beside it.  [Contended] picks
    the location per op with a per-domain xorshift; [Uncontended] gives
    each domain its own location ([width >= domains]).  CAS cells count
    {e attempts} (one read + CAS pair per op) — under contention the
    success rate drops, which is exactly the effect the sweep exists to
    show.  Values written are [(seq lsl 13) lor pid] with a per-domain
    sequence, satisfying the paper's distinct-values assumption. *)

type spread = { median : float; min : float; q1 : float; q3 : float }

(* wall-clock ns of [n] calls of [f] *)
let batch_ns n f =
  let t0 = Obs.Clock.now_ns () in
  for _ = 1 to n do f () done;
  Obs.Clock.now_ns () - t0

(* after a warm-up of 8 calls, the batch size (doubled from 16) whose
   batch of [f] runs at least [min_batch_ns] *)
let calibrate ~min_batch_ns f =
  for _ = 1 to 8 do f () done;
  let rec go n = if batch_ns n f >= min_batch_ns then n else go (n * 2) in
  go 16

(* median, min and quartiles (nearest rank) of the per-batch samples *)
let quartiles samples =
  let k = Array.length samples in
  Array.sort compare samples;
  { median = samples.(k / 2); min = samples.(0); q1 = samples.(k / 4); q3 = samples.(3 * k / 4) }

let spread_ns ?(repeats = 9) ?(min_batch_ns = 2_000_000) f =
  let n = calibrate ~min_batch_ns f in
  quartiles
    (Array.init repeats (fun _ -> float_of_int (batch_ns n f) /. float_of_int n))

(* ns/op of [f] minus ns/op of [base] over 9 pairs of batches, one
   difference per pair: both run in alternating batches of [f]'s
   calibrated size, so GC work that lands in one batch widens the
   quartiles instead of biasing one median *)
let paired_diff_ns ~base f =
  for _ = 1 to 8 do base () done;
  let n = calibrate ~min_batch_ns:2_000_000 f in
  let per_op ns = float_of_int ns /. float_of_int n in
  quartiles
    (Array.init 9 (fun _ ->
         let b = batch_ns n base in
         per_op (batch_ns n f) -. per_op b))

let estimate_ns ?repeats ?min_batch_ns f = (spread_ns ?repeats ?min_batch_ns f).median

let latency_fields s =
  Obs.Json.
    [ ("ns", Num s.median); ("ns_min", Num s.min); ("ns_q1", Num s.q1); ("ns_q3", Num s.q3) ]

let alloc_words_per_op ?(iters = 20_000) f =
  for _ = 1 to 256 do f () done;
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do f () done;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int iters

(* plain Treiber baseline for the stack rows *)
module Plain_stack = struct
  type node = Nil | Cons of { v : int; next : node }
  type t = node Atomic.t

  let create () : t = Pad.make_any Nil

  let rec push t v =
    let cur = Atomic.get t in
    if not (Atomic.compare_and_set t cur (Cons { v; next = cur })) then push t v

  let rec pop t =
    match Atomic.get t with
    | Nil -> None
    | Cons { v; next } as cur ->
      if Atomic.compare_and_set t cur next then Some v else pop t
end

(* ---- single-domain latency and allocation rows ----
   The one native latency table: every row names the DESIGN.md section 5
   table it belongs to.  Thunks that compute a value pass it through
   [Sys.opaque_identity], so the work is not optimised away. *)

let lat_nprocs = 4

let latency_thunks () =
  [
    (* T1: Algorithm 1 register *)
    ( "T1", "plain write",
      let r = Rrw.Plain.create 0 and s = ref 0 in
      fun () ->
        incr s;
        Rrw.Plain.write r !s );
    ( "T1", "recoverable write",
      let r = Rrw.create ~nprocs:lat_nprocs 0 and s = ref 0 in
      fun () ->
        incr s;
        Rrw.write r ~pid:0 !s );
    ( "T1", "plain read",
      let r = Rrw.Plain.create 0 in
      fun () -> ignore (Sys.opaque_identity (Rrw.Plain.read r)) );
    ( "T1", "recoverable read",
      let r = Rrw.create ~nprocs:lat_nprocs 0 in
      fun () -> ignore (Sys.opaque_identity (Rrw.read r)) );
    (* T2: Algorithms 2 and 3, and the objects built on strict CAS *)
    ( "T2", "plain cas",
      let c = Pad.make_int 0 and s = ref 0 in
      fun () ->
        let cur = Atomic.get c in
        incr s;
        ignore (Atomic.compare_and_set c cur !s : bool) );
    ( "T2", "recoverable cas",
      let t = Rcas.create ~nprocs:lat_nprocs 0 and s = ref 0 in
      fun () ->
        let cur = Rcas.read t in
        incr s;
        ignore (Rcas.cas t ~pid:0 ~old:cur ~new_:!s : bool) );
    (* the failed-CAS path: read + compare only *)
    ( "T2", "recoverable cas (failing)",
      let t = Rcas.create ~nprocs:lat_nprocs 0 in
      fun () -> ignore (Rcas.cas t ~pid:1 ~old:(-1) ~new_:(-2) : bool) );
    (* T&S: the lose path is repeatable; the win path needs a fresh
       object, so its allocation is timed on its own alongside *)
    ( "T2", "recoverable t&s (lose path)",
      let t = Rtas.create ~nprocs:lat_nprocs in
      ignore (Rtas.test_and_set t ~pid:0 : int);
      fun () -> ignore (Rtas.test_and_set t ~pid:1 : int) );
    ( "T2", "alloc plain tas",
      fun () -> ignore (Sys.opaque_identity (Rtas.Plain.create ())) );
    ( "T2", "plain t&s (fresh)",
      fun () -> ignore (Rtas.Plain.test_and_set (Rtas.Plain.create ()) : int) );
    ( "T2", "alloc reco tas",
      fun () -> ignore (Sys.opaque_identity (Rtas.create ~nprocs:lat_nprocs)) );
    ( "T2", "recoverable t&s (fresh, win)",
      fun () -> ignore (Rtas.test_and_set (Rtas.create ~nprocs:lat_nprocs) ~pid:0 : int) );
    ( "T2", "atomic faa",
      let c = Pad.make_int 0 in
      fun () -> ignore (Atomic.fetch_and_add c 1 : int) );
    ( "T2", "recoverable faa",
      let t = Rfaa.create ~nprocs:lat_nprocs () in
      fun () -> ignore (Rfaa.faa t ~pid:0 1 : int) );
    ( "T2", "plain list stack",
      let t = Atomic.make [] in
      fun () ->
        let l = Atomic.get t in
        Atomic.set t (1 :: l);
        match Atomic.get t with _ :: tl -> Atomic.set t tl | [] -> () );
    (* T10: the remaining hot paths of the native suite *)
    ( "T10", "recoverable counter inc",
      let t = Rcounter.create ~nprocs:lat_nprocs in
      fun () -> Rcounter.inc t ~pid:0 );
    ( "T10", "plain stack push+pop",
      let t = Plain_stack.create () and s = ref 0 in
      fun () ->
        incr s;
        Plain_stack.push t !s;
        ignore (Plain_stack.pop t : int option) );
    ( "T10", "recoverable stack push+pop",
      let t = Rstack.create ~nprocs:lat_nprocs () and s = ref 0 in
      fun () ->
        incr s;
        ignore (Rstack.push t ~pid:0 !s : int);
        ignore (Rstack.pop t ~pid:0 : int) );
    (* T12: recoverable synchronisation primitives, uncontended *)
    ( "T12", "rmutex acquire+release",
      let m = Rmutex.create ~nprocs:1 and seq = ref 0 in
      fun () ->
        incr seq;
        ignore (Rmutex.acquire m ~pid:0 ~seq:!seq : bool);
        ignore (Rmutex.release m ~pid:0 ~seq:!seq : bool) );
    ( "T12", "plain lock acquire+release",
      let m = Rmutex.Plain.create () in
      fun () ->
        ignore (Rmutex.Plain.acquire m ~pid:0 : bool);
        ignore (Rmutex.Plain.release m ~pid:0 : bool) );
    ( "T12", "rconsensus decide (decided path)",
      let c = Rconsensus.create ~nprocs:1 and seq = ref 0 in
      ignore (Rconsensus.decide c ~pid:0 ~seq:0 7 : int);
      fun () ->
        incr seq;
        ignore (Rconsensus.decide c ~pid:0 ~seq:!seq 9 : int) );
    ( "T12", "plain consensus decide (decided path)",
      let c = Rconsensus.Plain.create () in
      ignore (Rconsensus.Plain.decide c 7 : int);
      fun () -> ignore (Rconsensus.Plain.decide c 9 : int) );
  ]
  (* F3: Algorithm 2's recovery row scan vs N, in the worst helpful case:
     the evidence sits in the last matrix slot, and C no longer holds
     p0's pair *)
  @ List.map
      (fun n ->
        ( "F3", Printf.sprintf "scan%d" n,
          let c = Rcas.create ~nprocs:n 0 in
          c.Rcas.r.(Pad.slot2 ~n 0 (n - 1)) <- 1;
          Atomic.set c.Rcas.c (Enc.pack ~id:1 999);
          fun () -> ignore (Rcas.cas_recover c ~pid:0 ~old:0 ~new_:1 : bool) ))
      [ 2; 4; 8; 16; 32; 64; 128 ]
  (* F1: recovery latency vs crash position, at every crash point of the
     operation's path.  Each call re-arms one crash point at position k,
     runs the interrupted operation, then its recovery: a repeated
     recovery alone would time the already-recovered path.  T&S is
     one-shot, so its object is fresh per call; a reused CAS object's
     last writer is known, so its path has the helping write's point. *)
  @
  let cp = Crash.create () in
  List.init 4 (fun k ->
      ( "F1", Printf.sprintf "write crash@%d + recover" k,
        let r = Rrw.create ~nprocs:2 0 and s = ref 0 in
        fun () ->
          incr s;
          Crash.arm cp k;
          (try Rrw.write ~cp r ~pid:0 !s with Crash.Crashed -> ());
          Rrw.write_recover r ~pid:0 !s ))
  @ List.init 5 (fun k ->
        ( "F1", Printf.sprintf "t&s (fresh) crash@%d + recover" k,
          fun () ->
            let t = Rtas.create ~nprocs:1 in
            Crash.arm cp k;
            (try ignore (Rtas.test_and_set ~cp t ~pid:0 : int) with Crash.Crashed -> ());
            ignore (Rtas.recover t ~pid:0 : int) ))
  @ List.init 3 (fun k ->
        ( "F1", Printf.sprintf "cas crash@%d + recover" k,
          let c = Rcas.create ~nprocs:4 0 and s = ref 0 in
          fun () ->
            let cur = Rcas.read c in
            incr s;
            Crash.arm cp k;
            (try ignore (Rcas.cas ~cp c ~pid:0 ~old:cur ~new_:!s : bool)
             with Crash.Crashed -> ());
            ignore (Rcas.cas_recover c ~pid:0 ~old:cur ~new_:!s : bool) ))

(* recoverable over plain: the pairs whose overhead DESIGN.md section 5's
   T1, T2 and T12 report *)
let overhead_pairs =
  [
    ("WRITE", "plain write", "recoverable write");
    ("READ", "plain read", "recoverable read");
    ("CAS (success)", "plain cas", "recoverable cas");
    ("FAA", "atomic faa", "recoverable faa");
    ("stack push+pop", "plain list stack", "recoverable stack push+pop");
    ("mutex acquire+release", "plain lock acquire+release", "rmutex acquire+release");
    ( "consensus decide (decided)",
      "plain consensus decide (decided path)",
      "rconsensus decide (decided path)" );
  ]

(* the T&S win net of its fresh object's allocation: (label, the
   allocation thunk, the fresh-object win thunk) *)
let win_pairs =
  [
    ("plain t&s win", "alloc plain tas", "plain t&s (fresh)");
    ("recoverable t&s win", "alloc reco tas", "recoverable t&s (fresh, win)");
  ]

(* the hot paths kept allocation-free (docs/native.md), plus the stack
   (three small blocks per push+pop pair, reported honestly) *)
let alloc_names =
  [
    "recoverable write";
    "recoverable cas";
    "recoverable faa";
    "recoverable counter inc";
    "recoverable stack push+pop";
  ]

(* ---- memento-style throughput sweep ---- *)

type mode = Contended | Uncontended

let mode_name = function Contended -> "contended" | Uncontended -> "uncontended"

let[@inline] xorshift x =
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  x lxor (x lsl 17)

(* per-domain location pick over [w] slots; rng state in padded cells *)
let mk_pick ~mode ~domains ~w =
  match mode with
  | Uncontended -> fun pid -> pid mod w
  | Contended ->
    if w = 1 then fun _ -> 0
    else begin
      let st = Pad.flat_make domains 0 in
      for p = 0 to domains - 1 do
        st.(Pad.slot p) <- ((p + 1) * 0x9E3779B9) lor 1
      done;
      fun pid ->
        let s = Pad.slot pid in
        let x = xorshift st.(s) in
        st.(s) <- x;
        (x land max_int) mod w
    end

let cas_reco ~domains ~w ~pick =
  let cells = Array.init w (fun _ -> Rcas.create ~nprocs:domains 0) in
  let seqs = Pad.flat_make domains 0 in
  fun ~pid ~i:_ ->
    let c = cells.(pick pid) in
    let cur = Rcas.read c in
    let s = seqs.(Pad.slot pid) + 1 in
    seqs.(Pad.slot pid) <- s;
    ignore (Rcas.cas c ~pid ~old:cur ~new_:((s lsl 13) lor pid) : bool)

let cas_plain ~domains ~w ~pick =
  let cells = Array.init w (fun _ -> Pad.make_int 0) in
  let seqs = Pad.flat_make domains 0 in
  fun ~pid ~i:_ ->
    let c = cells.(pick pid) in
    let cur = Atomic.get c in
    let s = seqs.(Pad.slot pid) + 1 in
    seqs.(Pad.slot pid) <- s;
    ignore (Atomic.compare_and_set c cur ((s lsl 13) lor pid) : bool)

let counter_reco ~domains ~w ~pick =
  let cells = Array.init w (fun _ -> Rcounter.create ~nprocs:domains) in
  fun ~pid ~i:_ -> Rcounter.inc cells.(pick pid) ~pid

(* every tenth op of a domain is a strict READ *)
let counter_read_mix ~domains ~w ~pick =
  let cells = Array.init w (fun _ -> Rcounter.create ~nprocs:domains) in
  fun ~pid ~i ->
    let c = cells.(pick pid) in
    if i mod 10 = 9 then ignore (Rcounter.read c ~pid : int) else Rcounter.inc c ~pid

let counter_plain ~domains ~w ~pick =
  let cells = Array.init w (fun _ -> Rcounter.Plain.create ~nprocs:domains) in
  fun ~pid ~i:_ -> Rcounter.Plain.inc cells.(pick pid) ~pid

let faa_reco ~domains ~w ~pick =
  let cells = Array.init w (fun _ -> Rfaa.create ~nprocs:domains ()) in
  fun ~pid ~i:_ -> ignore (Rfaa.faa cells.(pick pid) ~pid 1 : int)

let faa_plain ~domains:_ ~w ~pick =
  let cells = Array.init w (fun _ -> Pad.make_int 0) in
  fun ~pid ~i:_ -> ignore (Atomic.fetch_and_add cells.(pick pid) 1 : int)

let stack_reco ~domains ~w ~pick =
  let cells = Array.init w (fun _ -> Rstack.create ~nprocs:domains ()) in
  fun ~pid ~i ->
    let c = cells.(pick pid) in
    if i land 1 = 0 then ignore (Rstack.push c ~pid ((i lsl 13) lor pid) : int)
    else ignore (Rstack.pop c ~pid : int)

let stack_plain ~domains:_ ~w ~pick =
  let cells = Array.init w (fun _ -> Plain_stack.create ()) in
  fun ~pid ~i ->
    let c = cells.(pick pid) in
    if i land 1 = 0 then Plain_stack.push c ((i lsl 13) lor pid)
    else ignore (Plain_stack.pop c : int option)

let builders =
  [
    ("cas", "recoverable", cas_reco);
    ("cas", "plain", cas_plain);
    ("counter", "recoverable", counter_reco);
    ("counter 90/10", "recoverable", counter_read_mix);
    ("counter", "plain", counter_plain);
    ("faa", "recoverable", faa_reco);
    ("faa", "plain", faa_plain);
    ("stack", "recoverable", stack_reco);
    ("stack", "plain", stack_plain);
  ]

type config = { domains_list : int list; width : int; duration : float }

let default_config = { domains_list = [ 1; 2 ]; width = 1; duration = 0.5 }

(* each throughput cell's duration is timed as this many equal windows;
   its row reports the median window's rate and the spread *)
let windows = 5

let throughput_rows ~log cfg =
  List.concat_map
    (fun domains ->
      List.concat_map
        (fun (obj, impl, build) ->
          List.map
            (fun mode ->
              let w =
                match mode with
                | Contended -> cfg.width
                | Uncontended -> max domains cfg.width
              in
              let pick = mk_pick ~mode ~domains ~w in
              let body = build ~domains ~w ~pick in
              let ts =
                Array.init windows (fun _ ->
                    Par.run_for ~domains ~duration:(cfg.duration /. float_of_int windows) body)
              in
              let s = quartiles (Array.map (fun t -> t.Par.t_ops_per_sec) ts) in
              let sum f = Array.fold_left (fun acc t -> acc + f t) 0 ts in
              log
                (Printf.sprintf "  %-13s %-11s %-11s w=%-3d d=%-2d %12.0f ops/s [%.0f, %.0f]"
                   obj impl (mode_name mode) w domains s.median s.q1 s.q3);
              Obs.Bench.row Native ~section:"T10"
                (Printf.sprintf "%s %s %s w=%d d=%d" obj impl (mode_name mode) w domains)
                Obs.Json.
                  [
                    ("object", Str obj);
                    ("impl", Str impl);
                    ("mode", Str (mode_name mode));
                    ("width", Int w);
                    ("domains", Int domains);
                    ("ops", Int (sum (fun t -> t.Par.t_total_ops)));
                    ("seconds", Num (Array.fold_left (fun acc t -> acc +. t.Par.t_seconds) 0. ts));
                    ("ops_per_sec", Num s.median);
                    ("ops_per_sec_min", Num s.min);
                    ("ops_per_sec_q1", Num s.q1);
                    ("ops_per_sec_q3", Num s.q3);
                  ])
            [ Contended; Uncontended ])
        builders)
    cfg.domains_list

let run ?(log = fun (_ : string) -> ()) cfg =
  log "latency (single domain, median [q1, q3] of calibrated batches; words/op):";
  let thunks = latency_thunks () in
  let timed =
    List.map
      (fun (section, name, f) ->
        let s = spread_ns f in
        let words = if List.mem name alloc_names then Some (alloc_words_per_op f) else None in
        log
          (Printf.sprintf "  %-4s %-38s %8.1f ns [%.1f, %.1f]%s" section name s.median s.q1
             s.q3
             (match words with Some w -> Printf.sprintf "  %.3f words" w | None -> ""));
        let words = Option.to_list (Option.map (fun w -> ("words", Obs.Json.Num w)) words) in
        (name, (s, Obs.Bench.row Native ~section name (latency_fields s @ words))))
      thunks
  in
  let median name = (fst (List.assoc name timed)).median in
  log "overhead (medians, plain vs recoverable):";
  List.iter
    (fun (label, plain, reco) ->
      log
        (Printf.sprintf "  %-32s %8.1f ns %8.1f ns  %.2fx" label (median plain)
           (median reco) (median reco /. median plain)))
    overhead_pairs;
  log "T&S win net of allocation (median [q1, q3] of paired batch differences):";
  let thunk name =
    let _, _, f = List.find (fun (_, n, _) -> n = name) thunks in
    f
  in
  List.iter
    (fun (label, alloc, win) ->
      let d = paired_diff_ns ~base:(thunk alloc) (thunk win) in
      log (Printf.sprintf "  %-32s %8.1f ns [%.1f, %.1f]" label d.median d.q1 d.q3))
    win_pairs;
  log
    (Printf.sprintf
       "throughput (median [q1, q3] of %d windows per %gs cell, contended width %d):" windows
       cfg.duration cfg.width);
  let throughput = throughput_rows ~log cfg in
  {
    Obs.Bench.config =
      Obs.Json.
        [
          ("domains", Arr (List.map (fun d -> Int d) cfg.domains_list));
          ("width", Int cfg.width);
          ("duration_s", Num cfg.duration);
        ];
    rows = List.map (fun (_, (_, row)) -> row) timed @ throughput;
  }
