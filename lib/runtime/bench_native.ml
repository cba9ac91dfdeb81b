(** The native benchmark suite behind [nrlsim bench-native]: single-domain
    latency and allocation rows plus a memento-style contended/uncontended
    throughput sweep over the recoverable objects and their plain
    baselines.

    Everything here is hand-rolled on the monotonic {!Obs.Clock}, and
    {!estimate_ns} is the one ns/op sampler of the repo: the bench
    harness (bench/main.ml) and the e2e bench time through it too.
    Latency is the median of
    [repeats] equal batches (calibrated to at least [min_batch_ns] per
    batch); allocation is the {!Gc.minor_words} delta across a long loop
    divided by the iteration count, so the measurement's own float boxes
    vanish in the denominator.

    The throughput harness follows the memento evaluation shape: each
    (object, impl, mode, width, domains) cell builds a fresh contention
    array of [width] locations, then {!Par.run_for} runs every domain's
    op loop for a fixed wall-clock window behind a two-phase start
    barrier, counting ops in domain-local counters.  [Contended] picks
    the location per op with a per-domain xorshift; [Uncontended] gives
    each domain its own location ([width >= domains]).  CAS cells count
    {e attempts} (one read + CAS pair per op) — under contention the
    success rate drops, which is exactly the effect the sweep exists to
    show.  Values written are [(seq lsl 13) lor pid] with a per-domain
    sequence, satisfying the paper's distinct-values assumption. *)

let median a =
  Array.sort compare a;
  a.(Array.length a / 2)

let estimate_ns ?(repeats = 9) ?(min_batch_ns = 2_000_000) f =
  for _ = 1 to 8 do f () done;
  let rec calibrate n =
    let t0 = Obs.Clock.now_ns () in
    for _ = 1 to n do f () done;
    let dt = Obs.Clock.now_ns () - t0 in
    if dt >= min_batch_ns then n else calibrate (n * 2)
  in
  let n = calibrate 16 in
  let samples =
    Array.init repeats (fun _ ->
        let t0 = Obs.Clock.now_ns () in
        for _ = 1 to n do f () done;
        float_of_int (Obs.Clock.now_ns () - t0) /. float_of_int n)
  in
  median samples

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
   The bench harness's T2 (bench/main.ml) times the rows both documents
   name through these very thunks and the same [estimate_ns], so the
   two documents can be cross-read. *)

let lat_nprocs = 4

let latency_thunks () =
  [
    ( "plain cas",
      let c = Pad.make_int 0 and s = ref 0 in
      fun () ->
        let cur = Atomic.get c in
        incr s;
        ignore (Atomic.compare_and_set c cur !s : bool) );
    ( "recoverable cas",
      let t = Rcas.create ~nprocs:lat_nprocs 0 and s = ref 0 in
      fun () ->
        let cur = Rcas.read t in
        incr s;
        ignore (Rcas.cas t ~pid:0 ~old:cur ~new_:!s : bool) );
    ( "recoverable t&s (fresh, win)",
      fun () -> ignore (Rtas.test_and_set (Rtas.create ~nprocs:lat_nprocs) ~pid:0 : int)
    );
    ( "atomic faa",
      let c = Pad.make_int 0 in
      fun () -> ignore (Atomic.fetch_and_add c 1 : int) );
    ( "recoverable faa",
      let t = Rfaa.create ~nprocs:lat_nprocs () in
      fun () -> ignore (Rfaa.faa t ~pid:0 1 : int) );
    ( "recoverable counter inc",
      let t = Rcounter.create ~nprocs:lat_nprocs in
      fun () -> Rcounter.inc t ~pid:0 );
    ( "plain stack push+pop",
      let t = Plain_stack.create () and s = ref 0 in
      fun () ->
        incr s;
        Plain_stack.push t !s;
        ignore (Plain_stack.pop t : int option) );
    ( "recoverable stack push+pop",
      let t = Rstack.create ~nprocs:lat_nprocs () and s = ref 0 in
      fun () ->
        incr s;
        ignore (Rstack.push t ~pid:0 !s : int);
        ignore (Rstack.pop t ~pid:0 : int) );
  ]

(* the hot paths the tentpole claims allocation-free, plus the stack
   (three small blocks per push+pop pair, reported honestly) *)
let alloc_names =
  [
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
    ("counter", "plain", counter_plain);
    ("faa", "recoverable", faa_reco);
    ("faa", "plain", faa_plain);
    ("stack", "recoverable", stack_reco);
    ("stack", "plain", stack_plain);
  ]

type config = { domains_list : int list; width : int; duration : float }

let default_config = { domains_list = [ 1; 2 ]; width = 1; duration = 0.5 }

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
              let t = Par.run_for ~domains ~duration:cfg.duration body in
              log
                (Printf.sprintf "  %-7s %-11s %-11s w=%-3d d=%-2d %12.0f ops/s"
                   obj impl (mode_name mode) w domains t.Par.t_ops_per_sec);
              {
                Bench_native_json.tp_object = obj;
                tp_impl = impl;
                tp_mode = mode_name mode;
                tp_width = w;
                tp_domains = domains;
                tp_ops = t.Par.t_total_ops;
                tp_seconds = t.Par.t_seconds;
                tp_ops_per_sec = t.Par.t_ops_per_sec;
              })
            [ Contended; Uncontended ])
        builders)
    cfg.domains_list

let run ?(log = fun (_ : string) -> ()) cfg =
  log "latency (single domain, median of calibrated batches):";
  let thunks = latency_thunks () in
  let latency =
    List.map
      (fun (name, f) ->
        let ns = estimate_ns f in
        log (Printf.sprintf "  %-32s %10.1f ns/op" name ns);
        { Bench_native_json.ns_name = name; ns_ns = ns })
      thunks
  in
  log "allocation (minor words per op):";
  let alloc_per_op =
    List.filter_map
      (fun (name, f) ->
        if not (List.mem name alloc_names) then None
        else begin
          let words = alloc_words_per_op f in
          log (Printf.sprintf "  %-32s %10.3f words/op" name words);
          Some { Bench_native_json.al_name = name; al_words = words }
        end)
      (latency_thunks ())
  in
  log
    (Printf.sprintf "throughput (%gs windows, contended width %d):" cfg.duration
       cfg.width);
  let throughput = throughput_rows ~log cfg in
  {
    Bench_native_json.domains_available = Domain.recommended_domain_count ();
    duration_s = cfg.duration;
    throughput;
    latency;
    alloc_per_op;
  }
