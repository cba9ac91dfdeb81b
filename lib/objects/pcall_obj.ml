(** Persistent-call-stack demonstrator, after Aksenov–Ben-Baruch–
    Hendler–Kokorin–Rusanova ({e Execution of NVRAM Programs with
    Persistent Stack}): a composed object whose RUN operation stages
    two nested recoverable invocations through an explicit
    {!Nvm.Pstack} frame, so its recovery reads its own position from
    durable stack metadata instead of relying solely on the system's
    [LI_p].

    RUN(seq) resets the caller's stack, pushes the frame [<seq, 0>],
    performs phase 0 — a recoverable WRITE of [seq] to the caller's
    private scratch register (observationally silent) — advances the
    frame to [<seq, 1>], performs phase 1 — one INC on the shared
    recoverable counter — then pops and persists the [<seq, ack>]
    response.  READ(seq) returns the counter's total.  The abstract
    effect of RUN is exactly {e one} increment; a recovery that loses
    or replays phase 1 is an NRL violation caught by any later READ.

    The stack writes follow the {!Nvm.Pstack} discipline (frame before
    top, each flushed under the explicit-persist model), which gives
    recovery a prefix guarantee: a durable top covers durable frames.
    Recovery then decides from [<seq, stage>] and the top counter which
    phase the crash hit; only {e within} an invoke window does it
    consult [LI_p] — "has the nested call started?" is precisely the
    question the machine's invoke metadata answers (the cascade
    guarantee: a started nested operation has completed, exactly once,
    by the time this recovery runs), mirroring Algorithm 4's
    [LI_p < 4] test.

    {v
    RUN(seq)                          RUN.RECOVER(seq)
    10: top_p <- 0                    100: r <- RunRes_p
    20: frame_p <- <seq, 0>           101: if r = <seq, _> return snd r
    30: top_p <- 1                    110: fr <- frame_p
    40: R[p].WRITE(seq)               111: if fr != <seq, _> resume 10
    50: frame_p <- <seq, 1>           120: tp <- top_p
    60: K.INC()                       121: if snd fr = 1 goto 140
    70: top_p <- 0                    122: if tp = 1 then
    80: RunRes_p <- <seq, ack>        130:   if LI_p < 40 resume 40 else resume 50
    90: return ack                    125: else resume 30
                                      140: if tp = 0 resume 80
                                      141: if LI_p < 60 resume 60 else resume 70
    v}

    Body lines are numbered in decades with the explicit-persist flushes
    at the intervening [+5] lines (15, 25, …), so that [LI_p] — which
    tracks {e every} body line that starts, flushes included — stays
    numerically ordered with the decision table's comparisons in both
    persist modes.  (Numbering the flushes {e above} the invoke lines is
    the classic off-by-a-line recovery bug: a crash right after the
    frame flush would read as "the INC already started" and skip it.)

    Every shared write is flushed before the next instruction, so at
    most one stack cell is ever dirty; the decision table above is
    sound against both individual crashes (volatile state survives) and
    full-system crashes (at most the last write reverts, and each
    ambiguous revert lands on a [Resume] that redoes the lost write). *)

open Machine.Program

type cells = {
  stk : Nvm.Pstack.t;  (** one explicit frame slot per process *)
  scratch_ids : int array;  (** per-process recoverable scratch registers *)
  ctr_id : int;  (** the shared recoverable counter *)
  runres : Nvm.Memory.addr;  (** per-process RUN responses [<seq, ack>] *)
  readres : Nvm.Memory.addr;  (** per-process READ responses [<seq, v>] *)
}

let my_top c : int exp = fun ctx _ -> Nvm.Pstack.top_addr c.stk ~pid:ctx.pid
let my_frame c : int exp = fun ctx _ -> Nvm.Pstack.frame_addr c.stk ~pid:ctx.pid 0

let res_matches var : bool exp =
 fun ctx env ->
  match Machine.Env.get env var with
  | Nvm.Value.Pair (s, _) -> Nvm.Value.equal s ctx.args.(0)
  | _ -> false

(* the frame belongs to this RUN: [<seq, _>] *)
let frame_matches var : bool exp = res_matches var

let stage_of var : expr = fun _ env -> Nvm.Value.snd (Machine.Env.get env var)

let run_body ~persist c =
  make ~name:"RUN"
    (List.concat
       [
         [ (10, Write (my_top c, int 0)) ];
         only_if persist [ (15, Flush (my_top c)) ];
         [ (20, Write (my_frame c, pair (arg 0) (int 0))) ];
         only_if persist [ (25, Flush (my_frame c)) ];
         [ (30, Write (my_top c, int 1)) ];
         only_if persist [ (35, Flush (my_top c)) ];
         [
           ( 40,
             Invoke
               ("w", (fun ctx _ -> c.scratch_ids.(ctx.pid)), "WRITE", [| arg 0 |]) );
           (50, Write (my_frame c, pair (arg 0) (int 1)));
         ];
         only_if persist [ (55, Flush (my_frame c)) ];
         [
           (60, Invoke ("i", (fun _ _ -> c.ctr_id), "INC", [||]));
           (70, Write (my_top c, int 0));
         ];
         only_if persist [ (75, Flush (my_top c)) ];
         [ (80, Write (my_slot c.runres, pair (arg 0) (const Nvm.Value.ack))) ];
         only_if persist [ (85, Flush (my_slot c.runres)) ];
         [ (90, Ret (const Nvm.Value.ack)) ];
       ])

let run_recover ~persist c =
  make ~name:"RUN.RECOVER"
    (List.concat
       [
         [
           (100, Read ("r", my_slot c.runres));
           (101, Branch_if (res_matches "r", 199));
         ];
         (* the decision table below must read {e durable} stack state:
            a crash between a stack write and its flush leaves the cell
            volatile-only, and resuming mid-protocol on that observation
            would let a later full-system crash revert it — e.g. a
            reverted stage-1 frame would re-enter the INC window and
            increment twice.  Flushing both cells first settles them. *)
         only_if persist [ (105, Flush (my_frame c)); (106, Flush (my_top c)) ];
         [
           (110, Read ("fr", my_frame c));
           (111, Branch_if (frame_matches "fr", 120));
           (112, Resume 10);
           (120, Read ("tp", my_top c));
           (121, Branch_if (eq (stage_of "fr") (int 1), 140));
           (* stage 0: the scratch WRITE window *)
           (122, Branch_if (eq (local "tp") (int 1), 130));
           (125, Resume 30);
           (130, Branch_if ((fun ctx env -> ignore env; ctx.li_line < 40), 132));
           (131, Resume 50);
           (132, Resume 40);
           (* stage 1: the INC window *)
           (140, Branch_if (eq (local "tp") (int 0), 145));
           (141, Branch_if ((fun ctx env -> ignore env; ctx.li_line < 60), 143));
           (142, Resume 70);
           (143, Resume 60);
           (145, Resume 80);
           (199, Ret (snd_of (local "r")));
         ];
       ])

let read_body ~persist c =
  make ~name:"READ"
    (List.concat
       [
         [
           (2, Invoke ("v", (fun _ _ -> c.ctr_id), "READ", [||]));
           (3, Write (my_slot c.readres, pair (arg 0) (local "v")));
         ];
         only_if persist [ (31, Flush (my_slot c.readres)) ];
         [ (4, Ret (local "v")) ];
       ])

let read_recover c =
  make ~name:"READ.RECOVER"
    [
      (6, Read ("r", my_slot c.readres));
      (61, Branch_if (bnot (res_matches "r"), 7));
      (62, Ret (snd_of (local "r")));
      (7, Resume 2);
    ]

(** Create a pcall instance in [sim]'s memory, together with its
    persistent call stack, per-process scratch registers and the shared
    recoverable counter it drives.  Both operations take one argument —
    a per-process-unique sequence number — and are strict. *)
let make sim ~name =
  let mem = Machine.Sim.mem sim in
  let nprocs = Machine.Sim.nprocs sim in
  let persist = Machine.Sim.persist_annotations sim in
  let scratch =
    Array.init nprocs (fun i ->
        Rw_obj.make ~init:(Nvm.Value.Int 0) sim
          ~name:(Printf.sprintf "%s.R[%d]" name i))
  in
  let ctr = Counter_obj.make sim ~name:(name ^ ".K") in
  let c =
    {
      stk = Nvm.Pstack.alloc ~name:(name ^ ".stk") mem ~nprocs ~depth:1;
      scratch_ids =
        Array.map (fun (r : Machine.Objdef.instance) -> r.Machine.Objdef.id) scratch;
      ctr_id = ctr.Machine.Objdef.id;
      runres = Nvm.Memory.alloc_array ~name:(name ^ ".RunRes") mem nprocs Nvm.Value.Null;
      readres = Nvm.Memory.alloc_array ~name:(name ^ ".ReadRes") mem nprocs Nvm.Value.Null;
    }
  in
  Machine.Objdef.register (Machine.Sim.registry sim) ~otype:"pcall" ~name
    ~strict_cells:
      [
        ("RUN", Array.init nprocs (fun i -> c.runres + i));
        ("READ", Array.init nprocs (fun i -> c.readres + i));
      ]
    ~subobjects:(ctr :: Array.to_list scratch)
    [
      ( "RUN",
        {
          Machine.Objdef.op_name = "RUN";
          body = run_body ~persist c;
          recover = run_recover ~persist c;
        } );
      ( "READ",
        {
          Machine.Objdef.op_name = "READ";
          body = read_body ~persist c;
          recover = read_recover c;
        } );
    ]
