(** The mutation bug zoo: deliberately broken variants of the paper's
    Algorithms 1-4 and of the mutex, consensus and pcall objects.

    Each mutant is its sound object, built by its base kind's row of
    the object-kind catalogue ([Workload.Scenarios]), with a few named
    line edits ({!Machine.Program.edit}) applied to its
    programs: a removed, reordered or misannotated line — exactly the
    class of subtle recovery bugs the detectability literature
    catalogues (lost response values, sequence bumps that outrun their
    persist, skipped helping announcements).  A change to a sound
    program therefore reaches its mutants, and a renumbered line that an
    edit names fails the build of the mutant instead of silently making
    it sound.  The zoo is the measuring stick for the fuzzer: a checker
    that "passes our scenarios" proves little, a checker that {e catches
    every zoo mutant within a pinned seed budget} has measured detection
    power.

    Every mutant keeps its base object's type, cells, strictness and
    symmetry registration, so the NRL checker judges it against the same
    sequential specification, and a skipped response persist is a
    Definition 1 violation rather than silent dead code.

    Mutants with {!field-m_persist} set are {e persistency} bugs: their
    edits drop one flush of the explicit-persist annotations (or place
    one fence on the wrong side of a write).  They are applied only on a
    machine that carries the annotations ({!Machine.Sim.persist_annotations});
    anywhere else the mutant is the sound object, as the missing flush
    would be a no-op there.  They must be run on a {!Nvm.Memory.Explicit}
    machine to be detected (see docs/memory-model.md).  Logic mutants
    apply their edits on any machine and keep the annotations the sound
    object carries.

    The catalogue is data ({!all}), so tests and the CLI iterate over it
    rather than hand-listing names. *)

open Machine.Program

type mutant = {
  m_name : string;  (** zoo-wide unique, usable as a scenario kind *)
  m_algo : string;
      (** base algorithm's catalogue kind: ["register"], ["cas"], ["tas"],
          ["counter"], ["mutex"], ["consensus"] or ["pcall"] — its row
          builds the sound object and its workload *)
  m_persist : bool;
      (** a persistency mutant: only detectable under the explicit-persist
          memory model ({!Nvm.Memory.Explicit}) *)
  m_doc : string;  (** the mutation, and why it is unsound *)
  m_edits : annotated:bool -> Machine.Objdef.instance -> (string * edit list) list;
      (** the mutation: line edits keyed by program name, given whether
          the programs carry flush annotations (a dropped or moved line
          takes its own flush along) and the built sound instance (for
          an instruction that needs one of its cells) *)
}

(* the edits of a mutation that needs neither the annotation flag nor
   the instance *)
let fixed edits ~annotated:_ _ = edits

let all =
  [
    {
      m_name = "rw-skip-log";
      m_algo = "register";
      m_persist = false;
      m_doc =
        "Alg 1 WRITE skips line 3 (S_p <- <1,temp>): a crash between the write \
         to R and the persist of S_p re-executes a write that already took \
         effect (value resurrection).";
      m_edits = fixed [ ("WRITE", [ Drop [ 3 ] ]) ];
    };
    {
      m_name = "rw-recover-skip-read";
      m_algo = "register";
      m_persist = false;
      m_doc =
        "Alg 1 WRITE.RECOVER skips line 14's re-read of R: a crash between \
         lines 3 and 4 is treated as a completed write, losing the write \
         entirely.";
      m_edits = fixed [ ("WRITE.RECOVER", [ Drop [ 14; 1401; 15 ] ]) ];
    };
    {
      m_name = "cas-skip-announce";
      m_algo = "cas";
      m_persist = false;
      m_doc =
        "Alg 2 CAS skips line 6 (the helping write R[id][p] <- val): a winner \
         that crashed before returning finds neither C = <p,new> nor new in \
         its row, re-executes, and reports false for a CAS everyone saw.";
      m_edits =
        (fun ~annotated _ -> [ ("CAS", [ Drop ([ 5; 6 ] @ only_if annotated [ 601 ]) ]) ]);
    };
    {
      m_name = "cas-recover-skip-rowscan";
      m_algo = "cas";
      m_persist = false;
      m_doc =
        "Alg 2 CAS.RECOVER checks only C = <p,new> and skips the row scan of \
         line 13: a helped completion is missed and the CAS is re-executed \
         after its effect became visible.";
      m_edits =
        fixed
          [
            ( "CAS.RECOVER",
              [ Replace (1302, Resume 2); Drop [ 1303; 1304; 1305; 1306; 1307; 16 ] ] );
          ];
    };
    {
      m_name = "tas-res-after-state";
      m_algo = "tas";
      m_persist = false;
      m_doc =
        "Alg 3 T&S bumps the state to 3 (line 12) before persisting the \
         response in Res_p (line 11): a crash between them makes recovery \
         read and return the unwritten Res_p.";
      m_edits =
        (fun ~annotated _ ->
          [ ("T&S", Swap (11, 12) :: only_if annotated [ Swap (1101, 1201) ]) ]);
    };
    {
      m_name = "tas-skip-res";
      m_algo = "tas";
      m_persist = false;
      m_doc =
        "Alg 3 T&S never persists its response in Res_p (line 11 dropped) \
         although the operation is registered strict: every completed T&S \
         violates Definition 1, and recovery after state 3 returns junk.";
      m_edits = fixed [ ("T&S", [ Drop [ 11 ] ]) ];
    };
    {
      m_name = "counter-recover-reexec";
      m_algo = "counter";
      m_persist = false;
      m_doc =
        "Alg 4 INC.RECOVER tests LI_p < 5 instead of LI_p < 4: a crash inside \
         the nested recoverable WRITE re-executes INC although the write's \
         NRL guarantee already linearized it — a double increment.";
      m_edits =
        fixed
          [ ("INC.RECOVER", [ Replace (7, Branch_if ((fun ctx _ -> ctx.li_line < 5), 8)) ]) ];
    };
    {
      m_name = "counter-read-skip-persist";
      m_algo = "counter";
      m_persist = false;
      m_doc =
        "Alg 4 READ skips line 15 (Res_p <- val) while staying registered \
         strict: every completed READ returns a response that was never \
         persisted (Definition 1 violation).";
      m_edits = fixed [ ("READ", [ Drop [ 15 ] ]) ];
    };
    {
      m_name = "rw-write-skip-flush-r";
      m_algo = "register";
      m_persist = true;
      m_doc =
        "Annotated Alg 1 WRITE drops the flush of R after line 4: a \
         full-system crash after the (flushed) completion record S_p = \
         <0,val> but before R reaches the medium rolls R back while recovery \
         trusts the record and acks without rewriting — a durably-lost write \
         whose ack escaped.";
      m_edits = fixed [ ("WRITE", [ Drop [ 401 ] ]) ];
    };
    {
      m_name = "cas-skip-flush-c";
      m_algo = "cas";
      m_persist = true;
      m_doc =
        "Annotated Alg 2 CAS drops the flush of C after line 7's cas: a \
         full-system crash can revert a successful, already-returned CAS, so \
         later reads durably observe the value it claimed to replace.";
      m_edits = fixed [ ("CAS", [ Drop [ 701 ] ]) ];
    };
    {
      m_name = "tas-fence-early";
      m_algo = "tas";
      m_persist = true;
      m_doc =
        "Annotated Alg 3 T&S issues a fence before writing Res_p instead of \
         flushing after it: the fence covers every earlier write but not the \
         response, so each completed T&S returns with Res_p still pending — \
         a Definition 1 strictness violation visible without any crash.";
      m_edits = fixed [ ("T&S", [ Drop [ 1101 ]; Insert_before (11, 1002, Fence) ]) ];
    };
    {
      m_name = "mutex-release-blind-null";
      m_algo = "mutex";
      m_persist = false;
      m_doc =
        "Mutex RELEASE.RECOVER skips the ownership test of line 12 and \
         resumes straight at the commit marker: a crashed RELEASE that never \
         owned the lock clears another process's grant and returns true.";
      m_edits =
        (* 111's branch to 12 lands on 122's [Resume 4] *)
        fixed [ ("RELEASE.RECOVER", [ Drop [ 12; 121; 13; 131; 14; 141; 15; 151 ] ]) ];
    };
    {
      m_name = "mutex-acquire-skip-res";
      m_algo = "mutex";
      m_persist = false;
      m_doc =
        "Mutex ACQUIRE drops line 6 (ARes_p <- <seq, won>) while staying \
         registered strict: every completed ACQUIRE returns a response that \
         was never persisted (Definition 1 violation), and recovery after a \
         late crash has no record to answer from.";
      m_edits =
        (* line 4's jump and the recovery's [Resume 6] land on line 7 *)
        fixed [ ("ACQUIRE", [ Drop [ 6 ] ]) ];
    };
    {
      m_name = "mutex-skip-flush-l";
      m_algo = "mutex";
      m_persist = true;
      m_doc =
        "Annotated mutex ACQUIRE drops the flush of L after the winning CAS: \
         a full-system crash can revert an already-granted lock to free, so \
         a second process acquires while the first still holds its true.";
      m_edits = fixed [ ("ACQUIRE", [ Drop [ 31 ] ]) ];
    };
    {
      m_name = "mutex-skip-flush-s";
      m_algo = "mutex";
      m_persist = true;
      m_doc =
        "Annotated mutex RELEASE drops the flush of the commit marker S_p \
         before clearing L: a crash after the (flushed) clear plus a \
         full-system crash loses the marker, so recovery reports false for \
         a release that durably freed the lock.";
      m_edits = fixed [ ("RELEASE", [ Drop [ 41 ] ]) ];
    };
    {
      m_name = "consensus-return-prop";
      m_algo = "consensus";
      m_persist = false;
      m_doc =
        "Consensus DECIDE.RECOVER returns the caller's own proposal instead \
         of resuming through the decision cell: a crashed decide whose CAS \
         lost reports its input while everyone else reports the winner — an \
         agreement violation.";
      m_edits =
        (fun ~annotated:_ inst ->
          let res = List.assoc "DECIDE" inst.Machine.Objdef.strict_cells in
          [
            ( "DECIDE.RECOVER",
              [
                Insert_before
                  (8, 73, Write ((fun ctx _ -> res.(ctx.pid)), pair (arg 0) (arg 1)));
                Replace (8, Ret (arg 1));
              ] );
          ]);
    };
    {
      m_name = "consensus-skip-flush-c";
      m_algo = "consensus";
      m_persist = true;
      m_doc =
        "Annotated consensus DECIDE drops the flush of C after the CAS: a \
         full-system crash can erase a decision that was already returned, \
         letting a later decide fix a different value — durable \
         disagreement.";
      m_edits = fixed [ ("DECIDE", [ Drop [ 21 ] ]) ];
    };
    {
      m_name = "pcall-ignore-stage";
      m_algo = "pcall";
      m_persist = false;
      m_doc =
        "Pcall RUN.RECOVER drops the frame's stage test: every interrupted \
         RUN is treated as crashed in phase 0, so a crash after the INC \
         re-enters it from the frame write — a double increment any later \
         READ observes.";
      m_edits = fixed [ ("RUN.RECOVER", [ Drop [ 121; 140; 141; 142; 143; 145 ] ]) ];
    };
  ]

let find name = List.find_opt (fun m -> m.m_name = name) all

let apply_edits sim (inst : Machine.Objdef.instance) edits =
  let programs =
    List.concat_map
      (fun (_, (d : Machine.Objdef.op_def)) -> [ name d.body; name d.recover ])
      inst.ops
  in
  List.iter
    (fun (prog, _) ->
      if not (List.mem prog programs) then
        invalid_arg (Printf.sprintf "Zoo: %s has no program %s" inst.obj_name prog))
    edits;
  let edited p =
    match List.assoc_opt (name p) edits with Some es -> edit p es | None -> p
  in
  Machine.Objdef.replace_ops (Machine.Sim.registry sim) inst
    (List.map
       (fun (op, (d : Machine.Objdef.op_def)) ->
         (op, { d with body = edited d.body; recover = edited d.recover }))
       inst.ops)

let mutate m sim inst =
  let annotated = Machine.Sim.persist_annotations sim in
  if m.m_persist && not annotated then inst
  else apply_edits sim inst (m.m_edits ~annotated inst)
