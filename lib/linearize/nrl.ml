(** Nesting-safe recoverable linearizability (Definition 4).

    A finite history [H] satisfies NRL if it is recoverable well-formed
    (Definition 3) and [N(H)] — [H] with all crash and recovery steps
    removed — is linearizable.  Linearizability of [N(H)] is established
    object by object (locality). *)

type result = {
  rwf : History.Wellformed.result;
  objects : Checker.object_report list;  (** per-object verdicts on [N(H)] *)
}

let ok r =
  History.Wellformed.is_ok r.rwf
  && List.for_all
       (fun (o : Checker.object_report) ->
         match o.verdict with
         | Some v -> Checker.is_linearizable v
         | None -> true)
       r.objects

(** Objects whose subhistory of [N(H)] is not linearizable. *)
let failing_objects r =
  List.filter
    (fun (o : Checker.object_report) ->
      match o.verdict with Some v -> not (Checker.is_linearizable v) | None -> false)
    r.objects

let check ?obs ~spec_for ~nprocs (h : History.t) : result =
  (match obs with
  | Some reg -> Obs.Metrics.Counter.incr (Obs.Metrics.counter reg Obs.Names.nrl_checks)
  | None -> ());
  let rwf = History.Wellformed.check_recoverable_well_formed h in
  let objects =
    if History.Wellformed.is_ok rwf then
      Checker.check_all ?obs ~spec_for ~nprocs (History.n_of h)
    else []
  in
  { rwf; objects }

let explain r =
  if ok r then "satisfies NRL"
  else
    match r.rwf with
    | History.Wellformed.Violation m -> "not recoverable well-formed: " ^ m
    | History.Wellformed.Ok ->
      Fmt.str "N(H) not linearizable for object(s): %a"
        Fmt.(
          list ~sep:comma (fun ppf (o : Checker.object_report) ->
              Fmt.pf ppf "%s (%s)" o.obj_name
                (match o.verdict with
                | Some (Checker.Not_linearizable m) -> m
                | _ -> "?")))
        (failing_objects r)

let pp ppf r = Fmt.string ppf (explain r)

(** Incremental NRL checking: the whole Definition 4 condition as an
    automaton over history steps, designed to be threaded down a
    depth-first schedule exploration so that work done on a shared
    schedule prefix is shared by every terminal history below it.

    The state is persistent (lists and maps, plus copy-on-write
    arrays): keeping the state of an interior DFS node alive while its
    subtrees are explored needs no undo, and a state is never changed
    by folding a step into it.  Per-object states additionally memoise
    their own successors (below), so each distinct per-object
    transition is computed once per automaton root rather than once
    per DFS edge.

    {b Recoverable well-formedness} (Definition 3) is tracked directly:
    per process, a [crashed] flag (any step after a crash other than the
    matching recovery is a violation, as is a recovery without a crash)
    and a stack of open operations (an invocation on an object with an
    operation already pending on it breaks per-object alternation; a
    response not matching the inner-most open operation breaks the
    nesting discipline).

    {b Linearizability of N(H)} (Definition 2, per object by locality) is
    tracked as a set of {e configurations} per object — each a set of
    speculatively linearized pending operations (with their chosen
    responses) plus the specification state reached.  Invocations extend
    the pending universe and leave configurations untouched; all search
    happens at response steps, where each configuration is closed under
    linearizing pending operations until the responding operation is
    placed with its actual response value.  Deferring the linearization
    of every {e other} pending operation to a later event is sound
    because currently-pending operations are mutually concurrent and no
    specification transition happens between events except
    linearizations themselves: any ordering realisable now is equally
    realisable at the next response step from the surviving
    configuration.  Requiring the responding operation to be placed at
    its own response step is exactly the Wing & Gong real-time frontier —
    every operation invoked later must be linearized after it.  A
    terminal history is linearizable iff the configuration set is
    non-empty: still-pending operations not in a configuration's
    speculative set are dropped, the others completed, as Definition 2's
    completions allow.  Emptiness is detected at the response step that
    causes it and recorded sticky, so exploration below a doomed prefix
    fails fast.

    The per-event closure memoises on {!Checker.Memo_key} — the
    linearized-set bitset over the event's pending universe, paired with
    the specification state [repr] extended (chained [Value.Pair]s) with
    the chosen responses, which future response steps observe.

    {b Transition memo.}  A per-object transition is a pure function of
    the object's state and the event, and sibling interleavings that
    reorder {e other} objects' or processes' steps reach the same object
    state again.  Each object state therefore carries its successors:
    by invocation (keyed by the whole pending operation) and by
    response (keyed by call id and response value, stored with the
    closure's memo traffic, which a hit replays into the counters).
    Objects start from one pristine state per automaton root, so the
    memo is keyed by physical identity and needs no structural hashing.
    The cells are [Atomic.t] because one root state is shared by every
    exploration domain; entries are published with a CAS and never
    mutated afterwards. *)
module Incremental = struct
  module Imap = Map.Make (Int)

  type pending_op = {
    p_call : int;
    p_pid : int;
    p_op : string;
    p_args : Nvm.Value.t array;
  }

  (** One speculative configuration: pending operations already
      linearized (sorted by call id, with the chosen response) and the
      specification state reached. *)
  type config = {
    c_lin : (int * Nvm.Value.t) list;
    c_st : Spec.state;
  }

  type obj_state = {
    o_name : string;
    o_pending : pending_op list;  (** invocation order *)
    o_configs : config list;
        (** non-empty in every tracked state (emptiness is a sticky
            violation); only a memoised violating successor has none *)
    o_inv : (pending_op * obj_state) list Atomic.t;  (** successors by invocation *)
    o_res : res_edge list Atomic.t;  (** successors by response *)
  }

  (** A memoised response transition: the successor and the closure's
      memo traffic, replayed on every hit so that the counters do not
      depend on which path (or domain) computed the entry. *)
  and res_edge = {
    r_call : int;
    r_ret : Nvm.Value.t;
    r_next : obj_state;
    r_hits : int;
    r_misses : int;
  }

  type pstate = {
    ps_crashed : bool;  (** p's last step was a crash *)
    ps_stack : (int * int) list;  (** open operations, (obj, call_id), inner-most first *)
  }

  type t = {
    i_spec_for : int -> Spec.t option;
    i_nprocs : int;
    i_origins : (int * obj_state option) list Atomic.t;
        (** per object id, its pristine state ([None]: no known
            specification, skipped); shared by every state derived from
            one {!create} *)
    i_objs : obj_state Imap.t;
    i_procs : pstate array;  (** copy-on-write; never mutated in place *)
    i_consumed : int;  (** history steps folded in so far *)
    i_violation : string option;  (** sticky: set by the first violating step *)
  }

  (* Counter handles, resolved once per registry (a string-keyed lookup
     per step would dominate a memoised response).  The cache is per
     domain because each exploration worker counts into its own
     registry. *)
  type meters = {
    m_reg : Obs.Metrics.t;
    m_steps : Obs.Metrics.counter;
    m_res : Obs.Metrics.counter;
    m_hits : Obs.Metrics.counter;
    m_misses : Obs.Metrics.counter;
    m_closures : Obs.Metrics.counter;
  }

  let meters_cache : meters option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

  let meters reg =
    let cell = Domain.DLS.get meters_cache in
    match !cell with
    | Some m when m.m_reg == reg -> m
    | _ ->
      let c = Obs.Metrics.counter reg in
      let m =
        {
          m_reg = reg;
          m_steps = c Obs.Names.nrl_inc_steps;
          m_res = c Obs.Names.nrl_inc_res_transitions;
          m_hits = c Obs.Names.nrl_inc_memo_hits;
          m_misses = c Obs.Names.nrl_inc_memo_misses;
          m_closures = c Obs.Names.nrl_inc_closures;
        }
      in
      cell := Some m;
      m

  let obj_state name pending configs =
    {
      o_name = name;
      o_pending = pending;
      o_configs = configs;
      o_inv = Atomic.make [];
      o_res = Atomic.make [];
    }

  (* Look an entry up in [cell] with [find]; on a miss compute it with
     [make] and publish it with a CAS.  A domain that loses the race
     adopts the winner's entry (equal to its own, as every memoised
     transition is pure), so each key has one entry.  Also returns
     whether [make] ran. *)
  let memo cell ~find ~make =
    match find (Atomic.get cell) with
    | Some e -> (e, false)
    | None ->
      let e = make () in
      let rec publish () =
        let l = Atomic.get cell in
        match find l with
        | Some e' -> e'
        | None -> if Atomic.compare_and_set cell l (e :: l) then e else publish ()
      in
      (publish (), true)

  let create ~spec_for ~nprocs =
    {
      i_spec_for = spec_for;
      i_nprocs = nprocs;
      i_origins = Atomic.make [];
      i_objs = Imap.empty;
      i_procs = Array.make (max 1 nprocs) { ps_crashed = false; ps_stack = [] };
      i_consumed = 0;
      i_violation = None;
    }

  let consumed t = t.i_consumed
  let violation t = t.i_violation

  let shares_object_state a b o =
    match (Imap.find_opt o a.i_objs, Imap.find_opt o b.i_objs) with
    | Some x, Some y -> x == y
    | None, None -> true
    | _ -> false

  let set_proc t pid ps =
    let procs = Array.copy t.i_procs in
    procs.(pid) <- ps;
    { t with i_procs = procs }

  (* Object [o]'s pristine state, or [None] if it has no specification. *)
  let origin t o name =
    let (_, os), _ =
      memo t.i_origins
        ~find:(List.find_opt (fun (o', _) -> o' = o))
        ~make:(fun () ->
          let initial spec = { c_lin = []; c_st = spec.Spec.initial ~nprocs:t.i_nprocs } in
          (o, Option.map (fun spec -> obj_state name [] [ initial spec ]) (t.i_spec_for o)))
    in
    os

  let rec insert_lin ((c, _) as e) = function
    | [] -> [ e ]
    | ((c', _) as e') :: rest ->
      if c < c' then e :: e' :: rest else e' :: insert_lin e rest

  (* The chosen responses are part of a configuration's identity (a
     later response step filters on them), so chain them onto the state
     repr to form the [Value] half of the structural memo key. *)
  let encode_config lin repr =
    List.fold_left (fun acc (_, ret) -> Nvm.Value.Pair (ret, acc)) repr lin

  (* Close [os.o_configs] under linearizing pending operations until the
     responding operation [call_id] is placed with response [ret];
     configurations that already placed it survive iff the chosen
     response matches.  Returns the surviving configurations with the
     responding operation removed from both the speculative sets and the
     pending universe, deduplicated, as a memo entry. *)
  let res_transition os ~call_id ~ret =
    let pend = Array.of_list os.o_pending in
    let n = Array.length pend in
    let idx = Hashtbl.create (2 * n) in
    Array.iteri (fun i p -> Hashtbl.replace idx p.p_call i) pend;
    let mask_of lin =
      List.fold_left (fun m (c, _) -> Bitset.add m (Hashtbl.find idx c)) (Bitset.create n) lin
    in
    let memo : unit Checker.Memo.t = Checker.Memo.create 64 in
    let memo_hits = ref 0 and memo_misses = ref 0 in
    let survivors = ref [] in
    let rec go mask lin (st : Spec.state) =
      let key = (mask, encode_config lin st.Spec.repr) in
      if Checker.Memo.mem memo key then incr memo_hits
      else begin
        Checker.Memo.add memo key ();
        incr memo_misses;
        Array.iteri
          (fun i p ->
            if not (Bitset.mem mask i) then begin
              let target = p.p_call = call_id in
              let outcomes = st.Spec.apply ~pid:p.p_pid ~op:p.p_op ~args:p.p_args in
              let outcomes =
                if target then
                  List.filter (fun (r, _) -> Nvm.Value.equal r ret) outcomes
                else outcomes
              in
              List.iter
                (fun (r, st') ->
                  let lin' = insert_lin (p.p_call, r) lin in
                  if target then survivors := { c_lin = lin'; c_st = st' } :: !survivors
                  else go (Bitset.add mask i) lin' st')
                outcomes
            end)
          pend
      end
    in
    List.iter
      (fun c ->
        match List.assoc_opt call_id c.c_lin with
        | Some r0 -> if Nvm.Value.equal r0 ret then survivors := c :: !survivors
        | None -> go (mask_of c.c_lin) c.c_lin c.c_st)
      os.o_configs;
    (* commit: the responding operation leaves the pending universe *)
    let pending' = List.filter (fun p -> p.p_call <> call_id) os.o_pending in
    let idx' = Hashtbl.create (2 * n) in
    List.iteri (fun i p -> Hashtbl.replace idx' p.p_call i) pending';
    let n' = List.length pending' in
    let dedup : unit Checker.Memo.t = Checker.Memo.create 16 in
    let configs' =
      List.filter_map
        (fun c ->
          let lin = List.remove_assoc call_id c.c_lin in
          let mask =
            List.fold_left
              (fun m (cid, _) -> Bitset.add m (Hashtbl.find idx' cid))
              (Bitset.create n') lin
          in
          let key = (mask, encode_config lin c.c_st.Spec.repr) in
          if Checker.Memo.mem dedup key then None
          else begin
            Checker.Memo.add dedup key ();
            Some { c_lin = lin; c_st = c.c_st }
          end)
        !survivors
    in
    {
      r_call = call_id;
      r_ret = ret;
      r_next = obj_state os.o_name pending' configs';
      r_hits = !memo_hits;
      r_misses = !memo_misses;
    }

  let fail t m = { t with i_violation = Some m }

  let same_op p q =
    p.p_call = q.p_call && p.p_pid = q.p_pid && String.equal p.p_op q.p_op
    && Array.length p.p_args = Array.length q.p_args
    && Array.for_all2 Nvm.Value.equal p.p_args q.p_args

  let obj_inv t (opref : History.Step.opref) ~pid ~args ~call_id =
    let o = opref.History.Step.obj in
    let from =
      match Imap.find_opt o t.i_objs with
      | Some os -> Some os
      | None -> origin t o opref.History.Step.obj_name
    in
    match from with
    | None -> t
    | Some os ->
      let p = { p_call = call_id; p_pid = pid; p_op = opref.History.Step.op; p_args = args } in
      let (_, os'), _ =
        memo os.o_inv
          ~find:(List.find_opt (fun (q, _) -> same_op p q))
          ~make:(fun () -> (p, obj_state os.o_name (os.o_pending @ [ p ]) os.o_configs))
      in
      { t with i_objs = Imap.add o os' t.i_objs }

  let obj_res meters t (opref : History.Step.opref) ~call_id ~ret =
    let o = opref.History.Step.obj in
    match Imap.find_opt o t.i_objs with
    | None ->
      if Option.is_none (origin t o opref.History.Step.obj_name) then t
      else
        fail t
          (Fmt.str "response on object %s without a tracked invocation"
             opref.History.Step.obj_name)
    | Some os ->
      let e, computed =
        memo os.o_res
          ~find:(List.find_opt (fun e -> e.r_call = call_id && Nvm.Value.equal e.r_ret ret))
          ~make:(fun () -> res_transition os ~call_id ~ret)
      in
      (match meters with
      | Some m ->
        Obs.Metrics.Counter.incr m.m_res;
        Obs.Metrics.Counter.add m.m_hits e.r_hits;
        Obs.Metrics.Counter.add m.m_misses e.r_misses;
        if computed then Obs.Metrics.Counter.incr m.m_closures
      | None -> ());
      if e.r_next.o_configs = [] then
        fail t
          (Fmt.str "N(H) not linearizable for object(s): %s (no configuration admits %s -> %a)"
             os.o_name opref.History.Step.op Nvm.Value.pp ret)
      else { t with i_objs = Imap.add o e.r_next t.i_objs }

  (* Fold one history step into the automaton.  Violations are sticky:
     once set, further steps only advance the consumed count. *)
  let step_with meters t (s : History.Step.t) =
    (match meters with Some m -> Obs.Metrics.Counter.incr m.m_steps | None -> ());
    let t = { t with i_consumed = t.i_consumed + 1 } in
    if t.i_violation <> None then t
    else begin
      let pid = History.Step.pid s in
      let ps = t.i_procs.(pid) in
      match s with
      | History.Step.Rec _ ->
        if not ps.ps_crashed then
          fail t (Fmt.str "p%d: recovery step without preceding crash" pid)
        else set_proc t pid { ps with ps_crashed = false }
      | _ when ps.ps_crashed ->
        fail t (Fmt.str "p%d: crash step not followed by a matching recovery step" pid)
      | History.Step.Crash _ ->
        (* the crashed operation stays pending in its object's automaton;
           N(H) simply omits the crash step *)
        set_proc t pid { ps with ps_crashed = true }
      | History.Step.Inv { opref; args; call_id; _ } ->
        if List.exists (fun (o, _) -> o = opref.History.Step.obj) ps.ps_stack then
          fail t
            (Fmt.str "p%d invoked a second operation on object %d while one is pending" pid
               opref.History.Step.obj)
        else
          let t =
            set_proc t pid
              { ps with ps_stack = (opref.History.Step.obj, call_id) :: ps.ps_stack }
          in
          obj_inv t opref ~pid ~args ~call_id
      | History.Step.Res { opref; ret; call_id; _ } -> (
        match ps.ps_stack with
        | (o, c) :: rest when c = call_id && o = opref.History.Step.obj ->
          let t = set_proc t pid { ps with ps_stack = rest } in
          obj_res meters t opref ~call_id ~ret
        | _ ->
          fail t
            (Fmt.str "p%d: response does not match the inner-most pending invocation" pid))
    end

  let step ?obs t s = step_with (Option.map meters obs) t s

  let steps ?obs t l =
    let meters = Option.map meters obs in
    List.fold_left (step_with meters) t l
end

(** Definition 1 (strict recoverable operations): every response of an
    operation that declares a designated per-process persistent response
    variable must find its response value already persisted there.  The
    machine stamps each response step with that fact; this function
    returns the stamped-false responses. *)
let strictness_violations (h : History.t) =
  List.filter
    (function
      | History.Step.Res { persisted = Some false; _ } -> true
      | _ -> false)
    (History.to_list h)
