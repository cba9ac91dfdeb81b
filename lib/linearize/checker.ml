(** Linearizability checker (Definition 2), in the style of Wing & Gong
    with Lowe's memoisation.

    Given a crash-free history of a single object and the object's
    sequential specification, the checker searches for a completion and a
    legal sequential ordering that respects the real-time (happens-before)
    order.  Pending operations may either be linearized with some legal
    response or dropped, exactly as Definition 2's notion of completion
    allows.  Visited (linearized-set, specification-state) pairs are
    memoised, which keeps the search tractable on the history sizes the
    simulator produces. *)

type linearization = (History.op_record * Nvm.Value.t) list

type verdict =
  | Linearizable of linearization
  | Not_linearizable of string

let is_linearizable = function Linearizable _ -> true | Not_linearizable _ -> false

let pp_verdict ppf = function
  | Linearizable w ->
    Fmt.pf ppf "linearizable: @[<h>%a@]"
      Fmt.(
        list ~sep:sp (fun ppf ((r : History.op_record), ret) ->
            Fmt.pf ppf "p%d:%s->%a" r.pid r.opref.History.Step.op Nvm.Value.pp ret))
      w
  | Not_linearizable msg -> Fmt.pf ppf "NOT linearizable: %s" msg

exception Success of linearization

(* The memoisation key: which operations have been linearized, plus the
   specification state reached.  Structural — the bitset's words and the
   spec-state value are hashed and compared directly, so the hot path
   allocates no intermediate strings (the former key concatenated
   [Bitset.key] with [Value.to_string] at every visited node). *)
module Memo_key = struct
  type t = Bitset.t * Nvm.Value.t

  let equal (b1, v1) (b2, v2) = Bitset.equal b1 b2 && Nvm.Value.equal v1 v2
  let hash (b, v) = ((Bitset.hash b * 0x01000193) lxor Nvm.Value.hash v) land max_int
end

module Memo = Hashtbl.Make (Memo_key)

(** [check_object ~spec ~nprocs h] checks the crash-free single-object
    history [h].  All completed operations must be linearized; pending
    invocations may be completed with a legal response or dropped.
    [memo] (default true) enables Lowe-style memoisation of visited
    (linearized-set, spec-state) pairs; the verdict is identical with it
    off, only slower — the switch exists so tests can cross-check the
    memoised search against the plain one.

    Each search node scans a window of [ops] rather than all of them.
    [ops] is in invocation order, and [go] carries [lo], the lowest index
    of a completed operation not yet linearized.  Below [lo] only
    never-responding operations can still be unlinearized, and they are
    all candidates, since they were invoked before every remaining
    response.  From [lo] up, an operation invoked at or after the current
    minimum response cannot lower it, nor be a candidate, so both the
    real-time frontier and the candidates come from scanning [lo] up to
    the first invocation at or past the frontier.  Candidates are tried
    in ascending index order, as a scan of all of [ops] would, so the
    search, its memo traffic and its witness do not depend on the
    window. *)
let search ?(memo = true) ?obs ~(spec : Spec.t) ~nprocs ops : verdict =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  let completed = Array.map (fun (r : History.op_record) -> r.ret <> None) ops in
  let n_completed = Array.fold_left (fun a c -> if c then a + 1 else a) 0 completed in
  let res_pos =
    Array.map (fun (r : History.op_record) -> Option.value r.res_pos ~default:max_int) ops
  in
  let never_responding = List.filter (fun i -> not completed.(i)) (List.init n Fun.id) in
  let seen : unit Memo.t = Memo.create 1024 in
  let best_progress = ref 0 in
  (* memo traffic lands in plain local refs on the hot path and is summed
     into [obs] once per check, whatever exit is taken *)
  let memo_hits = ref 0 and expanded = ref 0 in
  (* the first completed, unlinearized index at or after [i] *)
  let rec next_lo linearized i =
    if i < n && ((not completed.(i)) || Bitset.mem linearized i) then next_lo linearized (i + 1)
    else i
  in
  let rec go linearized lo state acc done_completed =
    if done_completed = n_completed then raise (Success (List.rev acc));
    let key = (linearized, state.Spec.repr) in
    if memo && Memo.mem seen key then incr memo_hits
    else begin
      if memo then Memo.add seen key ();
      incr expanded;
      if done_completed > !best_progress then best_progress := done_completed;
      (* minimal response position among unlinearized completed ops: an
         op can be linearized next only if it was invoked before it *)
      let rec min_res m j =
        if j < n && ops.(j).inv_pos < m then
          min_res
            (if completed.(j) && not (Bitset.mem linearized j) then min m res_pos.(j) else m)
            (j + 1)
        else m
      in
      let frontier = min_res res_pos.(lo) (lo + 1) in
      let try_op i =
        let r = ops.(i) in
        let outcomes = state.Spec.apply ~pid:r.pid ~op:r.opref.History.Step.op ~args:r.args in
        let outcomes =
          match r.ret with
          | Some ret -> List.filter (fun (ret', _) -> Nvm.Value.equal ret ret') outcomes
          | None -> outcomes
        in
        if outcomes <> [] then begin
          let linearized' = Bitset.add linearized i in
          let lo' = if i = lo then next_lo linearized' (lo + 1) else lo in
          let done' = if completed.(i) then done_completed + 1 else done_completed in
          List.iter (fun (ret, state') -> go linearized' lo' state' ((r, ret) :: acc) done') outcomes
        end
      in
      List.iter
        (fun i -> if i < lo && not (Bitset.mem linearized i) then try_op i)
        never_responding;
      let rec window i =
        if i < n && ops.(i).inv_pos < frontier then begin
          if not (Bitset.mem linearized i) then try_op i;
          window (i + 1)
        end
      in
      window lo
    end
  in
  let finish verdict =
    (match obs with
    | Some reg ->
      Obs.Metrics.Counter.incr (Obs.Metrics.counter reg Obs.Names.checker_object_checks);
      Obs.Metrics.Counter.add (Obs.Metrics.counter reg Obs.Names.checker_memo_hits) !memo_hits;
      Obs.Metrics.Counter.add (Obs.Metrics.counter reg Obs.Names.checker_memo_misses) !expanded
    | None -> ());
    verdict
  in
  if n = 0 then finish (Linearizable [])
  else
    finish
      (try
         let none = Bitset.create n in
         go none (next_lo none 0) (spec.Spec.initial ~nprocs) [] 0;
         Not_linearizable
           (Fmt.str "no legal linearization (best: %d of %d completed ops ordered)"
              !best_progress n_completed)
       with Success w -> Linearizable w)

let check_object ?memo ?obs ~spec ~nprocs (h : History.t) =
  search ?memo ?obs ~spec ~nprocs (History.ops_of h)

type object_report = {
  obj : int;
  obj_name : string;
  verdict : verdict option;  (** [None] if no specification is known *)
}

(** Check every object of a crash-free history, using linearizability's
    locality: the history is linearizable iff each per-object subhistory
    is. *)
let check_all ?obs ~spec_for ~nprocs (h : History.t) : object_report list =
  match History.objects h with
  | [] -> []
  | lo :: _ as objects ->
    (* each object's invocations and responses, in history order, in one
       pass over [h]; ids are small, so an array indexed by id holds them *)
    let on_object = Array.make (List.fold_left max lo objects - lo + 1) [] in
    for i = Array.length h - 1 downto 0 do
      match h.(i) with
      | History.Step.Inv { opref; _ } | History.Step.Res { opref; _ } ->
        let k = opref.History.Step.obj - lo in
        on_object.(k) <- h.(i) :: on_object.(k)
      | History.Step.Crash _ | History.Step.Rec _ -> ()
    done;
    List.map
      (fun o ->
        let ops = History.ops_of (Array.of_list on_object.(o - lo)) in
        let name =
          match ops with
          | r :: _ -> r.opref.History.Step.obj_name
          | [] -> Printf.sprintf "obj%d" o
        in
        match spec_for o with
        | None -> { obj = o; obj_name = name; verdict = None }
        | Some spec ->
          { obj = o; obj_name = name; verdict = Some (search ?obs ~spec ~nprocs ops) })
      objects
