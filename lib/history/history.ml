(** Histories and their sub-histories, following Section 2 of the paper. *)

module Step = Step

type t = Step.t array

let of_list = Array.of_list
let to_list = Array.to_list
let length = Array.length
let is_empty h = Array.length h = 0

let pp ppf (h : t) =
  Fmt.pf ppf "@[<v>";
  Array.iteri (fun i s -> Fmt.pf ppf "%3d: %a@," i Step.pp s) h;
  Fmt.pf ppf "@]"

let filter f (h : t) : t =
  Array.of_list (List.filter f (Array.to_list h))

(** [H|p]: the subhistory of all steps by process [p]. *)
let by_proc (h : t) p = filter (fun s -> Step.pid s = p) h

(** [H|O]: all invoke and response steps on object [o], plus any crash step
    whose crashed operation is on [o] and the matching recovery step by the
    same process (if present).  Matching recovery steps are identified as
    the first [Rec] step of the crashing process after the crash. *)
let by_object (h : t) o : t =
  let n = Array.length h in
  let keep = Array.make n false in
  for i = 0 to n - 1 do
    match h.(i) with
    | Step.Inv { opref; _ } | Step.Res { opref; _ } ->
      if opref.Step.obj = o then keep.(i) <- true
    | Step.Crash { pid; crashed = Some (opref, _) } when opref.Step.obj = o ->
      keep.(i) <- true;
      (* the matching recovery step is p's next step, if it is a Rec *)
      let rec find j =
        if j >= n then ()
        else
          match h.(j) with
          | Step.Rec { pid = q } when q = pid -> keep.(j) <- true
          | s when Step.pid s = pid -> ()
          | _ -> find (j + 1)
      in
      find (i + 1)
    | Step.Crash _ | Step.Rec _ -> ()
  done;
  let out = ref [] in
  for i = n - 1 downto 0 do
    if keep.(i) then out := h.(i) :: !out
  done;
  Array.of_list !out

(** Bucket the steps of [h] by [key] in one pass, keeping history order
    within a bucket and dropping steps keyed [None]; the returned lookup
    maps an absent key to the empty history. *)
let group_by key (h : t) =
  let tbl = Hashtbl.create 16 in
  for i = Array.length h - 1 downto 0 do
    match key h.(i) with
    | Some k ->
      Hashtbl.replace tbl k (h.(i) :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
    | None -> ()
  done;
  fun k -> match Hashtbl.find_opt tbl k with Some l -> Array.of_list l | None -> [||]

(** [N(H)]: the history obtained by removing all crash and recovery steps. *)
let n_of (h : t) : t =
  filter (function Step.Crash _ | Step.Rec _ -> false | _ -> true) h

let is_crash_free (h : t) =
  Array.for_all (function Step.Crash _ | Step.Rec _ -> false | _ -> true) h

(** All object ids appearing in [h]. *)
let objects (h : t) =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun s ->
      match s with
      | Step.Inv { opref; _ } | Step.Res { opref; _ } ->
        Hashtbl.replace tbl opref.Step.obj ()
      | Step.Crash { crashed = Some (opref, _); _ } ->
        Hashtbl.replace tbl opref.Step.obj ()
      | Step.Crash _ | Step.Rec _ -> ())
    h;
  List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

(** All process ids appearing in [h]. *)
let procs (h : t) =
  let tbl = Hashtbl.create 8 in
  Array.iter (fun s -> Hashtbl.replace tbl (Step.pid s) ()) h;
  List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

(** A completed operation of a crash-free object subhistory, for the
    happens-before order and for the linearizability checker. *)
type op_record = {
  pid : int;
  opref : Step.opref;
  args : Nvm.Value.t array;
  ret : Nvm.Value.t option;  (** [None] while pending *)
  inv_pos : int;  (** index of the invocation step in the source history *)
  res_pos : int option;
  call_id : int;
}

(** Extract operation records (completed and pending) from a history,
    ignoring crash/recovery steps.  Records are ordered by invocation.
    Each invocation gets one mutable cell, which its response (the next
    [Res] with the same call id) fills in place, so the pass is linear. *)
let ops_of (h : t) : op_record list =
  let open Step in
  let pending : (int, op_record ref) Hashtbl.t = Hashtbl.create 16 in
  let out = ref [] in
  Array.iteri
    (fun i s ->
      match s with
      | Inv { pid; opref; args; call_id } ->
        let r =
          ref { pid; opref; args; ret = None; inv_pos = i; res_pos = None; call_id }
        in
        Hashtbl.replace pending call_id r;
        out := r :: !out
      | Res { ret; call_id; _ } -> (
        match Hashtbl.find_opt pending call_id with
        | None -> ()
        | Some r ->
          Hashtbl.remove pending call_id;
          r := { !r with ret = Some ret; res_pos = Some i })
      | Crash _ | Rec _ -> ())
    h;
  List.rev_map ( ! ) !out

(** [happens_before a b] per the paper: [a]'s response step precedes [b]'s
    invocation step. *)
let happens_before a b =
  match a.res_pos with Some r -> r < b.inv_pos | None -> false

let concurrent a b = (not (happens_before a b)) && not (happens_before b a)

(** Well-formedness checks from Section 2 (Definitions preceding Def. 3 and
    Definition 3 itself). *)
module Wellformed = struct
  type result = Ok | Violation of string

  let is_ok = function Ok -> true | Violation _ -> false

  let pp_result ppf = function
    | Ok -> Fmt.string ppf "well-formed"
    | Violation msg -> Fmt.pf ppf "violation: %s" msg

  (* A crash-free subhistory [H|<p,O>] must be a sequence of alternating,
     matching invocation and response steps, starting with an invocation
     (possibly ending with a pending invocation). *)
  let check_alternating ~p ~o (h : t) =
    let open Step in
    let state = ref None (* pending call_id *) in
    let bad = ref None in
    Array.iter
      (fun s ->
        if !bad = None then
          match s, !state with
          | Inv { call_id; _ }, None -> state := Some call_id
          | Inv _, Some _ ->
            bad :=
              Some
                (Fmt.str "p%d invoked a second operation on object %d while one is pending"
                   p o)
          | Res { call_id; _ }, Some pending when call_id = pending -> state := None
          | Res _, Some _ ->
            bad := Some (Fmt.str "p%d: response does not match pending invocation on object %d" p o)
          | Res _, None ->
            bad := Some (Fmt.str "p%d: response without invocation on object %d" p o)
          | (Crash _ | Rec _), _ -> ())
      h;
    match !bad with Some m -> Violation m | None -> Ok

  (* Requirement (2) of crash-free well-formedness: per process, matched
     invocation/response pairs are properly nested: if i1 < i2 < r1 then
     r2 < r1.  One pass over p's completed operations in invocation
     order, with the operations still open at the current invocation on
     a stack, each paired with its response position.  Until a violation
     is found, every pushed operation responds before all operations
     below it, so the stack's top responds first: the operations closed
     by the current invocation are a top segment, and an operation that
     responds after some open operation responds after the top one.
     Operations that never respond (left pending by a crash) are
     exempt. *)
  let check_nesting ~p (h : t) =
    let rec go stack = function
      | [] -> Ok
      | (b : op_record) :: rest -> (
        let r2 = Option.get b.res_pos in
        let rec close = function
          | (_, r1) :: below when r1 < b.inv_pos -> close below
          | stack -> stack
        in
        match close stack with
        | (a, r1) :: _ when r2 >= r1 ->
          Violation
            (Fmt.str "p%d: operation %s (#%d) invoked inside %s (#%d) responds after it" p
               b.opref.Step.op b.call_id a.opref.Step.op a.call_id)
        | stack -> go ((b, r2) :: stack) rest)
    in
    go [] (List.filter (fun (r : op_record) -> r.pid = p && r.res_pos <> None) (ops_of h))

  (* Also require that a pending inner operation blocks the outer from
     responding: if i1 < i2, op2 pending, then op1 must be pending too.
     This is implied by requirement (2) read contrapositively and holds in
     all histories the machine produces. *)

  (** Crash-free well-formedness: (1) every [H|O] is well-formed; (2) the
      per-process nesting condition. *)
  let check_well_formed (h : t) =
    if not (is_crash_free h) then
      Violation "history contains crash/recovery steps (use recoverable well-formedness)"
    else
      let on_pair =
        group_by
          (function
            | Step.Inv { pid; opref; _ } | Step.Res { pid; opref; _ } ->
              Some (opref.Step.obj, pid)
            | Step.Crash _ | Step.Rec _ -> None)
          h
      and on_proc = group_by (fun s -> Some (Step.pid s)) h
      and procs = procs h in
      let results =
        List.concat_map
          (fun o -> List.map (fun p -> check_alternating ~p ~o (on_pair (o, p))) procs)
          (objects h)
        @ List.map (fun p -> check_nesting ~p (on_proc p)) procs
      in
      match List.find_opt (fun r -> not (is_ok r)) results with
      | Some v -> v
      | None -> Ok

  (** Definition 3 (Recoverable Well-Formedness): (1) every crash step of
      [p] is either [p]'s last step or is followed in [H|p] by a matching
      recovery step; (2) [N(H)] is well-formed. *)
  let check_recoverable_well_formed (h : t) =
    let open Step in
    let on_proc = group_by (fun s -> Some (Step.pid s)) h in
    let crash_rule =
      List.fold_left
        (fun acc p ->
          if not (is_ok acc) then acc
          else begin
            let hp = on_proc p in
            let n = Array.length hp in
            let bad = ref None in
            Array.iteri
              (fun i s ->
                if !bad = None then
                  match s with
                  | Crash _ ->
                    if i < n - 1 then begin
                      match hp.(i + 1) with
                      | Rec _ -> ()
                      | _ ->
                        bad :=
                          Some
                            (Fmt.str "p%d: crash step not followed by a matching recovery step" p)
                    end
                  | Rec _ ->
                    if i = 0 then
                      bad := Some (Fmt.str "p%d: recovery step without preceding crash" p)
                    else begin
                      match hp.(i - 1) with
                      | Crash _ -> ()
                      | _ ->
                        bad := Some (Fmt.str "p%d: recovery step without preceding crash" p)
                    end
                  | Inv _ | Res _ -> ())
              hp;
            match !bad with Some m -> Violation m | None -> Ok
          end)
        Ok (procs h)
    in
    if not (is_ok crash_rule) then crash_rule else check_well_formed (n_of h)
end
