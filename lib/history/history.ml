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

  let second_invocation ~p ~o =
    Fmt.str "p%d invoked a second operation on object %d while one is pending" p o

  let mismatched_response ~p ~o =
    Fmt.str "p%d: response does not match pending invocation on object %d" p o

  let orphan_response ~p ~o = Fmt.str "p%d: response without invocation on object %d" p o

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
          | Inv _, Some _ -> bad := Some (second_invocation ~p ~o)
          | Res { call_id; _ }, Some pending when call_id = pending -> state := None
          | Res _, Some _ -> bad := Some (mismatched_response ~p ~o)
          | Res _, None -> bad := Some (orphan_response ~p ~o)
          | (Crash _ | Rec _), _ -> ())
      h;
    match !bad with Some m -> Violation m | None -> Ok

  (* Requirement (2) of crash-free well-formedness: per process, matched
     invocation/response pairs are properly nested: if i1 < i2 < r1 then
     r2 < r1.  [res_at.(j)] is the position of the response to the
     invocation at position [j] of [h], or [-1] if it never responds
     (left pending by a crash: exempt).  One sweep over the invocations
     keeps, per process slot ([slot_of pid], [-1] skips the process), the
     completed operations still open at the current invocation on a
     stack, each paired with its response position.  Until a violation
     is found, every pushed operation responds before all operations
     below it, so the stack's top responds first: the operations closed
     by the current invocation are a top segment, and an operation that
     responds after some open operation responds after the top one.
     Reports the first violation of the lowest slot. *)
  let rec close j = function (_, r1) :: below when r1 < j -> close j below | stack -> stack

  let nesting_sweep (h : t) res_at ~slot_of ~nslots =
    let stacks = Array.make nslots [] and bad = Array.make nslots None in
    for j = 0 to Array.length h - 1 do
      match h.(j) with
      | Step.Inv { pid; opref; call_id; _ } when res_at.(j) >= 0 -> (
        let k = slot_of pid in
        if k >= 0 && Option.is_none bad.(k) then
          let r2 = res_at.(j) in
          match close j stacks.(k) with
          | (a, r1) :: _ when r2 >= r1 -> (
            match h.(a) with
            | Step.Inv { opref = outer; call_id = outer_id; _ } ->
              bad.(k) <-
                Some
                  (Fmt.str "p%d: operation %s (#%d) invoked inside %s (#%d) responds after it"
                     pid opref.Step.op call_id outer.Step.op outer_id)
            | _ -> assert false)
          | stack -> stacks.(k) <- (j, r2) :: stack)
      | _ -> ()
    done;
    match Array.find_opt Option.is_some bad with
    | Some (Some m) -> Violation m
    | _ -> Ok

  let check_nesting ~p (h : t) =
    let res_at = Array.make (Array.length h) (-1) in
    List.iter
      (fun (r : op_record) ->
        match r.res_pos with Some i when r.pid = p -> res_at.(r.inv_pos) <- i | _ -> ())
      (ops_of h);
    nesting_sweep h res_at ~slot_of:(fun q -> if q = p then 0 else -1) ~nslots:1

  (* Also require that a pending inner operation blocks the outer from
     responding: if i1 < i2, op2 pending, then op1 must be pending too.
     This is implied by requirement (2) read contrapositively and holds in
     all histories the machine produces. *)

  let call_of (h : t) j =
    match h.(j) with Step.Inv { call_id; _ } -> call_id | _ -> assert false

  let rec waits_for h c = function
    | [] -> false
    | j :: rest -> call_of h j = c || waits_for h c rest

  let rec drop_call h c = function
    | [] -> []
    | j :: rest -> if call_of h j = c then rest else j :: drop_call h c rest

  (* the response at [i] answers the awaiting invocation of call [c] *)
  let rec answer h res_at i c = function
    | [] -> []
    | j :: rest ->
      if call_of h j = c then begin
        res_at.(j) <- i;
        rest
      end
      else j :: answer h res_at i c rest

  (* Definition 3 (1), per process: the kind of its previous step, and
     its first violation *)
  let no_step = 0 and crash_step = 1 and other_step = 2
  let unmatched_crash = 1 and stray_recovery = 2

  (* the first alternation violation of an (object, process) pair *)
  let second_inv = 1 and mismatched_res = 2 and orphan_res = 3

  (* Well-formedness of [N(H)] (every [H|<p,O>] alternates, requirement
     (2) per process), and with [recoverable] also Definition 3 (1), in
     one pass over [h] that skips crash and recovery steps for the [N(H)]
     part; [N(H)] itself is never built.  State lives in arrays indexed
     by process (offset by the least pid) and by (object, process) pair.
     The verdict is the first violation in a fixed order: Definition 3
     (1) by process; then alternation by object, then process; then
     nesting by process — within one process or pair, its earliest
     step. *)
  let check ~recoverable (h : t) =
    let n = Array.length h in
    if n = 0 then Ok
    else begin
      let p_lo = ref max_int and p_hi = ref min_int in
      let o_lo = ref max_int and o_hi = ref min_int in
      for i = 0 to n - 1 do
        let p = Step.pid h.(i) in
        if p < !p_lo then p_lo := p;
        if p > !p_hi then p_hi := p;
        match h.(i) with
        | Step.Inv { opref; _ } | Step.Res { opref; _ } ->
          if opref.Step.obj < !o_lo then o_lo := opref.Step.obj;
          if opref.Step.obj > !o_hi then o_hi := opref.Step.obj
        | Step.Crash _ | Step.Rec _ -> ()
      done;
      let p_lo = !p_lo and o_lo = !o_lo in
      let np = !p_hi - p_lo + 1 and no = max 0 (!o_hi - o_lo + 1) in
      let last = Array.make np no_step and crash_bad = Array.make np 0 in
      (* per (object, process) pair: is an invocation open, its call id,
         and the first alternation violation *)
      let opened = Array.make (no * np) false
      and pending = Array.make (no * np) 0
      and alt_bad = Array.make (no * np) 0 in
      (* [ops_of]'s matching within [N(H)|p]: p's invocations awaiting a
         response, newest first, and each invocation's response position *)
      let waiting = Array.make np [] and res_at = Array.make n (-1) in
      for i = 0 to n - 1 do
        let s = h.(i) in
        let k = Step.pid s - p_lo in
        if recoverable && crash_bad.(k) = 0 then begin
          let prev = last.(k) in
          (match s with
          | Step.Rec _ -> if prev <> crash_step then crash_bad.(k) <- stray_recovery
          | Step.Crash _ | Step.Inv _ | Step.Res _ ->
            if prev = crash_step then crash_bad.(k) <- unmatched_crash);
          last.(k) <- (match s with Step.Crash _ -> crash_step | _ -> other_step)
        end;
        match s with
        | Step.Inv { opref; call_id; _ } ->
          let c = ((opref.Step.obj - o_lo) * np) + k in
          if alt_bad.(c) = 0 then
            if opened.(c) then alt_bad.(c) <- second_inv
            else begin
              opened.(c) <- true;
              pending.(c) <- call_id
            end;
          let w = waiting.(k) in
          waiting.(k) <- i :: (if waits_for h call_id w then drop_call h call_id w else w)
        | Step.Res { opref; call_id; _ } ->
          let c = ((opref.Step.obj - o_lo) * np) + k in
          if alt_bad.(c) = 0 then
            if not opened.(c) then alt_bad.(c) <- orphan_res
            else if pending.(c) = call_id then opened.(c) <- false
            else alt_bad.(c) <- mismatched_res;
          let w = waiting.(k) in
          if waits_for h call_id w then waiting.(k) <- answer h res_at i call_id w
        | Step.Crash _ | Step.Rec _ -> ()
      done;
      let rec first a i =
        if i >= Array.length a then -1 else if a.(i) <> 0 then i else first a (i + 1)
      in
      match first crash_bad 0 with
      | k when k >= 0 ->
        let p = k + p_lo in
        Violation
          (if crash_bad.(k) = unmatched_crash then
             Fmt.str "p%d: crash step not followed by a matching recovery step" p
           else Fmt.str "p%d: recovery step without preceding crash" p)
      | _ -> (
        match first alt_bad 0 with
        | c when c >= 0 ->
          let p = (c mod np) + p_lo and o = (c / np) + o_lo in
          Violation
            (if alt_bad.(c) = second_inv then second_invocation ~p ~o
             else if alt_bad.(c) = mismatched_res then mismatched_response ~p ~o
             else orphan_response ~p ~o)
        | _ -> nesting_sweep h res_at ~slot_of:(fun pid -> pid - p_lo) ~nslots:np)
    end

  (** Crash-free well-formedness: (1) every [H|O] is well-formed; (2) the
      per-process nesting condition. *)
  let check_well_formed (h : t) =
    if not (is_crash_free h) then
      Violation "history contains crash/recovery steps (use recoverable well-formedness)"
    else check ~recoverable:false h

  (** Definition 3 (Recoverable Well-Formedness): (1) every crash step of
      [p] is either [p]'s last step or is followed in [H|p] by a matching
      recovery step; (2) [N(H)] is well-formed. *)
  let check_recoverable_well_formed (h : t) = check ~recoverable:true h
end
