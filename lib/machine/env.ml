(** Volatile process-local variables.

    In the paper's model each process has local variables stored in volatile
    processor registers; a crash-failure resets them all to {e arbitrary}
    values.  We model the strongest reading of "arbitrary": a scrambled
    environment answers {e every} lookup (even of names that were never
    bound) with adversarially generated junk, so an algorithm that relies on
    any local value across a crash is certain to misbehave in tests. *)

type t = {
  tbl : (string, Nvm.Value.t) Hashtbl.t;
  mutable junk : Junk.t option;
      (** [Some j] once the environment has been scrambled by a crash:
          unbound lookups then produce junk instead of failing. *)
  mutable trail : Nvm.Trail.t option;
      (** when set, every binding mutation and junk draw logs an undo
          thunk; never propagated by {!copy} *)
}

exception Unbound_local of string

let create () = { tbl = Hashtbl.create 8; junk = None; trail = None }

(** A fresh environment in post-crash mode: empty, but reads of unbound
    names yield arbitrary junk instead of raising.  Recovery functions
    run in such environments — the paper's locals are "arbitrary" after a
    crash, so a recovery that reads before writing sees garbage (and the
    NRL checker catches any resulting misbehaviour) rather than aborting
    the simulation. *)
let create_post_crash junk = { tbl = Hashtbl.create 8; junk = Some junk; trail = None }

let copy ~junk t =
  { tbl = Hashtbl.copy t.tbl; junk = Option.map (fun _ -> junk) t.junk; trail = None }

let set_trail t trail = t.trail <- trail

(* Undo thunk for one binding: re-install its previous value, or remove
   it if it was absent. *)
let log_binding t name =
  match t.trail with
  | None -> ()
  | Some tr -> (
    match Hashtbl.find_opt t.tbl name with
    | Some old -> Nvm.Trail.push tr (fun () -> Hashtbl.replace t.tbl name old)
    | None -> Nvm.Trail.push tr (fun () -> Hashtbl.remove t.tbl name))

let set t name v =
  log_binding t name;
  Hashtbl.replace t.tbl name v

let get t name =
  match Hashtbl.find_opt t.tbl name with
  | Some v -> v
  | None -> (
    match t.junk with
    | Some j ->
      (* an uninitialised register read after a crash: arbitrary contents.
         The draw both caches a binding and advances the generator; trail
         both so a backtracked machine re-draws the same junk. *)
      (match t.trail with
      | None -> ()
      | Some tr ->
        let s = Junk.state j in
        Nvm.Trail.push tr (fun () ->
            Hashtbl.remove t.tbl name;
            Junk.set_state j s));
      let v = Junk.next j in
      Hashtbl.replace t.tbl name v;
      v
    | None -> raise (Unbound_local name))

let mem t name = Hashtbl.mem t.tbl name

(** Reset every local variable to an arbitrary value (crash semantics). *)
let scramble t junk =
  (match t.trail with
  | None -> ()
  | Some tr ->
    let old_junk = t.junk and s = Junk.state junk in
    let olds = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl [] in
    Nvm.Trail.push tr (fun () ->
        List.iter (fun (k, v) -> Hashtbl.replace t.tbl k v) olds;
        t.junk <- old_junk;
        Junk.set_state junk s));
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] in
  List.iter (fun k -> Hashtbl.replace t.tbl k (Junk.next junk)) keys;
  t.junk <- Some junk

(** Generator state of a scrambled environment ([None] while strict).
    Part of what determines future behaviour: a scrambled environment
    answers unbound lookups from this stream. *)
let junk_state t = Option.map Junk.state t.junk

(* keys are unique, so ordering by key alone is a total order; an empty
   table (a frame that has bound nothing yet) skips the fold *)
let bindings t =
  if Hashtbl.length t.tbl = 0 then []
  else
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl [])

let pp ppf t =
  Fmt.pf ppf "{%a}"
    Fmt.(list ~sep:semi (pair ~sep:(any "=") string Nvm.Value.pp))
    (bindings t)
