(* A keyed namespace of native recoverable objects, operated by exactly
   one shard worker (every object is created with nprocs = 1, pid 0 —
   the service's concurrency lives in the shard queues, not inside the
   objects).  The [pending] slot is the wrapper-held system metadata of
   the paper's model: the in-flight operation's arguments survive a
   crash on the OCaml heap (the simulated NVRAM), while the worker's
   locals are discarded with the raised [Crash.Crashed], exactly like
   volatile registers.  The counter and FAA keep their own progress
   ([LI_p]); the CAS bump and max are composed here, so [pending] keeps
   their nested CAS's arguments too. *)

module Rcounter = Runtime.Rcounter
module Rfaa = Runtime.Rfaa
module Rcas = Runtime.Rcas
module Crash = Runtime.Crash

type kind = Counter | Faa | Cas | Max | Hist

let kind_name = function
  | Counter -> "counter"
  | Faa -> "faa"
  | Cas -> "cas"
  | Max -> "max"
  | Hist -> "hist"

let hist_buckets = 8

type obj =
  | Ocounter of Rcounter.t
  | Ofaa of Rfaa.t
  | Ocas of Rcas.t
  | Omax of Rcas.t
  | Ohist of Rfaa.t array

type t = { objs : obj array }

let kind_of_index i =
  match i mod 5 with
  | 0 -> Counter
  | 1 -> Faa
  | 2 -> Cas
  | 3 -> Max
  | _ -> Hist

let create ~keys =
  let keys = max 1 keys in
  {
    objs =
      Array.init keys (fun i ->
          match kind_of_index i with
          | Counter -> Ocounter (Rcounter.create ~nprocs:1)
          | Faa -> Ofaa (Rfaa.create ~nprocs:1 ())
          | Cas -> Ocas (Rcas.create ~nprocs:1 0)
          | Max -> Omax (Rcas.create ~nprocs:1 0)
          | Hist -> Ohist (Array.init hist_buckets (fun _ -> Rfaa.create ~nprocs:1 ())));
  }

let keys t = Array.length t.objs
let kind_of_key t key = kind_of_index (key mod Array.length t.objs)

type op = Read | Update of int

type pending = {
  mutable p_key : int;
  mutable p_read : bool;
  mutable p_arg : int;
  mutable p_cas : bool;  (** the nested CAS of a bump/max was invoked *)
  mutable p_old : int;  (** its expected value *)
  mutable p_new : int;  (** its new value *)
}

let pending_create () =
  {
    p_key = 0;
    p_read = false;
    p_arg = 0;
    p_cas = false;
    p_old = 0;
    p_new = 0;
  }

let begin_op p ~key op =
  p.p_key <- key;
  (match op with
  | Read ->
    p.p_read <- true;
    p.p_arg <- 0
  | Update arg ->
    p.p_read <- false;
    p.p_arg <- arg);
  p.p_cas <- false

let end_op (_ : pending) = ()

let hist_read ~cp bs =
  let s = ref 0 in
  Array.iter (fun b -> s := !s + Rfaa.read ~cp b) bs;
  !s

let hist_bucket bs p = bs.(p.p_arg land (hist_buckets - 1))

(* CAS bump and max: read, then CAS the candidate in (bump's is cur+1,
   max's the argument) if it exceeds the current value.  Single writer,
   so the CAS always applies, and installed values strictly increase —
   distinct, as Rcas assumes.  The nested CAS's arguments become system
   metadata the moment it is invoked. *)
let cas_above ~cp ~bump c p =
  let cur = Rcas.read ~cp c in
  let cand = if bump then cur + 1 else p.p_arg in
  if cand <= cur then cur
  else begin
    p.p_old <- cur;
    p.p_new <- cand;
    p.p_cas <- true;
    ignore (Rcas.cas ~cp c ~pid:0 ~old:cur ~new_:cand);
    cand
  end

(* The first attempt.  May raise [Crash.Crashed]; [recover] then
   finishes the operation.  A counter update answers INC's ack (0). *)
let exec t ~cp p =
  let o = t.objs.(p.p_key) in
  if p.p_read then
    match o with
    | Ocounter c -> Rcounter.read ~cp c ~pid:0
    | Ofaa f -> Rfaa.read ~cp f
    | Ocas c | Omax c -> Rcas.read ~cp c
    | Ohist bs -> hist_read ~cp bs
  else
    match o with
    | Ocounter c ->
      Rcounter.inc ~cp c ~pid:0;
      0
    | Ofaa f ->
      let delta = max 1 p.p_arg in
      Rfaa.faa ~cp f ~pid:0 delta + delta
    | Ocas c -> cas_above ~cp ~bump:true c p
    | Omax m -> cas_above ~cp ~bump:false m p
    | Ohist bs -> Rfaa.faa ~cp (hist_bucket bs p) ~pid:0 1 + 1

(* Recovery of the in-flight operation.  May itself crash (the shard
   re-invokes under its watchdog); every branch is re-entrant. *)
let recover t ~cp p =
  let o = t.objs.(p.p_key) in
  if p.p_read then
    match o with
    | Ocounter c -> Rcounter.read_recover ~cp c ~pid:0
    | Ofaa f -> Rfaa.read ~cp f (* reads are effect-free: re-execute *)
    | Ocas c | Omax c -> Rcas.read_recover ~cp c
    | Ohist bs -> hist_read ~cp bs
  else
    match o with
    | Ocounter c ->
      Rcounter.inc_recover ~cp c ~pid:0;
      0
    | Ofaa f ->
      let delta = max 1 p.p_arg in
      Rfaa.recover ~cp f ~pid:0 delta + delta
    | (Ocas c | Omax c) when p.p_cas ->
      ignore (Rcas.cas_recover ~cp c ~pid:0 ~old:p.p_old ~new_:p.p_new);
      p.p_new
    | Ocas c -> cas_above ~cp ~bump:true c p
    | Omax m -> cas_above ~cp ~bump:false m p
    | Ohist bs -> Rfaa.recover ~cp (hist_bucket bs p) ~pid:0 1 + 1

(* Conservation bookkeeping: the committed-effect total the object's
   final state must equal.  Called by the shard exactly once per
   completed update (after [exec] or [recover] returned). *)
let apply_expected expected p =
  if not p.p_read then begin
    let k = p.p_key in
    match kind_of_index k with
    | Counter -> expected.(k) <- expected.(k) + 1
    | Faa -> expected.(k) <- expected.(k) + max 1 p.p_arg
    | Cas -> expected.(k) <- expected.(k) + 1
    | Max -> if p.p_arg > expected.(k) then expected.(k) <- p.p_arg
    | Hist -> expected.(k) <- expected.(k) + 1
  end

(* Quiescent final state (shard healthy, worker joined). *)
let final_value t key =
  match t.objs.(key) with
  | Ocounter c -> Rcounter.read c ~pid:0
  | Ofaa f -> Rfaa.read f
  | Ocas c | Omax c -> Rcas.read c
  | Ohist bs -> hist_read ~cp:Crash.none bs
