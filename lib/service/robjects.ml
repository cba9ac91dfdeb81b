(* A keyed namespace of native recoverable objects, operated by exactly
   one shard worker (every object is created with nprocs = 1, pid 0 —
   the service's concurrency lives in the shard queues, not inside the
   objects).  The [pending] slot is the wrapper-held system metadata of
   the paper's model: the in-flight operation's arguments and nested
   progress survive a crash on the OCaml heap (the simulated NVRAM),
   while the worker's locals are discarded with the raised
   [Crash.Crashed], exactly like volatile registers. *)

module Rrw = Runtime.Rrw
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
  mutable p_active : bool;
  mutable p_key : int;
  mutable p_read : bool;
  mutable p_arg : int;
  mutable p_stage : int;  (** 0 = nested mutation not yet begun, 1 = begun *)
  mutable p_val : int;  (** nested write value / CAS new value *)
  mutable p_old : int;  (** CAS expected value *)
  p_flag : bool ref;  (** Rfaa wrapper-preserved committed flag *)
}

let pending_create () =
  {
    p_active = false;
    p_key = 0;
    p_read = false;
    p_arg = 0;
    p_stage = 0;
    p_val = 0;
    p_old = 0;
    p_flag = ref false;
  }

let begin_op p ~key op =
  p.p_active <- true;
  p.p_key <- key;
  (match op with
  | Read ->
    p.p_read <- true;
    p.p_arg <- 0
  | Update arg ->
    p.p_read <- false;
    p.p_arg <- arg);
  p.p_stage <- 0;
  p.p_val <- 0;
  p.p_old <- 0;
  p.p_flag := false

let end_op p = p.p_active <- false

let hist_read ~cp bs =
  let s = ref 0 in
  Array.iter (fun b -> s := !s + Rfaa.read ~cp b) bs;
  !s

(* The first attempt.  May raise [Crash.Crashed]; the [pending] slot
   then tells [recover] how far the nested operation got. *)
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
      (* INC nested on the per-process register, as in the torture
         wrapper: the value of the nested WRITE becomes system metadata
         the moment the write is invoked *)
      Crash.point cp;
      let temp = Rrw.Int.read ~cp c.Rcounter.regs.(0) in
      let v = temp + 1 in
      p.p_val <- v;
      p.p_stage <- 1;
      Rrw.Int.write ~cp c.Rcounter.regs.(0) ~pid:0 v;
      v
    | Ofaa f ->
      let delta = max 1 p.p_arg in
      Rfaa.faa ~cp ~committed:p.p_flag f ~pid:0 delta + delta
    | Ocas c ->
      (* bump: read v, CAS v -> v+1.  Single writer, so the CAS always
         applies; new values strictly increase (distinct, as Rcas
         assumes). *)
      Crash.point cp;
      let old = Rcas.read ~cp c in
      p.p_old <- old;
      p.p_val <- old + 1;
      p.p_stage <- 1;
      ignore (Rcas.cas ~cp c ~pid:0 ~old ~new_:(old + 1));
      old + 1
    | Omax m ->
      (* install the candidate iff it exceeds the current maximum —
         installed values strictly increase, keeping Rcas's distinct-
         new-values assumption *)
      Crash.point cp;
      let cur = Rcas.read ~cp m in
      let cand = p.p_arg in
      if cand <= cur then cur
      else begin
        p.p_old <- cur;
        p.p_val <- cand;
        p.p_stage <- 1;
        ignore (Rcas.cas ~cp m ~pid:0 ~old:cur ~new_:cand);
        cand
      end
    | Ohist bs ->
      let b = p.p_arg land (hist_buckets - 1) in
      Rfaa.faa ~cp ~committed:p.p_flag bs.(b) ~pid:0 1 + 1

(* Recovery of the in-flight operation.  May itself crash (the shard
   re-invokes under its watchdog); every branch is re-entrant. *)
let rec recover t ~cp p =
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
      if p.p_stage = 0 then recover_reexec t ~cp p
      else begin
        (* crash at or after the nested WRITE's invocation: the
           register's recovery linearizes it exactly once *)
        Rrw.Int.write_recover ~cp c.Rcounter.regs.(0) ~pid:0 p.p_val;
        p.p_val
      end
    | Ofaa f ->
      let delta = max 1 p.p_arg in
      if !(p.p_flag) then Rfaa.recover ~cp ~committed:true f ~pid:0 delta + delta
      else
        (* the attempt's tag was never persisted, so its effect cannot
           have happened: re-run, keeping the wrapper flag current *)
        Rfaa.faa ~cp ~committed:p.p_flag f ~pid:0 delta + delta
    | Ocas c ->
      if p.p_stage = 0 then recover_reexec t ~cp p
      else begin
        ignore (Rcas.cas_recover ~cp c ~pid:0 ~old:p.p_old ~new_:p.p_val);
        p.p_val
      end
    | Omax m ->
      if p.p_stage = 0 then recover_reexec t ~cp p
      else begin
        ignore (Rcas.cas_recover ~cp m ~pid:0 ~old:p.p_old ~new_:p.p_val);
        p.p_val
      end
    | Ohist bs ->
      let b = p.p_arg land (hist_buckets - 1) in
      if !(p.p_flag) then Rfaa.recover ~cp ~committed:true bs.(b) ~pid:0 1 + 1
      else Rfaa.faa ~cp ~committed:p.p_flag bs.(b) ~pid:0 1 + 1

and recover_reexec t ~cp p =
  (* crashed before any nested mutation began: plain re-execution *)
  exec t ~cp p

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
