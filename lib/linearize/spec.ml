(** Sequential specifications.

    The sequential specification of an object is the set of its legal
    sequential histories.  We represent it operationally: a state plus a
    transition function listing, for each operation, the legal
    response/next-state pairs.  Non-singleton result lists express the
    freedom the linearizability checker has when completing pending
    operations (Definition 2 allows appending {e some} legal response).

    States carry a canonical {!Nvm.Value.t} encoding ([repr]) so the
    checker can memoise visited search nodes. *)

type state = {
  apply :
    pid:int -> op:string -> args:Nvm.Value.t array -> (Nvm.Value.t * state) list;
  repr : Nvm.Value.t;
}

type t = {
  spec_name : string;
  initial : nprocs:int -> state;
}

let unknown_op name op =
  invalid_arg (Printf.sprintf "spec %s: unknown operation %s" name op)

(** Read/write register holding an arbitrary value.  [WRITE v] returns
    [ack]; [READ] returns the current value.  (The paper's recoverable
    register additionally assumes all written values are distinct; that is
    a property of the {e workload}, enforced by the generators, not of the
    sequential type.) *)
let register ?(init = Nvm.Value.Null) () =
  let rec mk v =
    {
      repr = v;
      apply =
        (fun ~pid:_ ~op ~args ->
          match op with
          | "READ" -> [ (v, mk v) ]
          | "WRITE" -> [ (Nvm.Value.ack, mk args.(0)) ]
          | op -> unknown_op "register" op);
    }
  in
  { spec_name = "register"; initial = (fun ~nprocs:_ -> mk init) }

(** Compare-and-swap object (paper §3.2): [CAS (old, new)] swaps to [new]
    and returns [true] iff the current value is [old]; [READ] returns the
    current value. *)
let cas ?(init = Nvm.Value.Null) () =
  let rec mk v =
    {
      repr = v;
      apply =
        (fun ~pid:_ ~op ~args ->
          match op with
          | "READ" -> [ (v, mk v) ]
          | "CAS" ->
            if Nvm.Value.equal v args.(0) then [ (Nvm.Value.Bool true, mk args.(1)) ]
            else [ (Nvm.Value.Bool false, mk v) ]
          | op -> unknown_op "cas" op);
    }
  in
  { spec_name = "cas"; initial = (fun ~nprocs:_ -> mk init) }

(** Non-resettable test-and-set (paper §3.3): initialised to 0; [T&S]
    atomically writes 1 and returns the previous value. *)
let tas () =
  let rec mk bit =
    {
      repr = Nvm.Value.Int bit;
      apply =
        (fun ~pid:_ ~op ~args:_ ->
          match op with
          | "T&S" -> [ (Nvm.Value.Int bit, mk 1) ]
          | "READ" -> [ (Nvm.Value.Int bit, mk bit) ]
          | op -> unknown_op "tas" op);
    }
  in
  { spec_name = "tas"; initial = (fun ~nprocs:_ -> mk 0) }

(** Counter (paper §3.4): [INC] increments and returns [ack]; [READ]
    returns the current value. *)
let counter () =
  let rec mk n =
    {
      repr = Nvm.Value.Int n;
      apply =
        (fun ~pid:_ ~op ~args:_ ->
          match op with
          | "INC" -> [ (Nvm.Value.ack, mk (n + 1)) ]
          | "READ" -> [ (Nvm.Value.Int n, mk n) ]
          | op -> unknown_op "counter" op);
    }
  in
  { spec_name = "counter"; initial = (fun ~nprocs:_ -> mk 0) }

(** Max-register: [WRITE_MAX v] raises the stored maximum; [READ] returns
    it.  Used by the modular-construction example built on recoverable
    registers. *)
let max_register ?(init = 0) () =
  let rec mk m =
    {
      repr = Nvm.Value.Int m;
      apply =
        (fun ~pid:_ ~op ~args ->
          match op with
          | "WRITE_MAX" -> [ (Nvm.Value.ack, mk (max m (Nvm.Value.as_int args.(0)))) ]
          | "READ" -> [ (Nvm.Value.Int m, mk m) ]
          | op -> unknown_op "max_register" op);
    }
  in
  { spec_name = "max_register"; initial = (fun ~nprocs:_ -> mk init) }

(** Fetch-and-add register over integers. *)
let faa_register ?(init = 0) () =
  let rec mk n =
    {
      repr = Nvm.Value.Int n;
      apply =
        (fun ~pid:_ ~op ~args ->
          match op with
          | "FAA" -> [ (Nvm.Value.Int n, mk (n + Nvm.Value.as_int args.(0))) ]
          | "READ" -> [ (Nvm.Value.Int n, mk n) ]
          | op -> unknown_op "faa_register" op);
    }
  in
  { spec_name = "faa_register"; initial = (fun ~nprocs:_ -> mk init) }

(** Slot allocator over [k] slots: [ELECT] returns {e some} currently free
    slot (a deliberately nondeterministic specification) and marks it
    taken, or [-1] when none is free.  Used by the modular election object
    built from recoverable TAS instances. *)
let slot_allocator ~k () =
  let rec mk taken =
    {
      repr = Nvm.Value.Int taken;
      apply =
        (fun ~pid:_ ~op ~args:_ ->
          match op with
          | "ELECT" ->
            let free =
              List.filter (fun i -> taken land (1 lsl i) = 0) (List.init k Fun.id)
            in
            if free = [] then [ (Nvm.Value.Int (-1), mk taken) ]
            else
              List.map (fun i -> (Nvm.Value.Int i, mk (taken lor (1 lsl i)))) free
          | op -> unknown_op "slot_allocator" op);
    }
  in
  { spec_name = "slot_allocator"; initial = (fun ~nprocs:_ -> mk 0) }

(** Histogram over [k] buckets: [RECORD b] increments bucket [b] and
    returns [ack]; [BUCKET b] returns its count; [TOTAL] returns the sum.
    Used by the three-level modular construction (histogram over counters
    over registers). *)
let histogram ~k () =
  let repr_of counts =
    Array.fold_left (fun acc c -> Nvm.Value.Pair (acc, Nvm.Value.Int c)) Nvm.Value.Null counts
  in
  let rec mk counts =
    {
      repr = repr_of counts;
      apply =
        (fun ~pid:_ ~op ~args ->
          match op with
          | "RECORD" ->
            let b = Nvm.Value.as_int args.(0) in
            if b < 0 || b >= k then []
            else begin
              let counts' = Array.copy counts in
              counts'.(b) <- counts'.(b) + 1;
              [ (Nvm.Value.ack, mk counts') ]
            end
          | "BUCKET" ->
            let b = Nvm.Value.as_int args.(0) in
            if b < 0 || b >= k then [] else [ (Nvm.Value.Int counts.(b), mk counts) ]
          | "TOTAL" ->
            [ (Nvm.Value.Int (Array.fold_left ( + ) 0 counts), mk counts) ]
          | op -> unknown_op "histogram" op);
    }
  in
  { spec_name = "histogram"; initial = (fun ~nprocs:_ -> mk (Array.make k 0)) }

(** Stack: [PUSH x] returns [ack]; [POP] returns the top value or
    ["empty"]; [PEEK] reads the top without removing it. *)
let stack () =
  let empty = Nvm.Value.Str "empty" in
  let repr_of l = List.fold_left (fun acc v -> Nvm.Value.Pair (v, acc)) Nvm.Value.Null (List.rev l) in
  let rec mk l =
    {
      repr = repr_of l;
      apply =
        (fun ~pid:_ ~op ~args ->
          match op, l with
          | "PUSH", _ -> [ (Nvm.Value.ack, mk (args.(0) :: l)) ]
          | "POP", [] -> [ (empty, mk []) ]
          | "POP", hd :: tl -> [ (hd, mk tl) ]
          | "PEEK", [] -> [ (empty, mk l) ]
          | "PEEK", hd :: _ -> [ (hd, mk l) ]
          | op, _ -> unknown_op "stack" op);
    }
  in
  { spec_name = "stack"; initial = (fun ~nprocs:_ -> mk []) }

(** FIFO queue: [ENQ x] returns [ack]; [DEQ] returns the front value or
    ["empty"]; [FRONT] reads the front without removing it. *)
let queue () =
  let empty = Nvm.Value.Str "empty" in
  let repr_of l = List.fold_left (fun acc v -> Nvm.Value.Pair (v, acc)) Nvm.Value.Null (List.rev l) in
  let rec mk l =
    {
      repr = repr_of l;
      apply =
        (fun ~pid:_ ~op ~args ->
          match op, l with
          | "ENQ", _ -> [ (Nvm.Value.ack, mk (l @ [ args.(0) ])) ]
          | "DEQ", [] -> [ (empty, mk []) ]
          | "DEQ", hd :: tl -> [ (hd, mk tl) ]
          | "FRONT", [] -> [ (empty, mk l) ]
          | "FRONT", hd :: _ -> [ (hd, mk l) ]
          | op, _ -> unknown_op "queue" op);
    }
  in
  { spec_name = "queue"; initial = (fun ~nprocs:_ -> mk []) }

(** Abortable recoverable mutex (Jayanti–Joshi).  State: the owner's pid,
    or [-1] when free.  [ACQUIRE seq] on a free lock may either grant
    ([true], caller becomes owner) or abort ([false]); on a held lock it
    must abort.  Abort is legal even without contention — a crash during
    the acquire is indistinguishable (to the spec) from losing a race,
    and the abortable-mutex interface lets the operation give up rather
    than block.  [RELEASE seq] returns [true] and frees the lock iff the
    caller owns it, [false] (no effect) otherwise.  The [seq] argument
    only tags responses for strictness; it does not affect legality. *)
let mutex () =
  let rec mk owner =
    {
      repr = Nvm.Value.Int owner;
      apply =
        (fun ~pid ~op ~args:_ ->
          match op with
          | "ACQUIRE" ->
            if owner = -1 then
              [ (Nvm.Value.Bool true, mk pid); (Nvm.Value.Bool false, mk (-1)) ]
            else [ (Nvm.Value.Bool false, mk owner) ]
          | "RELEASE" ->
            if owner = pid then [ (Nvm.Value.Bool true, mk (-1)) ]
            else [ (Nvm.Value.Bool false, mk owner) ]
          | op -> unknown_op "mutex" op);
    }
  in
  { spec_name = "mutex"; initial = (fun ~nprocs:_ -> mk (-1)) }

(** Recoverable consensus (Golab).  The first [DECIDE (seq, v)] fixes the
    outcome to its proposal [v]; every decide (including repeats by the
    same process after a crash) returns the fixed value.  Agreement and
    validity are exactly membership in this spec: all responses equal,
    and equal to some proposal. *)
let consensus () =
  let rec mk decided =
    {
      repr = (match decided with None -> Nvm.Value.Null | Some d -> d);
      apply =
        (fun ~pid:_ ~op ~args ->
          match op with
          | "DECIDE" -> (
            match decided with
            | None -> [ (args.(1), mk (Some args.(1))) ]
            | Some d -> [ (d, mk decided) ])
          | op -> unknown_op "consensus" op);
    }
  in
  { spec_name = "consensus"; initial = (fun ~nprocs:_ -> mk None) }

(** Persistent-call-stack demonstrator: a counter driven through staged
    nested invocations whose frame metadata lives on an {!Nvm.Pstack}.
    [RUN seq] performs exactly one increment (its phase-0 write to a
    private scratch register is unobservable) and acknowledges;
    [READ seq] returns the current total.  Exactly-once is the point: a
    crash-recovery that loses or replays the inner increment shows up
    as an illegal total. *)
let pcall () =
  let rec mk n =
    {
      repr = Nvm.Value.Int n;
      apply =
        (fun ~pid:_ ~op ~args:_ ->
          match op with
          | "RUN" -> [ (Nvm.Value.ack, mk (n + 1)) ]
          | "READ" -> [ (Nvm.Value.Int n, mk n) ]
          | op -> unknown_op "pcall" op);
    }
  in
  { spec_name = "pcall"; initial = (fun ~nprocs:_ -> mk 0) }

(** Select a specification by the object-type tag carried by instances,
    starting from the instance's recorded initial value or size. *)
let of_otype ~init = function
  | "rw" | "register" -> Some (register ~init ())
  | "cas" -> Some (cas ~init ())
  | "tas" -> Some (tas ())
  | "counter" -> Some (counter ())
  | "max_register" -> Some (max_register ~init:(Nvm.Value.as_int init) ())
  | "faa_register" -> Some (faa_register ~init:(Nvm.Value.as_int init) ())
  | "histogram" -> Some (histogram ~k:(Nvm.Value.as_int init) ())
  | "slot_allocator" -> Some (slot_allocator ~k:(Nvm.Value.as_int init) ())
  | "stack" -> Some (stack ())
  | "queue" -> Some (queue ())
  | "mutex" -> Some (mutex ())
  | "consensus" -> Some (consensus ())
  | "pcall" -> Some (pcall ())
  | _ -> None
