(** Sequential specifications.

    The sequential specification of an object is represented
    operationally: a state plus a transition function listing, for each
    operation, the legal response/next-state pairs.  Non-singleton result
    lists express nondeterminism, which the linearizability checker uses
    when completing pending operations (Definition 2 allows appending
    {e some} legal response).

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

val register : ?init:Nvm.Value.t -> unit -> t
(** Read/write register: [WRITE v] returns [ack]; [READ] returns the
    current value. *)

val cas : ?init:Nvm.Value.t -> unit -> t
(** Compare-and-swap object (paper §3.2): [CAS (old, new)] swaps and
    returns [true] iff the current value is [old]; [READ]. *)

val tas : unit -> t
(** Non-resettable test-and-set (paper §3.3): [T&S] writes 1, returns the
    previous value. *)

val counter : unit -> t
(** Counter (paper §3.4): [INC] returns [ack]; [READ]. *)

val max_register : ?init:int -> unit -> t
(** [WRITE_MAX v] raises the stored maximum (initially [init], default
    0); [READ]. *)

val faa_register : ?init:int -> unit -> t
(** [FAA d] adds [d], returns the previous value; [READ]. *)

val slot_allocator : k:int -> unit -> t
(** [ELECT] returns {e some} currently free slot in [0..k-1] (a
    nondeterministic specification) and marks it taken; [-1] if full. *)

val histogram : k:int -> unit -> t
(** [RECORD b] increments bucket [b]; [BUCKET b] reads it; [TOTAL] sums. *)

val stack : unit -> t
(** [PUSH x] returns [ack]; [POP] pops or returns ["empty"]; [PEEK]. *)

val queue : unit -> t
(** [ENQ x] returns [ack]; [DEQ] dequeues or returns ["empty"];
    [FRONT]. *)

val mutex : unit -> t
(** Abortable recoverable mutex: [ACQUIRE seq] grants ([true]) or aborts
    ([false]) — abort is always legal, grant only on a free lock;
    [RELEASE seq] frees and returns [true] iff the caller owns the
    lock. *)

val consensus : unit -> t
(** Recoverable consensus: the first [DECIDE (seq, v)] fixes [v]; every
    decide returns the fixed value (agreement + validity). *)

val pcall : unit -> t
(** Persistent-call-stack demonstrator: [RUN seq] adds exactly 1 to a
    counter and acknowledges; [READ seq] returns the total. *)

val of_otype : init:Nvm.Value.t -> string -> t option
(** Specification for an object-type tag, starting from the instance's
    recorded [init] ({!Machine.Objdef.instance}'s [init_value]): the
    initial value of a register, CAS, max-register or FAA register, the
    bucket count of a histogram, the slot count of a slot allocator;
    ignored by the other types.  [None] for an unknown tag. *)
