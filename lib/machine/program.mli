(** The instruction DSL in which the paper's algorithms are transcribed.

    Each instruction corresponds to one line of the paper's pseudo-code
    and performs {e at most one} shared-memory access, so
    instruction-level interleaving gives exactly the atomicity granularity
    the paper assumes.  Instructions carry the paper's line numbers:
    branch targets are lines, [LI_p] is exposed to recovery code as a
    line, and recovery can "proceed from line k" of the operation's own
    program with {!constructor:Resume}.

    Expressions are pure (no shared-memory access), which enforces the
    one-access-per-instruction discipline by construction. *)

type ctx = {
  pid : int;  (** identifier of the executing process *)
  nprocs : int;
  args : Nvm.Value.t array;
      (** the operation's arguments; preserved across crashes and passed
          unchanged to the recovery function *)
  li_line : int;
      (** [LI_p]: the last line of the operation's body that started
          executing; [-1] before any did *)
}

type 'a exp = ctx -> Env.t -> 'a
type expr = Nvm.Value.t exp

type instr =
  | Assign of string * expr  (** [local := e], purely local *)
  | Read of string * int exp  (** [local := mem[a]] — one shared read *)
  | Write of int exp * expr  (** [mem[a] := e] — one shared write *)
  | Cas_prim of string * int exp * expr * expr
      (** [local := cas(mem[a], old, new)]; the result is a boolean *)
  | Tas_prim of string * int exp
      (** [local := t&s(mem[a])]; the result is the previous value *)
  | Faa_prim of string * int exp * expr
      (** [local := faa(mem[a], delta)]; the result is the previous value *)
  | Invoke of string * int exp * string * expr array
      (** [local := O.OP(args)]: nested invocation of a recoverable
          operation on the instance whose id the expression yields *)
  | Branch_if of bool exp * int  (** conditional jump to a paper line *)
  | Jump of int  (** unconditional jump to a paper line *)
  | Ret of expr  (** complete the operation with a response *)
  | Resume of int
      (** recovery only: continue executing the {e operation}'s program
          from the given paper line ("proceed from line k") *)
  | Flush of int exp
      (** [flush(mem[a])]: synchronously persist one cell under the
          explicit-persist memory model ({!Nvm.Memory.Explicit}); a no-op
          under instant persistence.  Counts as one shared access. *)
  | Fence
      (** persist every cell whose pending write belongs to the executing
          process; a no-op under instant persistence.  Counts as one
          shared access. *)

type t

val make : name:string -> (int * instr) list -> t
(** [make ~name instrs] builds a program from [(paper line, instruction)]
    pairs.  Line numbers must be unique within the program.
    @raise Invalid_argument on duplicate line numbers. *)

val only_if : bool -> 'a list -> 'a list
(** [only_if cond lines] is [lines] when [cond] and [[]] otherwise —
    the splice objects use to include flush annotations only under the
    explicit-persist memory model (see docs/memory-model.md), keeping
    the instant-mode programs byte-identical to the paper's; the bug
    zoo splices the edits of those annotations with it. *)

(** One line edit of a program, naming instructions by paper line. *)
type edit =
  | Drop of int list
      (** remove these instructions; a branch or [Resume] naming a
          dropped line lands on the next kept instruction in program
          order *)
  | Replace of int * instr  (** the instruction at a line, replaced *)
  | Swap of int * int  (** exchange two lines' instructions; labels stay *)
  | Insert_before of int * int * instr
      (** [Insert_before (anchor, line, i)] puts [i], labelled [line],
          in the anchor's place: every branch that reached the anchor
          reaches [i] first *)

val edit : t -> edit list -> t
(** [edit t edits] applies [edits] in order.  The bug zoo builds every
    mutant as its sound object's programs under a few such edits.
    @raise Invalid_argument when an edit names a line that carries no
    instruction, or inserts a line that is already taken. *)

val name : t -> string
val length : t -> int
val instr : t -> int -> instr

val line_of_pc : t -> int -> int
(** Paper line of the instruction at a pc; [-1] if out of range. *)

val pc_of_line : t -> int -> int
(** @raise Invalid_argument if no instruction carries that line. *)

(** {2 Expression combinators}

    These make transcriptions read like the paper's pseudo-code; see
    [lib/objects] for usage. *)

val const : Nvm.Value.t -> expr
val int : int -> expr
val bool : bool -> expr
val null : expr
val str : string -> expr

val local : string -> expr
(** The value of a local variable. *)

val arg : int -> expr
(** The operation's [i]-th argument. *)

val self : expr
(** The executing process's identifier, as a [Pid] value. *)

val self_int : int exp
val nprocs : int exp

val li : int exp
(** [LI_p] as an integer, for recovery tests such as "if LI_p < 4". *)

val pair : expr -> expr -> expr
val fst_of : expr -> expr
val snd_of : expr -> expr
val map2 : (Nvm.Value.t -> Nvm.Value.t -> Nvm.Value.t) -> expr -> expr -> expr
val add : expr -> expr -> expr

val eq : expr -> expr -> bool exp
val neq : expr -> expr -> bool exp
val is_null : expr -> bool exp
val not_null : expr -> bool exp
val lt : expr -> expr -> bool exp
val gt : expr -> expr -> bool exp
val le : expr -> expr -> bool exp
val band : bool exp -> bool exp -> bool exp
val bor : bool exp -> bool exp -> bool exp
val bnot : bool exp -> bool exp

val at : Nvm.Memory.addr -> int exp
(** A fixed cell. *)

val slot : Nvm.Memory.addr -> int exp -> int exp
(** Cell [base + i] of an array. *)

val my_slot : Nvm.Memory.addr -> int exp
(** Cell [base + p] where [p] is the executing process. *)

val idx : string -> int exp
(** Integer value of a local, as an index expression. *)

val idx_pid : string -> int exp
(** Pid value of a local, as an index expression. *)

val pp_instr : instr Fmt.t
val pp : t Fmt.t
