(** The instruction DSL in which the paper's algorithms are transcribed.

    Each instruction corresponds to one line of the paper's pseudo-code and
    performs {e at most one} shared-memory access, so instruction-level
    interleaving by the scheduler gives exactly the atomicity granularity
    the paper assumes.  Instructions carry the paper's line numbers, which
    serve three purposes:

    - branch targets are expressed as line numbers, so the transcription
      reads like the paper;
    - the per-process persistent variable [LI_p] (the line the crashed
      operation was about to execute) is exposed to recovery code via
      {!type:ctx}, as the model prescribes;
    - recovery code can "proceed from line k" of the operation's own
      program with the {!constructor:Resume} instruction.

    Expressions are pure: they may read the context and the local
    environment but can not access shared memory, which guarantees the
    one-shared-access-per-instruction discipline by construction. *)

type ctx = {
  pid : int;  (** identifier of the executing process *)
  nprocs : int;
  args : Nvm.Value.t array;
      (** the operation's arguments; preserved across crashes and passed
          unchanged to the recovery function, per the model *)
  mutable li_line : int;
      (** [LI_p]: paper line number the crashed operation was about to
          execute; [-1] if the operation never crashed.  The machine keeps
          one context per frame and refreshes this field before each
          instruction. *)
}

type 'a exp = ctx -> Env.t -> 'a
type expr = Nvm.Value.t exp

type instr =
  | Assign of string * expr  (** [local := e], purely local *)
  | Read of string * int exp  (** [local := mem\[a\]] (one shared read) *)
  | Write of int exp * expr  (** [mem\[a\] := e] (one shared write) *)
  | Cas_prim of string * int exp * expr * expr
      (** [local := cas(mem\[a\], old, new)], result is a boolean *)
  | Tas_prim of string * int exp
      (** [local := t&s(mem\[a\])], result is the previous value *)
  | Faa_prim of string * int exp * expr
      (** [local := faa(mem\[a\], delta)], result is the previous value *)
  | Invoke of string * int exp * string * expr array
      (** [local := O.OP(args)]: nested invocation of a recoverable
          operation on the object instance whose id the expression yields *)
  | Branch_if of bool exp * int  (** conditional jump to a paper line *)
  | Jump of int  (** unconditional jump to a paper line *)
  | Ret of expr  (** complete the operation with a response *)
  | Resume of int
      (** recovery only: continue executing the {e operation}'s program
          from the given paper line ("proceed from line k") *)
  | Flush of int exp
      (** [flush(mem\[a\])]: synchronously persist one cell under the
          explicit-persist memory model; a no-op under instant
          persistence.  Counts as one shared access. *)
  | Fence
      (** persist every cell whose pending write belongs to the executing
          process; a no-op under instant persistence.  Counts as one
          shared access. *)

type t = {
  prog_name : string;
  code : instr array;
  lines : int array;  (** paper line number of each instruction *)
  line_to_pc : (int, int) Hashtbl.t;
      (** where a branch or [Resume] naming a line lands: the pc of the
          instruction carrying it, or — after {!edit} — of the
          instruction that took a dropped line's or an anchor's place *)
}

let make ~name instrs =
  let code = Array.of_list (List.map snd instrs) in
  let lines = Array.of_list (List.map fst instrs) in
  let line_to_pc = Hashtbl.create (Array.length code) in
  Array.iteri
    (fun pc line ->
      if Hashtbl.mem line_to_pc line then
        invalid_arg
          (Printf.sprintf "Program.make(%s): duplicate line number %d" name line);
      Hashtbl.add line_to_pc line pc)
    lines;
  { prog_name = name; code; lines; line_to_pc }

(* Conditional splice for line lists: objects use it to include their
   flush annotations only under the explicit-persist memory model, so
   the instant-mode programs stay byte-identical to the paper's. *)
let only_if cond lines = if cond then lines else []

type edit =
  | Drop of int list
  | Replace of int * instr
  | Swap of int * int
  | Insert_before of int * int * instr

(* Edits work on a list of (line, instruction, landing labels) entries:
   the labels are every line whose branch lands on the entry, so a
   dropped entry hands its labels to the next kept one and an inserted
   one takes its anchor's.  Labels of dropped trailing lines have no
   landing place and are forgotten (a branch to one then raises, as to
   any unknown line). *)
let edit t edits =
  let fail fmt = Printf.ksprintf invalid_arg ("Program.edit(%s): " ^^ fmt) t.prog_name in
  let labels = Array.make (Array.length t.code) [] in
  Hashtbl.iter (fun line pc -> labels.(pc) <- line :: labels.(pc)) t.line_to_pc;
  let entries =
    List.init (Array.length t.code) (fun pc -> (t.lines.(pc), t.code.(pc), labels.(pc)))
  in
  let has entries line = List.exists (fun (l, _, _) -> l = line) entries in
  let require entries line =
    if not (has entries line) then fail "no instruction at line %d" line
  in
  let instr_at entries line =
    let _, i, _ = List.find (fun (l, _, _) -> l = line) entries in
    i
  in
  let apply entries = function
    | Drop lines ->
      List.iter (require entries) lines;
      let kept, _ =
        List.fold_left
          (fun (acc, pending) (l, i, ls) ->
            if List.mem l lines then (acc, pending @ ls)
            else ((l, i, pending @ ls) :: acc, []))
          ([], []) entries
      in
      List.rev kept
    | Replace (line, i) ->
      require entries line;
      List.map (fun ((l, _, ls) as e) -> if l = line then (l, i, ls) else e) entries
    | Swap (a, b) ->
      require entries a;
      require entries b;
      let ia = instr_at entries a and ib = instr_at entries b in
      List.map
        (fun ((l, _, ls) as e) ->
          if l = a then (l, ib, ls) else if l = b then (l, ia, ls) else e)
        entries
    | Insert_before (anchor, line, i) ->
      require entries anchor;
      if has entries line || List.exists (fun (_, _, ls) -> List.mem line ls) entries then
        fail "line %d already taken" line;
      List.concat_map
        (fun ((l, ai, ls) as e) ->
          if l = anchor then [ (line, i, line :: ls); (l, ai, []) ] else [ e ])
        entries
  in
  let entries = Array.of_list (List.fold_left apply entries edits) in
  let line_to_pc = Hashtbl.create (Array.length entries) in
  Array.iteri
    (fun pc (_, _, ls) -> List.iter (fun l -> Hashtbl.replace line_to_pc l pc) ls)
    entries;
  {
    prog_name = t.prog_name;
    code = Array.map (fun (_, i, _) -> i) entries;
    lines = Array.map (fun (l, _, _) -> l) entries;
    line_to_pc;
  }

let name t = t.prog_name
let length t = Array.length t.code
let instr t pc = t.code.(pc)

let line_of_pc t pc =
  if pc >= 0 && pc < Array.length t.lines then t.lines.(pc) else -1

let pc_of_line t line =
  match Hashtbl.find_opt t.line_to_pc line with
  | Some pc -> pc
  | None ->
    invalid_arg (Printf.sprintf "Program %s: no instruction at line %d" t.prog_name line)

(* {2 Expression combinators}

   These make the transcription of the paper's pseudo-code read naturally;
   see [lib/objects] for their use. *)

let const v : expr = fun _ _ -> v
let int n = const (Nvm.Value.Int n)
let bool b = const (Nvm.Value.Bool b)
let null : expr = const Nvm.Value.Null
let str s = const (Nvm.Value.Str s)

(** The value of a local variable. *)
let local x : expr = fun _ env -> Env.get env x

(** The [i]-th argument of the operation. *)
let arg i : expr = fun ctx _ -> ctx.args.(i)

(** The executing process's identifier, as a value. *)
let self : expr = fun ctx _ -> Nvm.Value.Pid ctx.pid

(** The executing process's identifier, as an integer. *)
let self_int : int exp = fun ctx _ -> ctx.pid

let nprocs : int exp = fun ctx _ -> ctx.nprocs

(** [LI_p] as an integer, for recovery-code tests such as "if LI_p < 4". *)
let li : int exp = fun ctx _ -> ctx.li_line

let pair a b : expr = fun ctx env -> Nvm.Value.Pair (a ctx env, b ctx env)
let fst_of e : expr = fun ctx env -> Nvm.Value.fst (e ctx env)
let snd_of e : expr = fun ctx env -> Nvm.Value.snd (e ctx env)

let map2 f a b : expr = fun ctx env -> f (a ctx env) (b ctx env)
let add a b = map2 (fun x y -> Nvm.Value.Int (Nvm.Value.as_int x + Nvm.Value.as_int y)) a b

(* boolean expressions *)
let eq a b : bool exp = fun ctx env -> Nvm.Value.equal (a ctx env) (b ctx env)
let neq a b : bool exp = fun ctx env -> not (Nvm.Value.equal (a ctx env) (b ctx env))
let is_null e : bool exp = fun ctx env -> Nvm.Value.is_null (e ctx env)
let not_null e : bool exp = fun ctx env -> not (Nvm.Value.is_null (e ctx env))
let lt a b : bool exp = fun ctx env -> Nvm.Value.as_int (a ctx env) < Nvm.Value.as_int (b ctx env)
let gt a b : bool exp = fun ctx env -> Nvm.Value.as_int (a ctx env) > Nvm.Value.as_int (b ctx env)
let le a b : bool exp = fun ctx env -> Nvm.Value.as_int (a ctx env) <= Nvm.Value.as_int (b ctx env)
let band a b : bool exp = fun ctx env -> a ctx env && b ctx env
let bor a b : bool exp = fun ctx env -> a ctx env || b ctx env
let bnot a : bool exp = fun ctx env -> not (a ctx env)

(* address expressions *)

(** A fixed cell. *)
let at (a : Nvm.Memory.addr) : int exp = fun _ _ -> a

(** Cell [base + i] of an array, where [i] is an integer expression. *)
let slot (base : Nvm.Memory.addr) (i : int exp) : int exp =
 fun ctx env -> base + i ctx env

(** Cell [base + p] where [p] is the executing process. *)
let my_slot (base : Nvm.Memory.addr) : int exp = fun ctx _ -> base + ctx.pid

(** Integer value of a local, as an index expression. *)
let idx x : int exp = fun _ env -> Nvm.Value.as_int (Env.get env x)

(** Pid value of a local, as an index expression. *)
let idx_pid x : int exp = fun _ env -> Nvm.Value.as_pid (Env.get env x)

let pp_instr ppf = function
  | Assign (x, _) -> Fmt.pf ppf "%s := <expr>" x
  | Read (x, _) -> Fmt.pf ppf "%s := read(...)" x
  | Write _ -> Fmt.pf ppf "write(...)"
  | Cas_prim (x, _, _, _) -> Fmt.pf ppf "%s := cas(...)" x
  | Tas_prim (x, _) -> Fmt.pf ppf "%s := t&s(...)" x
  | Faa_prim (x, _, _) -> Fmt.pf ppf "%s := faa(...)" x
  | Invoke (x, _, op, _) -> Fmt.pf ppf "%s := <obj>.%s(...)" x op
  | Branch_if (_, l) -> Fmt.pf ppf "if <cond> goto line %d" l
  | Jump l -> Fmt.pf ppf "goto line %d" l
  | Ret _ -> Fmt.pf ppf "return <expr>"
  | Resume l -> Fmt.pf ppf "proceed from line %d" l
  | Flush _ -> Fmt.pf ppf "flush(...)"
  | Fence -> Fmt.pf ppf "fence"

let pp ppf t =
  Fmt.pf ppf "@[<v>%s:@," t.prog_name;
  Array.iteri (fun pc i -> Fmt.pf ppf "  %2d: %a@," t.lines.(pc) pp_instr i) t.code;
  Fmt.pf ppf "@]"
