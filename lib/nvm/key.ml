(** The packed byte encoding behind configuration fingerprints.

    Every field is self-delimiting — zig-zag LEB128 integers, fixed
    eight-byte words, a tag byte per value, a length before every
    string — so a concatenation of fields is injective.  [reserve] makes
    room once per field so the byte stores need no bounds check. *)

type writer = { mutable buf : bytes; mutable pos : int }

let writer n = { buf = Bytes.create (max n 16); pos = 0 }

let[@inline never] grow w n =
  let b = Bytes.create (2 * (Bytes.length w.buf + n)) in
  Bytes.blit w.buf 0 b 0 w.pos;
  w.buf <- b

let[@inline] reserve w n = if w.pos + n > Bytes.length w.buf then grow w n

(* room for a tag byte and a 63-bit integer in LEB128 (9 bytes) *)
let value_room = 10

let[@inline] put_byte w c =
  let p = w.pos in
  Bytes.unsafe_set w.buf p c;
  w.pos <- p + 1

let[@inline never] put_long w z =
  let buf = w.buf in
  let z = ref z and p = ref w.pos in
  while !z land lnot 0x7f <> 0 do
    Bytes.unsafe_set buf !p (Char.unsafe_chr (!z land 0x7f lor 0x80));
    incr p;
    z := !z lsr 7
  done;
  Bytes.unsafe_set buf !p (Char.unsafe_chr !z);
  w.pos <- !p + 1

(* zig-zag, then LEB128; most integers here take the one-byte path *)
let[@inline] put_int w n =
  let z = (n lsl 1) lxor (n asr 62) in
  if z land lnot 0x7f = 0 then put_byte w (Char.unsafe_chr z) else put_long w z

let put_word w n =
  let p = w.pos in
  Bytes.set_int64_le w.buf p (Int64.of_int n);
  w.pos <- p + 8

let add_int w n =
  reserve w value_room;
  put_int w n

(* names, short strings and cell encodings: a loop beats the C call of a
   blit; cached sections are long enough for the blit to win *)
let[@inline] add_raw w s =
  let n = String.length s in
  reserve w n;
  let buf = w.buf and p = w.pos in
  if n > 16 then Bytes.unsafe_blit_string s 0 buf p n
  else
    for i = 0 to n - 1 do
      Bytes.unsafe_set buf (p + i) (String.unsafe_get s i)
    done;
  w.pos <- p + n

let add_string w s =
  add_int w (String.length s);
  add_raw w s

let rec add_value w (v : Value.t) =
  reserve w value_room;
  match v with
  | Null -> put_byte w '\000'
  | Bool false -> put_byte w '\001'
  | Bool true -> put_byte w '\002'
  | Int i ->
    put_byte w '\003';
    put_int w i
  | Pid p ->
    put_byte w '\004';
    put_int w p
  | Str s ->
    put_byte w '\005';
    add_string w s
  | Pair (x, y) ->
    put_byte w '\006';
    add_value w x;
    add_value w y

let since w start = Bytes.sub_string w.buf start (w.pos - start)
let contents w = since w 0
