(* Cache-line padding primitives for the native backend.

   OCaml 5.1 has no [Atomic.make_contended]; the established idiom
   (multicore-magic) is to allocate an oversized block and reinterpret
   it as an ['a Atomic.t]: the atomic primitives operate on field 0 and
   the remaining words are dead padding, so two padded atomics never
   share a 64-byte cache line.  [Obj.new_block 0 words] initializes
   every field to the unit value, which is a valid immediate for both
   the [int] and the pointer cases. *)

let line_words = 8

let make_int (v : int) : int Atomic.t =
  let b = Obj.new_block 0 line_words in
  let a : int Atomic.t = Obj.magic b in
  Atomic.set a v;
  a

let make_any (v : 'a) : 'a Atomic.t =
  let b = Obj.new_block 0 line_words in
  let a : 'a Atomic.t = Obj.magic b in
  Atomic.set a v;
  a

(* Flat int arrays with one logical slot per cache line.  Slot 0 of the
   backing array is skipped so a slot never shares a line with the
   array header, mirroring what a padded-atomic block does. *)

let stride = line_words

let[@inline] slot i = (i + 1) * stride

let flat_make n v = Array.make (slot n) v

(* Flattened n×n matrix, one padded slot per (row, col). *)
let[@inline] slot2 ~n row col = ((row * n) + col + 1) * stride

let flat2_make n v = Array.make (slot2 ~n n 0) v
