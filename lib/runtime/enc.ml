(* Int-sentinel encodings shared by the specialized (unboxed) native
   objects.  One OCaml int carries a CAS object's full <id, value>
   content: writer id + 1 in bits 48..62 (0 = the paper's null) and a
   48-bit signed value in bits 0..47.  Responses pack <seq, ret> as
   (seq lsl 1) lor ret.  Sentinels are chosen outside the 48-bit value
   range so "no evidence" is never a legal value. *)

let value_bits = 48

let max_procs = 8191
(* ids must fit 13 bits so a stack stamp (seq lsl 13 | pid) stays
   writer-unique; the <id, value> packing itself allows 15. *)

let[@inline] pack ~id v = ((id + 1) lsl 48) lor (v land ((1 lsl value_bits) - 1))

(* bits 48..62 are the id field: shift it out, then sign-extend the
   48-bit value (OCaml ints are 63-bit, hence the 15) *)
let[@inline] value c = (c lsl 15) asr 15

let[@inline] id c = (c lsr 48) - 1

let none = min_int
(** Helping-cell sentinel: bit 62 set, unreachable by any packed value. *)

let[@inline] res_pack ~seq ret = (seq lsl 1) lor (if ret then 1 else 0)

let[@inline] res_seq r = r asr 1

let[@inline] res_ret r = r land 1 = 1

let res_none = -1
(** [res_seq res_none = -1], which no non-negative invocation tag
    matches. *)

let check_nprocs n =
  if n < 1 || n > max_procs then
    invalid_arg (Printf.sprintf "nprocs %d outside 1..%d" n max_procs)
