(** The packed byte encoding behind configuration fingerprints.

    A key is one byte string that encodes every compared field
    injectively: zig-zag LEB128 integers, fixed eight-byte words (for
    junk-stream states, which spread over all 63 bits), length-prefixed
    strings, and {!Value.t}s as a tag byte and their payload.  Every
    field is self-delimiting, so a concatenation of fields is
    injective.

    {!Memory} encodes its cells with {!add_value} and keeps the bytes;
    the machine's fingerprint joins such cached parts (see
    [Machine.Fingerprint]). *)

type writer = { mutable buf : bytes; mutable pos : int }
(** A growable byte buffer; [pos] is the write position.  The [put_*]
    functions assume room was made with {!reserve}; the [add_*]
    functions make their own. *)

val writer : int -> writer
(** An empty writer with the given initial capacity. *)

val reserve : writer -> int -> unit
(** [reserve w n] makes room for [n] more bytes. *)

val value_room : int
(** Room for a tag byte and a 63-bit integer: what one [put_*] of an
    integer, or a scalar value, needs. *)

val put_byte : writer -> char -> unit
val put_int : writer -> int -> unit
(** Zig-zag LEB128: one byte for -64..63. *)

val put_word : writer -> int -> unit
(** Eight bytes, little-endian. *)

val add_int : writer -> int -> unit
val add_string : writer -> string -> unit
(** Length, then the bytes. *)

val add_value : writer -> Value.t -> unit
(** Tag byte, then the payload ([Pair]: both components). *)

val add_raw : writer -> string -> unit
(** Bytes encoded earlier (a cached field), copied as they are. *)

val since : writer -> int -> string
(** [since w start] is the bytes written from [start] on. *)

val contents : writer -> string
(** Everything written. *)
