(** SHA-256 (FIPS 180-4).

    A streaming context plus one-shot helpers. The implementation uses
    OCaml's native [int] with 32-bit masking, which is safe on 64-bit
    platforms (the only ones this project targets). *)

type ctx
(** Mutable hashing context. *)

val init : unit -> ctx
val feed : ctx -> string -> unit
val feed_sub : ctx -> string -> int -> int -> unit
val get : ctx -> string
(** [get ctx] finalizes a copy of [ctx]; [ctx] itself can keep absorbing. *)

val copy : ctx -> ctx

val digest : string -> string
(** One-shot SHA-256; 32-byte output. *)
