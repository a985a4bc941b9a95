(** X25519 Diffie-Hellman (RFC 7748). *)

val key_size : int
(** 32 bytes for scalars, public keys and shared secrets. *)

val base_point : string
(** The canonical u = 9 base point encoding. *)

val scalar_mult : scalar:string -> point:string -> string
(** [scalar_mult ~scalar ~point] is X25519(k, u); both arguments and the
    result are 32-byte little-endian strings. The scalar is clamped as the
    RFC requires; bit 255 of [point] is ignored and a non-canonical
    u-coordinate (at least 2^255 - 19) is reduced. The result may be all
    zero for a small-order [point]: callers that need a contributory
    secret must check. *)

val public_of_secret : string -> string
(** [scalar_mult ~scalar ~point:base_point]. *)
