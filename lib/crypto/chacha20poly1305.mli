(** ChaCha20-Poly1305 AEAD (RFC 8439 section 2.8). *)

val seal : key:string -> nonce:string -> ad:string -> string -> string
(** [seal ~key ~nonce ~ad pt] is ciphertext with the 16-byte tag appended.
    [key] is 32 bytes, [nonce] 12 bytes. *)

val open_ : key:string -> nonce:string -> ad:string -> string -> string option
(** Authenticated decryption; [None] on tag mismatch. *)
