(** AES-128/192/256 block cipher (FIPS 197) plus CTR mode.

    Only the forward cipher is provided: every mode used in this project
    (CTR, GCM, and the ML-KEM/ML-DSA "90s"/AES sampling variants) needs
    encryption only. *)

type key

val expand_key : string -> key
(** [expand_key k] accepts 16-, 24- or 32-byte keys.
    @raise Invalid_argument otherwise. *)

val encrypt_block : key -> string -> string
(** [encrypt_block key block] for a 16-byte [block]. *)

(** {1 CTR mode}

    The counter block is [nonce] followed by a counter: [nonce] (up to
    16 bytes) occupies the high-order bytes, and the remaining
    [16 - String.length nonce] low-order bytes hold a big-endian
    counter that starts at 0 (or at [~counter]) and goes up by one per
    block. This matches both NIST CTR with a 96-bit IV and the AES-CTR
    XOF of Kyber-90s and Dilithium-AES. The counter never wraps: a
    stream whose counter field is used up raises instead of reusing
    keystream. *)

type ctr_stream
(** A keystream position: the next counter value plus the unread bytes
    of the current block. *)

val ctr_stream : ?counter:int -> key -> nonce:string -> ctr_stream
(** [ctr_stream key ~nonce] starts a keystream at counter [counter]
    (default 0).
    @raise Invalid_argument if [nonce] is longer than 16 bytes or
    [counter] does not fit the counter field. *)

val squeeze : ctr_stream -> int -> string
(** [squeeze s n] returns the next [n] keystream bytes. Any split of the
    stream into calls yields the same bytes as one call.
    @raise Invalid_argument when the stream needs a block beyond the
    last counter value, e.g. after 256 blocks with a 15-byte nonce. *)

val ctr_keystream : key -> nonce:string -> int -> string
(** [ctr_keystream key ~nonce n] is the first [n] bytes of a fresh
    [ctr_stream key ~nonce]. *)

val ctr_encrypt : key -> nonce:string -> string -> string
(** XOR of the input with [ctr_keystream]. *)
