(** HMAC (RFC 2104) over a pluggable hash. *)

type hash = {
  name : string;
  digest_size : int;
  block_size : int;
  digest : string -> string;
}
(** A one-shot hash description; see {!sha256}. *)

val sha256 : hash

val hmac : hash -> key:string -> string -> string
(** [hmac h ~key msg] is HMAC-H(key, msg). *)
