(** A minimal X.509-shaped certificate: a TBS blob (names, validity,
    serial, the subject public key) signed by an issuer. Field framing
    plus a fixed DER-overhead pad keep encoded sizes close to what
    OpenSSL emits for the same key/signature algorithm. *)

type t = {
  subject : string;
  issuer : string;
  algorithm : string;  (** signature algorithm name, paper spelling *)
  public_key : string;
  tbs_extra : string;  (** serial/validity/extensions stand-in *)
  signature : string;
}

type chain = { leaf : t; ca_public_key : string }

val make_chain : Pqc.Sigalg.t -> Crypto.Drbg.t -> chain * Pqc.Sigalg.keypair
(** Builds a CA keypair and a leaf certificate for a fresh server keypair,
    both using the given algorithm (the paper's per-SA certificates).
    Returns the chain and the server's keypair. *)

val encode : t -> string
val decode : string -> t

val tbs : t -> string
(** The signed portion, for verification. *)

val der_overhead : int
(** Byte count of the serial/validity/extensions stand-in pad. *)
