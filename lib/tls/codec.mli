(** Byte-stream plumbing between TCP and the handshake logic: a
    consumable buffer, TLS record parsing/decryption, handshake-message
    reassembly, and fragmentation of outgoing messages into records. *)

module Consumable : sig
  type t

  val create : unit -> t
  val add : t -> string -> unit
  val length : t -> int
  (** Unconsumed bytes. *)

  val peek : t -> int -> string option
  (** [peek t n] is the next [n] bytes without consuming, if available. *)

  val consume : t -> int -> unit
end

module Inbound : sig
  type t
  (** Record parser + handshake reassembler for one read direction. *)

  type event =
    | Handshake_message of string  (** complete message, header included *)
    | Application_data of string
        (** decrypted early (0-RTT) or application payload fragment *)
    | Change_cipher_spec
    | Need_more_data

  val create : unit -> t
  val feed : t -> string -> unit
  val enable_decryption : t -> Record.t -> unit
  (** All subsequent application_data records are opened with this state. *)

  val next : t -> event
  (** Pull-driven: the state machine asks for the next event only when it
      is ready to process it (CPU-serialized), so records that arrive
      before the traffic keys exist stay buffered and undecrypted.
      @raise Wire.Decode_error on malformed input, failed decryption, or
      a record longer than RFC 8446 allows ("record_overflow": 2^14
      bytes of plaintext, 2^14 + 256 of ciphertext). *)
end

val max_fragment : int
(** 2^14, RFC 8446 section 5.1. *)

val fragment : (string -> string) -> string -> string
(** [fragment write msg] cuts [msg] into {!max_fragment}-byte pieces and
    concatenates [write piece] for each, in order: e.g.
    [Wire.record Handshake] for plaintext records, or
    [Record.seal crypt ty] for protected ones (advancing the write
    state). *)
