(** Short-Weierstrass elliptic curves (y^2 = x^3 + a x + b over F_p):
    the NIST prime curves P-256, P-384 and P-521, with ECDH and ECDSA.

    Points cross this interface in affine form. {!scalar_mult},
    {!base_mult} and ECDSA run on Jacobian coordinates internally (the
    a = -3 doubling formula, one inversion per scalar multiplication), and
    {!ecdsa_verify} computes [u1*G + u2*Q] in one shared doubling chain.
    {!add} and {!double} are the affine group law, one inversion each. *)

type curve = {
  name : string;
  p : Bignum.t;  (** field prime *)
  a : Bignum.t;
  b : Bignum.t;
  gx : Bignum.t;
  gy : Bignum.t;
  n : Bignum.t;  (** group order *)
  byte_size : int;  (** coordinate size in bytes *)
}

val p256 : curve
val p384 : curve
val p521 : curve

type point = Infinity | Affine of Bignum.t * Bignum.t

val on_curve : curve -> point -> bool
val add : curve -> point -> point -> point
val double : curve -> point -> point
val scalar_mult : curve -> Bignum.t -> point -> point
val base_mult : curve -> Bignum.t -> point

val encode_point : curve -> point -> string
(** Uncompressed SEC1 encoding [04 || X || Y].
    @raise Invalid_argument on the point at infinity. *)

val decode_point : curve -> string -> point option
(** Parses an uncompressed point and checks it lies on the curve. Both
    coordinates must be below [p] (SEC1 2.3.4): a coordinate encoded as
    its value plus [p] is rejected. *)

val gen_keypair : curve -> Drbg.t -> Bignum.t * point
(** [(d, Q = d*G)] with [d] uniform in [1, n). *)

val ecdh : curve -> Bignum.t -> point -> string
(** Shared secret: the X coordinate of [d * Q], fixed-width. *)

val ecdsa_sign : curve -> Drbg.t -> key:Bignum.t -> digest:string -> string
(** Raw [r || s] signature (fixed width), over a precomputed digest. *)

val ecdsa_verify : curve -> pub:point -> digest:string -> string -> bool
