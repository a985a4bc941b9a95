module B = Bignum

type curve = {
  name : string;
  p : B.t;
  a : B.t;
  b : B.t;
  gx : B.t;
  gy : B.t;
  n : B.t;
  byte_size : int;
}

let curve name ~p ~b ~gx ~gy ~n ~byte_size =
  let p = B.of_hex p in
  { name; p; a = B.sub p (B.of_int 3); b = B.of_hex b; gx = B.of_hex gx;
    gy = B.of_hex gy; n = B.of_hex n; byte_size }

let p256 =
  curve "P-256" ~byte_size:32
    ~p:"ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"
    ~b:"5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b"
    ~gx:"6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"
    ~gy:"4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"
    ~n:"ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"

let p384 =
  curve "P-384" ~byte_size:48
    ~p:
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe\
       ffffffff0000000000000000ffffffff"
    ~b:
      "b3312fa7e23ee7e4988e056be3f82d19181d9c6efe8141120314088f5013875a\
       c656398d8a2ed19d2a85c8edd3ec2aef"
    ~gx:
      "aa87ca22be8b05378eb1c71ef320ad746e1d3b628ba79b9859f741e082542a38\
       5502f25dbf55296c3a545e3872760ab7"
    ~gy:
      "3617de4a96262c6f5d9e98bf9292dc29f8f41dbd289a147ce9da3113b5f0b8c0\
       0a60b1ce1d7e819d7a431d7c90ea0e5f"
    ~n:
      "ffffffffffffffffffffffffffffffffffffffffffffffffc7634d81f4372ddf\
       581a0db248b0a77aecec196accc52973"

let p521 =
  curve "P-521" ~byte_size:66
    ~p:
      "01ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff\
       ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff\
       ffff"
    ~b:
      "0051953eb9618e1c9a1f929a21a0b68540eea2da725b99b315f3b8b489918ef1\
       09e156193951ec7e937b1652c0bd3bb1bf073573df883d2c34f1ef451fd46b50\
       3f00"
    ~gx:
      "00c6858e06b70404e9cd9e3ecb662395b4429c648139053fb521f828af606b4d\
       3dbaa14b5e77efe75928fe1dc127a2ffa8de3348b3c1856a429bf97e7e31c2e5\
       bd66"
    ~gy:
      "011839296a789a3bc0045c8a5fb42c7d1bd998f54449579b446817afbd17273e\
       662c97ee72995ef42640c550b9013fad0761353c7086a272c24088be94769fd1\
       6650"
    ~n:
      "01ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff\
       fffa51868783bf2f966b7fcc0148f709a5d03bb5c9b8899c47aebb6fb71e9138\
       6409"

type point = Infinity | Affine of B.t * B.t

let on_curve c = function
  | Infinity -> true
  | Affine (x, y) ->
    let lhs = B.mod_mul y y ~m:c.p in
    let x2 = B.mod_mul x x ~m:c.p in
    let x3 = B.mod_mul x2 x ~m:c.p in
    let rhs = B.mod_add (B.mod_add x3 (B.mod_mul c.a x ~m:c.p) ~m:c.p) c.b ~m:c.p in
    B.equal lhs rhs

let double c pt =
  match pt with
  | Infinity -> Infinity
  | Affine (_, y) when B.is_zero y -> Infinity
  | Affine (x, y) ->
    let m = c.p in
    let three_x2 = B.mod_mul (B.of_int 3) (B.mod_mul x x ~m) ~m in
    let num = B.mod_add three_x2 c.a ~m in
    let den = B.mod_inv (B.mod_mul B.two y ~m) ~m in
    let s = B.mod_mul num den ~m in
    let x' = B.mod_sub (B.mod_mul s s ~m) (B.mod_add x x ~m) ~m in
    let y' = B.mod_sub (B.mod_mul s (B.mod_sub x x' ~m) ~m) y ~m in
    Affine (x', y')

let add c p1 p2 =
  match (p1, p2) with
  | Infinity, q | q, Infinity -> q
  | Affine (x1, y1), Affine (x2, y2) ->
    if B.equal x1 x2 then
      if B.equal y1 y2 then double c p1 else Infinity
    else begin
      let m = c.p in
      let s =
        B.mod_mul (B.mod_sub y2 y1 ~m) (B.mod_inv (B.mod_sub x2 x1 ~m) ~m) ~m
      in
      let x3 = B.mod_sub (B.mod_sub (B.mod_mul s s ~m) x1 ~m) x2 ~m in
      let y3 = B.mod_sub (B.mod_mul s (B.mod_sub x1 x3 ~m) ~m) y1 ~m in
      Affine (x3, y3)
    end

(* Jacobian coordinates: (X, Y, Z) is the affine point (X/Z^2, Y/Z^3),
   and Z = 0 is the point at infinity. Scalar multiplication stays in
   this form and inverts once, at the end. Coordinates are kept reduced
   mod p, which the mod_add/mod_sub helpers require. *)
type jacobian = { x : B.t; y : B.t; z : B.t }

let j_infinity = { x = B.one; y = B.one; z = B.zero }

let of_affine = function
  | Infinity -> j_infinity
  | Affine (x, y) -> { x; y; z = B.one }

let to_affine c { x; y; z } =
  if B.is_zero z then Infinity
  else begin
    let m = c.p in
    let zinv = B.mod_inv z ~m in
    let zinv2 = B.mod_mul zinv zinv ~m in
    Affine (B.mod_mul x zinv2 ~m, B.mod_mul y (B.mod_mul zinv2 zinv ~m) ~m)
  end

(* dbl-2001-b, valid because all three curves have a = -3 *)
let j_double c { x; y; z } =
  if B.is_zero z || B.is_zero y then j_infinity
  else begin
    let m = c.p in
    let ( + ) a b = B.mod_add a b ~m
    and ( - ) a b = B.mod_sub a b ~m
    and ( * ) a b = B.mod_mul a b ~m in
    let delta = z * z and gamma = y * y in
    let beta = x * gamma in
    let t = (x - delta) * (x + delta) in
    let alpha = t + t + t in
    let beta2 = beta + beta in
    let beta4 = beta2 + beta2 in
    let x3 = (alpha * alpha) - (beta4 + beta4) in
    let z3 = ((y + z) * (y + z)) - gamma - delta in
    let gamma2 = gamma * gamma in
    let gamma4 = gamma2 + gamma2 in
    let gamma8 = gamma4 + gamma4 in
    { x = x3; y = (alpha * (beta4 - x3)) - (gamma8 + gamma8); z = z3 }
  end

(* add-1998-cmo-2; equal inputs fall back to doubling *)
let j_add c p1 p2 =
  if B.is_zero p1.z then p2
  else if B.is_zero p2.z then p1
  else begin
    let m = c.p in
    let ( - ) a b = B.mod_sub a b ~m and ( * ) a b = B.mod_mul a b ~m in
    let z1z1 = p1.z * p1.z and z2z2 = p2.z * p2.z in
    let u1 = p1.x * z2z2 and u2 = p2.x * z1z1 in
    let s1 = p1.y * (p2.z * z2z2) and s2 = p2.y * (p1.z * z1z1) in
    if B.equal u1 u2 then if B.equal s1 s2 then j_double c p1 else j_infinity
    else begin
      let h = u2 - u1 and r = s2 - s1 in
      let hh = h * h in
      let hhh = h * hh and v = u1 * hh in
      let x3 = (r * r) - hhh - B.mod_add v v ~m in
      { x = x3; y = (r * (v - x3)) - (s1 * hhh); z = p1.z * p2.z * h }
    end
  end

(* left-to-right double-and-add over the bits of [k], adding [pick i]
   after the doubling at bit [i]: one shared doubling chain for one or
   more scalars *)
let double_and_add c ~bits pick =
  let acc = ref j_infinity in
  for i = bits - 1 downto 0 do
    acc := j_double c !acc;
    match pick i with None -> () | Some q -> acc := j_add c !acc q
  done;
  to_affine c !acc

let scalar_mult c k pt =
  let q = of_affine pt in
  double_and_add c ~bits:(B.bit_length k) (fun i ->
      if B.testbit k i then Some q else None)

let base_mult c k = scalar_mult c k (Affine (c.gx, c.gy))

(* u1*G + u2*Q in one doubling chain (Shamir's trick) *)
let double_mult c u1 u2 pub =
  let g = of_affine (Affine (c.gx, c.gy)) and q = of_affine pub in
  let gq = j_add c g q in
  double_and_add c
    ~bits:(max (B.bit_length u1) (B.bit_length u2))
    (fun i ->
      match (B.testbit u1 i, B.testbit u2 i) with
      | true, true -> Some gq
      | true, false -> Some g
      | false, true -> Some q
      | false, false -> None)

let encode_point c = function
  | Infinity -> invalid_arg "Ec.encode_point: infinity"
  | Affine (x, y) ->
    "\x04"
    ^ B.to_bytes_be ~len:c.byte_size x
    ^ B.to_bytes_be ~len:c.byte_size y

let decode_point c s =
  let sz = c.byte_size in
  if String.length s <> 1 + (2 * sz) || s.[0] <> '\x04' then None
  else begin
    let x = B.of_bytes_be (String.sub s 1 sz) in
    let y = B.of_bytes_be (String.sub s (1 + sz) sz) in
    let pt = Affine (x, y) in
    (* SEC1 2.3.4: both coordinates must be field elements, not merely
       congruent to one *)
    let in_field v = B.compare v c.p < 0 in
    if in_field x && in_field y && on_curve c pt then Some pt else None
  end

let gen_keypair c rng =
  let d = B.add B.one (B.random_below rng (B.sub c.n B.one)) in
  (d, base_mult c d)

let ecdh c d q =
  match scalar_mult c d q with
  | Infinity -> invalid_arg "Ec.ecdh: degenerate shared point"
  | Affine (x, _) -> B.to_bytes_be ~len:c.byte_size x

(* digest -> integer, truncated to the order's bit length per FIPS 186 *)
let bits_of_digest c digest =
  let e = B.of_bytes_be digest in
  let dbits = 8 * String.length digest and nbits = B.bit_length c.n in
  if dbits > nbits then B.shift_right e (dbits - nbits) else e

let ecdsa_sign c rng ~key ~digest =
  let z = B.rem (bits_of_digest c digest) c.n in
  let rec go () =
    let k = B.add B.one (B.random_below rng (B.sub c.n B.one)) in
    match base_mult c k with
    | Infinity -> go ()
    | Affine (x, _) ->
      let r = B.rem x c.n in
      if B.is_zero r then go ()
      else begin
        let kinv = B.mod_inv k ~m:c.n in
        let s = B.mod_mul kinv (B.mod_add z (B.mod_mul r key ~m:c.n) ~m:c.n) ~m:c.n in
        if B.is_zero s then go ()
        else B.to_bytes_be ~len:c.byte_size r ^ B.to_bytes_be ~len:c.byte_size s
      end
  in
  go ()

let ecdsa_verify c ~pub ~digest signature =
  let sz = c.byte_size in
  if String.length signature <> 2 * sz then false
  else begin
    let r = B.of_bytes_be (String.sub signature 0 sz) in
    let s = B.of_bytes_be (String.sub signature sz sz) in
    let in_range v = not (B.is_zero v) && B.compare v c.n < 0 in
    if not (in_range r && in_range s) then false
    else begin
      let z = B.rem (bits_of_digest c digest) c.n in
      let w = B.mod_inv s ~m:c.n in
      let u1 = B.mod_mul z w ~m:c.n and u2 = B.mod_mul r w ~m:c.n in
      match double_mult c u1 u2 pub with
      | Infinity -> false
      | Affine (x, _) -> B.equal (B.rem x c.n) r
    end
  end
