(* CRYSTALS-Kyber, round-3 submission (the parameter sets benchmarked by
   the paper's OQS-OpenSSL). Plain modular arithmetic throughout: with
   q = 3329 every intermediate fits a native int, and handshake timing in
   this project is virtual, so Montgomery/Barrett tricks would only
   obscure the math. Structure follows the reference implementation. *)
[@@@lint.kernel
  "polynomial arrays are fixed size n = 256 and pack/unpack loops are bounded by the byte lengths computed from the parameter set"]


module Bytesx = Crypto.Bytesx

let n = 256
let q = 3329
let sym_bytes = 32
let shared_secret_bytes = 32

(* zetas.(i) = 17^bitrev7(i) mod q *)
let zetas =
  let bitrev7 i =
    let r = ref 0 in
    for b = 0 to 6 do
      if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (6 - b))
    done;
    !r
  in
  let pow b e =
    let r = ref 1 and b = ref b and e = ref e in
    while !e > 0 do
      if !e land 1 = 1 then r := !r * !b mod q;
      b := !b * !b mod q;
      e := !e lsr 1
    done;
    !r
  in
  Array.init 128 (fun i -> pow 17 (bitrev7 i))
[@@lint.allow "S1" "init-once NTT twiddle table; never written after \
                    module init"]

let inv128 = 3303 (* 128^-1 mod q *)

type poly = int array (* 256 coefficients in [0, q) *)

let poly_zero () : poly = Array.make n 0
let modq x = ((x mod q) + q) mod q

let poly_add a b = Array.init n (fun i -> modq (a.(i) + b.(i)))
let poly_sub a b = Array.init n (fun i -> modq (a.(i) - b.(i)))

let ntt r =
  let r = Array.copy r in
  let k = ref 1 in
  let len = ref 128 in
  while !len >= 2 do
    let start = ref 0 in
    while !start < 256 do
      let zeta = zetas.(!k) in
      incr k;
      for j = !start to !start + !len - 1 do
        let t = zeta * r.(j + !len) mod q in
        r.(j + !len) <- modq (r.(j) - t);
        r.(j) <- modq (r.(j) + t)
      done;
      start := !start + (2 * !len)
    done;
    len := !len / 2
  done;
  r

let inv_ntt r =
  let r = Array.copy r in
  let k = ref 127 in
  let len = ref 2 in
  while !len <= 128 do
    let start = ref 0 in
    while !start < 256 do
      let zeta = zetas.(!k) in
      decr k;
      for j = !start to !start + !len - 1 do
        let t = r.(j) in
        r.(j) <- modq (t + r.(j + !len));
        r.(j + !len) <- zeta * modq (r.(j + !len) - t) mod q
      done;
      start := !start + (2 * !len)
    done;
    len := !len * 2
  done;
  for j = 0 to n - 1 do
    r.(j) <- r.(j) * inv128 mod q
  done;
  r

(* multiplication in the NTT domain: 128 products of degree-1 polys *)
let basemul a b =
  let r = poly_zero () in
  for i = 0 to 63 do
    let zeta = zetas.(64 + i) in
    let mul4 off zsign =
      let a0 = a.(off) and a1 = a.(off + 1) in
      let b0 = b.(off) and b1 = b.(off + 1) in
      let z = if zsign then zeta else q - zeta in
      r.(off) <- modq ((a0 * b0 mod q) + (a1 * b1 mod q * z mod q));
      r.(off + 1) <- modq ((a0 * b1 mod q) + (a1 * b0 mod q))
    in
    mul4 (4 * i) true;
    mul4 ((4 * i) + 2) false
  done;
  r

(* --- bit packing ------------------------------------------------------ *)

let pack_bits d poly =
  let out = Bytes.make (d * n / 8) '\000' in
  let acc = ref 0 and acc_bits = ref 0 and pos = ref 0 in
  Array.iter
    (fun c ->
      acc := !acc lor (c lsl !acc_bits);
      acc_bits := !acc_bits + d;
      while !acc_bits >= 8 do
        Bytes.set out !pos (Char.chr (!acc land 0xff));
        incr pos;
        acc := !acc lsr 8;
        acc_bits := !acc_bits - 8
      done)
    poly;
  Bytes.unsafe_to_string out

let unpack_bits d s off =
  let out = poly_zero () in
  let acc = ref 0 and acc_bits = ref 0 and pos = ref off in
  for i = 0 to n - 1 do
    while !acc_bits < d do
      acc := !acc lor (Char.code s.[!pos] lsl !acc_bits);
      incr pos;
      acc_bits := !acc_bits + 8
    done;
    out.(i) <- !acc land ((1 lsl d) - 1);
    acc := !acc lsr d;
    acc_bits := !acc_bits - d
  done;
  out

let compress d x = (((x lsl d) + (q / 2)) / q) land ((1 lsl d) - 1)
let decompress d y = ((y * q) + (1 lsl (d - 1))) lsr d

let poly_compress d p = pack_bits d (Array.map (compress d) p)
let poly_decompress d s off = Array.map (decompress d) (unpack_bits d s off)

(* --- symmetric-primitive profiles ------------------------------------- *)

type stream = int -> string (* squeeze next n bytes *)

type sym = {
  profile : string;
  h : string -> string; (* 32-byte hash *)
  g : string -> string; (* 64-byte hash *)
  kdf : string -> string; (* 32-byte KDF *)
  xof : string -> int -> int -> stream; (* rho, x, y *)
  prf : string -> int -> int -> string; (* seed, nonce, len *)
}

let shake_stream msg =
  let x = Crypto.Keccak.Xof.shake128 msg in
  fun len -> Crypto.Keccak.Xof.squeeze x len

let aes_stream key nonce =
  let s = Crypto.Aes.ctr_stream (Crypto.Aes.expand_key key) ~nonce in
  fun len -> Crypto.Aes.squeeze s len

let two_bytes a b = String.init 2 (fun i -> Char.chr (if i = 0 then a else b))

let sym_shake =
  { profile = "shake";
    h = Crypto.Keccak.sha3_256;
    g = Crypto.Keccak.sha3_512;
    kdf = (fun s -> Crypto.Keccak.shake256 s 32);
    xof = (fun rho x y -> shake_stream (rho ^ two_bytes x y));
    prf =
      (fun seed nonce len ->
        Crypto.Keccak.shake256 (seed ^ String.make 1 (Char.chr nonce)) len) }

let sym_90s =
  { profile = "90s";
    h = Crypto.Sha256.digest;
    g = Crypto.Sha512.digest;
    kdf = Crypto.Sha256.digest;
    xof =
      (fun rho x y ->
        aes_stream rho (two_bytes x y ^ String.make 10 '\000'));
    prf =
      (fun seed nonce len ->
        let nonce12 = String.make 1 (Char.chr nonce) ^ String.make 11 '\000' in
        Crypto.Aes.ctr_keystream (Crypto.Aes.expand_key seed) ~nonce:nonce12 len) }

(* --- sampling ---------------------------------------------------------- *)

(* uniform rejection sampling of an NTT-domain polynomial *)
let sample_ntt stream =
  let out = poly_zero () in
  let filled = ref 0 in
  while !filled < n do
    let buf = stream 3 in
    let b0 = Char.code buf.[0] and b1 = Char.code buf.[1] and b2 = Char.code buf.[2] in
    let d1 = b0 lor ((b1 land 0x0f) lsl 8) in
    let d2 = (b1 lsr 4) lor (b2 lsl 4) in
    if d1 < q && !filled < n then begin
      out.(!filled) <- d1;
      incr filled
    end;
    if d2 < q && !filled < n then begin
      out.(!filled) <- d2;
      incr filled
    end
  done;
  out

(* centered binomial distribution of parameter eta *)
let cbd eta buf =
  let bit i = (Char.code buf.[i lsr 3] lsr (i land 7)) land 1 in
  let out = poly_zero () in
  for i = 0 to n - 1 do
    let base = 2 * eta * i in
    let a = ref 0 and b = ref 0 in
    for j = 0 to eta - 1 do
      a := !a + bit (base + j);
      b := !b + bit (base + eta + j)
    done;
    out.(i) <- modq (!a - !b)
  done;
  out

(* --- parameter sets ---------------------------------------------------- *)

type params = {
  name : string;
  k : int;
  eta1 : int;
  eta2 : int;
  du : int;
  dv : int;
  sym : sym;
}

let kyber512 = { name = "kyber512"; k = 2; eta1 = 3; eta2 = 2; du = 10; dv = 4; sym = sym_shake }
let kyber768 = { name = "kyber768"; k = 3; eta1 = 2; eta2 = 2; du = 10; dv = 4; sym = sym_shake }
let kyber1024 = { name = "kyber1024"; k = 4; eta1 = 2; eta2 = 2; du = 11; dv = 5; sym = sym_shake }
let kyber512_90s = { kyber512 with name = "kyber90s512"; sym = sym_90s }
let kyber768_90s = { kyber768 with name = "kyber90s768"; sym = sym_90s }
let kyber1024_90s = { kyber1024 with name = "kyber90s1024"; sym = sym_90s }

let name p = p.name
let poly_vec_bytes p = 384 * p.k
let public_key_bytes p = poly_vec_bytes p + sym_bytes
let indcpa_secret_bytes p = poly_vec_bytes p
let secret_key_bytes p = indcpa_secret_bytes p + public_key_bytes p + (2 * sym_bytes)
let ciphertext_bytes p = (p.du * p.k * n / 8) + (p.dv * n / 8)

(* --- IND-CPA public-key encryption ------------------------------------ *)

let gen_matrix p rho ~transposed =
  Array.init p.k (fun i ->
      Array.init p.k (fun j ->
          let x, y = if transposed then (i, j) else (j, i) in
          sample_ntt (p.sym.xof rho x y)))

let sample_vec p ~eta ~seed ~nonce0 =
  Array.init p.k (fun i -> cbd eta (p.sym.prf seed (nonce0 + i) (64 * eta)))

let vec_ntt = Array.map ntt

let mat_vec_mul mat v =
  Array.map
    (fun row ->
      let acc = ref (poly_zero ()) in
      Array.iteri (fun j aij -> acc := poly_add !acc (basemul aij v.(j))) row;
      !acc)
    mat

let inner_product a b =
  let acc = ref (poly_zero ()) in
  Array.iteri (fun i ai -> acc := poly_add !acc (basemul ai b.(i))) a;
  !acc

let indcpa_keygen p d =
  let seeds = p.sym.g d in
  let rho = String.sub seeds 0 32 and sigma = String.sub seeds 32 32 in
  let a = gen_matrix p rho ~transposed:false in
  let s = sample_vec p ~eta:p.eta1 ~seed:sigma ~nonce0:0 in
  let e = sample_vec p ~eta:p.eta1 ~seed:sigma ~nonce0:p.k in
  let s_hat = vec_ntt s and e_hat = vec_ntt e in
  let t_hat = Array.mapi (fun i ti -> poly_add ti e_hat.(i)) (mat_vec_mul a s_hat) in
  let pk =
    Bytesx.concat (Array.to_list (Array.map (pack_bits 12) t_hat)) ^ rho
  in
  let sk = Bytesx.concat (Array.to_list (Array.map (pack_bits 12) s_hat)) in
  (pk, sk)

let decode_vec12 p s =
  Array.init p.k (fun i -> unpack_bits 12 s (384 * i))

let indcpa_encrypt p pk m coins =
  let t_hat = decode_vec12 p pk in
  let rho = String.sub pk (poly_vec_bytes p) 32 in
  let at = gen_matrix p rho ~transposed:true in
  let r = sample_vec p ~eta:p.eta1 ~seed:coins ~nonce0:0 in
  let e1 = sample_vec p ~eta:p.eta2 ~seed:coins ~nonce0:p.k in
  let e2 = cbd p.eta2 (p.sym.prf coins (2 * p.k) (64 * p.eta2)) in
  let r_hat = vec_ntt r in
  let u =
    Array.mapi (fun i ui -> poly_add (inv_ntt ui) e1.(i)) (mat_vec_mul at r_hat)
  in
  let msg_poly =
    Array.init n (fun i ->
        let bit = (Char.code m.[i lsr 3] lsr (i land 7)) land 1 in
        decompress 1 bit)
  in
  let v = poly_add (poly_add (inv_ntt (inner_product t_hat r_hat)) e2) msg_poly in
  let cu = Bytesx.concat (Array.to_list (Array.map (poly_compress p.du) u)) in
  let cv = poly_compress p.dv v in
  cu ^ cv

let indcpa_decrypt p sk c =
  let du_bytes = p.du * n / 8 in
  let u = Array.init p.k (fun i -> poly_decompress p.du c (du_bytes * i)) in
  let v = poly_decompress p.dv c (du_bytes * p.k) in
  let s_hat = decode_vec12 p sk in
  let w = poly_sub v (inv_ntt (inner_product s_hat (vec_ntt u))) in
  let m = Bytes.make 32 '\000' in
  Array.iteri
    (fun i coeff ->
      let bit = compress 1 coeff in
      if bit = 1 then
        Bytes.set m (i lsr 3)
          (Char.chr (Char.code (Bytes.get m (i lsr 3)) lor (1 lsl (i land 7)))))
    w;
  Bytes.unsafe_to_string m

(* --- CCA-secure KEM (Fujisaki-Okamoto, round-3 flavour) ---------------- *)

let keygen p rng =
  let d = Crypto.Drbg.generate rng 32 in
  let z = Crypto.Drbg.generate rng 32 in
  let pk, sk_cpa = indcpa_keygen p d in
  let sk = sk_cpa ^ pk ^ p.sym.h pk ^ z in
  (pk, sk)

let encaps p rng pk =
  if String.length pk <> public_key_bytes p then invalid_arg "Kyber.encaps: bad pk";
  let m = p.sym.h (Crypto.Drbg.generate rng 32) in
  let kr = p.sym.g (m ^ p.sym.h pk) in
  let k_bar = String.sub kr 0 32 and coins = String.sub kr 32 32 in
  let c = indcpa_encrypt p pk m coins in
  let ss = p.sym.kdf (k_bar ^ p.sym.h c) in
  (c, ss)

let decaps p sk c =
  if String.length sk <> secret_key_bytes p then invalid_arg "Kyber.decaps: bad sk";
  if String.length c <> ciphertext_bytes p then invalid_arg "Kyber.decaps: bad ct";
  let ipv = indcpa_secret_bytes p in
  let pkb = public_key_bytes p in
  let sk_cpa = String.sub sk 0 ipv in
  let pk = String.sub sk ipv pkb in
  let h_pk = String.sub sk (ipv + pkb) 32 in
  let z = String.sub sk (ipv + pkb + 32) 32 in
  let m' = indcpa_decrypt p sk_cpa c in
  let kr = p.sym.g (m' ^ h_pk) in
  let k_bar = String.sub kr 0 32 and coins = String.sub kr 32 32 in
  let c' = indcpa_encrypt p pk m' coins in
  if Bytesx.equal_ct c c' then p.sym.kdf (k_bar ^ p.sym.h c)
  else p.sym.kdf (z ^ p.sym.h c) (* implicit rejection *)

(* ---- micro-benchmark kernel hook ----------------------------------------- *)

let bench_ntt () =
  let p = Array.init n (fun i -> i * 17 mod q) in
  fun () -> ignore (ntt p : poly)
