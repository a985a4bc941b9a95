(* Public-key primitives: X25519 (RFC 7748 vectors), NIST-curve
   ECDH/ECDSA, RSA. *)

open Crypto

let hex = Bytesx.of_hex

let test_x25519_vectors () =
  let check (scalar, point, want) =
    Alcotest.(check string) "rfc7748" want
      (Bytesx.to_hex (X25519.scalar_mult ~scalar:(hex scalar) ~point:(hex point)))
  in
  List.iter check
    [ ( "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
        "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552" );
      ( "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
        "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
        "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957" ) ]

(* RFC 7748 section 5.2: k = u = 9, then repeatedly k, u <- X25519(k, u), k *)
let test_x25519_iterated () =
  let k = ref X25519.base_point and u = ref X25519.base_point in
  let after n want =
    for _ = 1 to n do
      let r = X25519.scalar_mult ~scalar:!k ~point:!u in
      u := !k;
      k := r
    done;
    Alcotest.(check string) "rfc7748 iterated" want (Bytesx.to_hex !k)
  in
  after 1 "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079";
  after 999 "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"

let test_x25519_dh () =
  let rng = Drbg.create ~seed:"x25519" in
  for _ = 1 to 5 do
    let a = Drbg.generate rng 32 and bsec = Drbg.generate rng 32 in
    let pa = X25519.public_of_secret a and pb = X25519.public_of_secret bsec in
    Alcotest.(check string) "dh agreement"
      (Bytesx.to_hex (X25519.scalar_mult ~scalar:a ~point:pb))
      (Bytesx.to_hex (X25519.scalar_mult ~scalar:bsec ~point:pa))
  done

let curves = [ ("p256", Ec.p256); ("p384", Ec.p384); ("p521", Ec.p521) ]

let test_ec_group_laws () =
  List.iter
    (fun (name, c) ->
      let g = Ec.Affine (c.Ec.gx, c.Ec.gy) in
      Alcotest.(check bool) (name ^ " generator on curve") true (Ec.on_curve c g);
      (* n * G = infinity *)
      Alcotest.(check bool) (name ^ " order kills G") true
        (Ec.scalar_mult c c.Ec.n g = Ec.Infinity);
      (* 2G + G = 3G, computed two ways *)
      let two_g = Ec.double c g in
      Alcotest.(check bool) (name ^ " 2G on curve") true (Ec.on_curve c two_g);
      let three_a = Ec.add c two_g g in
      let three_b = Ec.base_mult c (Bignum.of_int 3) in
      Alcotest.(check bool) (name ^ " 2G+G = 3G") true (three_a = three_b);
      (* commutativity *)
      Alcotest.(check bool) (name ^ " add commutes") true
        (Ec.add c g two_g = Ec.add c two_g g);
      (* identity *)
      Alcotest.(check bool) (name ^ " G + inf = G") true
        (Ec.add c g Ec.Infinity = g))
    curves

let test_ecdh () =
  let rng = Drbg.create ~seed:"ecdh" in
  List.iter
    (fun (name, c) ->
      let d1, q1 = Ec.gen_keypair c rng in
      let d2, q2 = Ec.gen_keypair c rng in
      Alcotest.(check string) (name ^ " agreement")
        (Bytesx.to_hex (Ec.ecdh c d1 q2))
        (Bytesx.to_hex (Ec.ecdh c d2 q1));
      Alcotest.(check int) (name ^ " secret width") c.Ec.byte_size
        (String.length (Ec.ecdh c d1 q2));
      (* point codec *)
      let enc = Ec.encode_point c q1 in
      Alcotest.(check int) (name ^ " point size") (1 + (2 * c.Ec.byte_size))
        (String.length enc);
      Alcotest.(check bool) (name ^ " decode") true (Ec.decode_point c enc = Some q1);
      (* off-curve points are rejected *)
      let bad = Bytes.of_string enc in
      Bytes.set bad 5 (Char.chr (Char.code (Bytes.get bad 5) lxor 1));
      Alcotest.(check bool) (name ^ " off-curve rejected") true
        (Ec.decode_point c (Bytes.to_string bad) = None))
    curves

(* A point with a small x, so x + p still fits the coordinate width on
   every curve. All three primes are 3 mod 4: sqrt(v) = v^((p+1)/4). *)
let small_x_point c =
  let p = c.Ec.p in
  let sqrt_exp = Bignum.shift_right (Bignum.add p Bignum.one) 2 in
  let rec go x =
    let xb = Bignum.of_int x in
    let rhs =
      Bignum.mod_add
        (Bignum.mod_sub (Bignum.mod_pow xb (Bignum.of_int 3) ~m:p)
           (Bignum.mod_mul (Bignum.of_int 3) xb ~m:p) ~m:p)
        c.Ec.b ~m:p
    in
    let y = Bignum.mod_pow rhs sqrt_exp ~m:p in
    if Bignum.equal (Bignum.mod_mul y y ~m:p) rhs then (xb, y) else go (x + 1)
  in
  go 1

let test_ec_noncanonical () =
  List.iter
    (fun (name, c) ->
      let sz = c.Ec.byte_size in
      let enc x y =
        "\x04" ^ Bignum.to_bytes_be ~len:sz x ^ Bignum.to_bytes_be ~len:sz y
      in
      let x, y = small_x_point c in
      Alcotest.(check bool) (name ^ " small-x point decodes") true
        (Ec.decode_point c (enc x y) = Some (Ec.Affine (x, y)));
      Alcotest.(check bool) (name ^ " x + p rejected") true
        (Ec.decode_point c (enc (Bignum.add x c.Ec.p) y) = None))
    curves;
  (* P-521's 66-byte coordinates leave room for any y + p *)
  let c = Ec.p521 in
  let sz = c.Ec.byte_size in
  Alcotest.(check bool) "p521 y + p rejected" true
    (Ec.decode_point c
       ("\x04" ^ Bignum.to_bytes_be ~len:sz c.Ec.gx
       ^ Bignum.to_bytes_be ~len:sz (Bignum.add c.Ec.gy c.Ec.p))
    = None)

let test_ecdsa () =
  let rng = Drbg.create ~seed:"ecdsa" in
  List.iter
    (fun (name, c) ->
      let d, q = Ec.gen_keypair c rng in
      let digest = Sha256.digest "message" in
      let signature = Ec.ecdsa_sign c rng ~key:d ~digest in
      Alcotest.(check int) (name ^ " sig size") (2 * c.Ec.byte_size)
        (String.length signature);
      Alcotest.(check bool) (name ^ " verify") true
        (Ec.ecdsa_verify c ~pub:q ~digest signature);
      Alcotest.(check bool) (name ^ " wrong digest") false
        (Ec.ecdsa_verify c ~pub:q ~digest:(Sha256.digest "other") signature);
      let bad = Bytes.of_string signature in
      Bytes.set bad 3 (Char.chr (Char.code (Bytes.get bad 3) lxor 1));
      Alcotest.(check bool) (name ^ " corrupt sig") false
        (Ec.ecdsa_verify c ~pub:q ~digest (Bytes.to_string bad));
      let d2, q2 = Ec.gen_keypair c rng in
      ignore d2;
      Alcotest.(check bool) (name ^ " wrong key") false
        (Ec.ecdsa_verify c ~pub:q2 ~digest signature))
    curves

let test_rsa () =
  List.iter
    (fun bits ->
      let key = Rsa_keys.fixed_key bits in
      let msg = "post-quantum tls " ^ string_of_int bits in
      let signature = Rsa.sign_pkcs1_sha256 key msg in
      Alcotest.(check int) "sig = modulus size" (bits / 8) (String.length signature);
      Alcotest.(check bool) "verify" true
        (Rsa.verify_pkcs1_sha256 key.Rsa.pub ~msg signature);
      Alcotest.(check bool) "wrong msg" false
        (Rsa.verify_pkcs1_sha256 key.Rsa.pub ~msg:"x" signature);
      let bad = Bytes.of_string signature in
      Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) lxor 1));
      Alcotest.(check bool) "corrupt" false
        (Rsa.verify_pkcs1_sha256 key.Rsa.pub ~msg (Bytes.to_string bad));
      (* pub codec *)
      let enc = Rsa.encode_pub key.Rsa.pub in
      match Rsa.decode_pub enc with
      | Some pub ->
        Alcotest.(check bool) "pub roundtrip" true
          (Bignum.equal pub.Rsa.n key.Rsa.pub.Rsa.n
          && Bignum.equal pub.Rsa.e key.Rsa.pub.Rsa.e)
      | None -> Alcotest.fail "pub decode")
    [ 1024; 2048 ]

let test_rsa_keygen () =
  (* fresh keygen at a small size so the test stays fast *)
  let rng = Drbg.create ~seed:"rsa-keygen" in
  let key = Rsa.gen rng ~bits:512 in
  Alcotest.(check int) "modulus bits" 64 (Rsa.modulus_bytes key.Rsa.pub);
  let msg = "fresh key" in
  Alcotest.(check bool) "fresh key signs" true
    (Rsa.verify_pkcs1_sha256 key.Rsa.pub ~msg (Rsa.sign_pkcs1_sha256 key msg))

let qc name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:20 gen prop)

(* The RFC 7748 ladder over generic Bignum field arithmetic: the oracle
   the X25519 field kernel must agree with. *)
let x25519_oracle ~scalar ~point =
  let module B = Bignum in
  let p = B.sub (B.shift_left B.one 255) (B.of_int 19) in
  let of_le s = B.of_bytes_be (String.init 32 (fun i -> s.[31 - i])) in
  let k =
    let b = Bytes.of_string scalar in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land 248));
    Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) land 127 lor 64));
    of_le (Bytes.to_string b)
  in
  let u =
    let b = Bytes.of_string point in
    Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) land 127));
    B.rem (of_le (Bytes.to_string b)) p
  in
  let add a b = B.mod_add a b ~m:p
  and sub a b = B.mod_sub a b ~m:p
  and mul a b = B.mod_mul a b ~m:p in
  let x2 = ref B.one and z2 = ref B.zero and x3 = ref u and z3 = ref B.one in
  let swap = ref false in
  let cswap cond =
    if cond then begin
      let t = !x2 in
      x2 := !x3;
      x3 := t;
      let t = !z2 in
      z2 := !z3;
      z3 := t
    end
  in
  for t = 254 downto 0 do
    let kt = B.testbit k t in
    cswap (!swap <> kt);
    swap := kt;
    let a = add !x2 !z2 and b = sub !x2 !z2 in
    let aa = mul a a and bb = mul b b in
    let e = sub aa bb in
    let da = mul (sub !x3 !z3) a and cb = mul (add !x3 !z3) b in
    x3 := mul (add da cb) (add da cb);
    z3 := mul u (mul (sub da cb) (sub da cb));
    x2 := mul aa bb;
    z2 := mul e (add aa (mul (B.of_int 121665) e))
  done;
  cswap !swap;
  let out = mul !x2 (B.mod_pow !z2 (B.sub p B.two) ~m:p) in
  let be = B.to_bytes_be ~len:32 out in
  String.init 32 (fun i -> be.[31 - i])

(* u-coordinates the kernel must reduce: random, just below p =
   2^255 - 19, or at or above it (non-canonical); when bit 2 of [i] is
   set, bit 255 is set too *)
let x25519_u rng i =
  let u =
    if i mod 3 = 0 then Drbg.generate rng 32
    else begin
      let p =
        Bignum.sub (Bignum.shift_left Bignum.one 255) (Bignum.of_int 19)
      in
      let off = Bignum.of_int (Char.code (Drbg.generate rng 1).[0] mod 19) in
      let u =
        if i mod 3 = 1 then Bignum.sub p (Bignum.add off Bignum.one)
        else Bignum.add p off
      in
      let be = Bignum.to_bytes_be ~len:32 u in
      String.init 32 (fun i -> be.[31 - i])
    end
  in
  let b = Bytes.of_string u in
  if i land 4 <> 0 then
    Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) lor 0x80));
  Bytes.to_string b

let ec_curve =
  QCheck.make ~print:(fun c -> c.Ec.name)
    (QCheck.Gen.oneofl [ Ec.p256; Ec.p384; Ec.p521 ])

(* a scalar in [0, n) drawn from (curve, tag, seed) *)
let scalar c seed tag =
  let seed = Printf.sprintf "%s/%s/%d" c.Ec.name tag seed in
  Bignum.random_below (Drbg.create ~seed) c.Ec.n

let ec_props =
  let open Ec in
  let neg c = function
    | Infinity -> Infinity
    | Affine (x, y) -> Affine (x, Bignum.mod_sub Bignum.zero y ~m:c.p)
  in
  let on_curves name prop = qc name QCheck.(pair ec_curve small_nat) prop in
  [ on_curves "ec (a+b)G = aG + bG" (fun (c, seed) ->
        let a = scalar c seed "a" and b = scalar c seed "b" in
        base_mult c (Bignum.add a b) = add c (base_mult c a) (base_mult c b));
    on_curves "ec 2P = P + P = double P" (fun (c, seed) ->
        let p = base_mult c (scalar c seed "p") in
        let two_p = scalar_mult c Bignum.two p in
        two_p = add c p p && two_p = double c p);
    on_curves "ec P + (-P) = infinity" (fun (c, seed) ->
        let a = scalar c seed "a" in
        let p = base_mult c a in
        add c p (neg c p) = Infinity
        && base_mult c (Bignum.sub c.n a) = neg c p
        && scalar_mult c (Bignum.add c.n Bignum.one) p = p);
    (* keys 1 and n - 1 make Q = G and Q = -G, so verification's shared
       chain adds G to itself (doubling) and to its negation *)
    on_curves "ecdsa sign/verify round-trips" (fun (c, seed) ->
        let rng = Drbg.create ~seed:(Printf.sprintf "ecdsa/%d" seed) in
        let d =
          match seed mod 4 with
          | 0 -> Bignum.one
          | 1 -> Bignum.sub c.n Bignum.one
          | _ ->
            let d = scalar c seed "d" in
            if Bignum.is_zero d then Bignum.one else d
        in
        let q = base_mult c d in
        let digest = Sha256.digest (string_of_int seed) in
        let signature = ecdsa_sign c rng ~key:d ~digest in
        ecdsa_verify c ~pub:q ~digest signature
        && not
             (ecdsa_verify c ~pub:q ~digest:(Sha256.digest "other") signature))
  ]

let prop_tests =
  [ qc "x25519 ladder ignores high bit of u" QCheck.small_int (fun i ->
        let rng = Drbg.create ~seed:("hb" ^ string_of_int i) in
        let scalar = Drbg.generate rng 32 in
        let point = Drbg.generate rng 32 in
        let flipped =
          Bytes.of_string point |> fun b ->
          Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) lxor 0x80));
          Bytes.to_string b
        in
        X25519.scalar_mult ~scalar ~point = X25519.scalar_mult ~scalar ~point:flipped);
    qc "ecdsa p256 roundtrip randomized" QCheck.small_string (fun m ->
        let rng = Drbg.create ~seed:"qc-ecdsa" in
        let d, q = Ec.gen_keypair Ec.p256 rng in
        let digest = Sha256.digest m in
        Ec.ecdsa_verify Ec.p256 ~pub:q ~digest
          (Ec.ecdsa_sign Ec.p256 rng ~key:d ~digest));
    qc "x25519 kernel agrees with the bignum ladder" QCheck.small_nat (fun i ->
        let rng = Drbg.create ~seed:("x25519-oracle" ^ string_of_int i) in
        let scalar = Drbg.generate rng 32 and point = x25519_u rng i in
        X25519.scalar_mult ~scalar ~point = x25519_oracle ~scalar ~point) ]
  @ ec_props

let suites =
  [ ( "pubkey",
      [ Alcotest.test_case "x25519 rfc7748" `Quick test_x25519_vectors;
        Alcotest.test_case "x25519 rfc7748 iterated" `Quick
          test_x25519_iterated;
        Alcotest.test_case "x25519 dh" `Quick test_x25519_dh;
        Alcotest.test_case "ec group laws" `Quick test_ec_group_laws;
        Alcotest.test_case "ecdh all curves" `Quick test_ecdh;
        Alcotest.test_case "ec non-canonical coordinates" `Quick
          test_ec_noncanonical;
        Alcotest.test_case "ecdsa all curves" `Quick test_ecdsa;
        Alcotest.test_case "rsa fixed keys" `Quick test_rsa;
        Alcotest.test_case "rsa keygen" `Slow test_rsa_keygen ]
      @ prop_tests ) ]
