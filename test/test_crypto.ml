(* Symmetric primitives against published vectors, plus property tests. *)

open Crypto

let hex = Bytesx.of_hex
let check_hex name want got = Alcotest.(check string) name want (Bytesx.to_hex got)
let msg = "The Performance of Post-Quantum TLS 1.3"

(* ---- hashes -------------------------------------------------------------- *)

let test_sha2 () =
  check_hex "sha256 empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest "");
  check_hex "sha256 abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest "abc");
  check_hex "sha256 msg"
    "5c961f4161b7f0cc3eb77f4fab0fb3d164e48028a3f02fba4009e16e16974cf2"
    (Sha256.digest msg);
  check_hex "sha512 abc"
    "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
     2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
    (Sha512.digest "abc")

let test_sha2_streaming () =
  (* feeding in odd-size chunks must equal the one-shot digest *)
  let data = String.init 100_000 (fun i -> Char.chr (i mod 251)) in
  let ctx = Sha256.init () in
  let pos = ref 0 and step = ref 1 in
  while !pos < String.length data do
    let take = min !step (String.length data - !pos) in
    Sha256.feed_sub ctx data !pos take;
    pos := !pos + take;
    step := (!step * 7 mod 1024) + 1
  done;
  check_hex "streamed = one-shot" (Bytesx.to_hex (Sha256.digest data)) (Sha256.get ctx);
  (* get must not disturb the running context *)
  let c2 = Sha256.init () in
  Sha256.feed c2 "ab";
  let _ = Sha256.get c2 in
  Sha256.feed c2 "c";
  check_hex "get is non-destructive"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.get c2)

let test_sha3 () =
  check_hex "sha3-256 empty"
    "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
    (Keccak.sha3_256 "");
  check_hex "sha3-256 msg"
    "c853950425f6bb6128ef36c5e52c194cea6e2aa2f46b0c37b20ce32fac270a67"
    (Keccak.sha3_256 msg);
  check_hex "sha3-512 abc"
    "b751850b1a57168a5693cd924b6b096e08f621827444f70d884f5d0240d2712e\
     10e116e9192af3c91a7ec57647e3934057340b4cf408d5a56592f8274eec53f0"
    (Keccak.sha3_512 "abc");
  check_hex "shake128 msg"
    "de805bd4a86e597fd39324bc92d86a68f5113f0c2a6ca5f7bd3cc991b50a7b12"
    (Keccak.shake128 msg 32);
  check_hex "shake256 empty (first 32)"
    "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
    (Keccak.shake256 "" 32)

let test_shake_incremental () =
  (* squeezing in pieces must equal a single squeeze *)
  let one_shot = Keccak.shake256 msg 700 in
  let x = Keccak.Xof.shake256 msg in
  let parts =
    List.map (Keccak.Xof.squeeze x) [ 1; 2; 61; 136; 300; 200 ]
  in
  Alcotest.(check string) "incremental squeeze" one_shot (String.concat "" parts)

(* ---- MAC / KDF ------------------------------------------------------------ *)

let test_hmac () =
  (* RFC 4231 test case 2 *)
  check_hex "hmac-sha256 rfc4231#2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.hmac Hmac.sha256 ~key:"Jefe" "what do ya want for nothing?");
  (* keys longer than the block size get hashed *)
  let long_key = String.make 200 'k' in
  Alcotest.(check string)
    "long key = hashed key"
    (Bytesx.to_hex (Hmac.hmac Hmac.sha256 ~key:(Sha256.digest long_key) msg))
    (Bytesx.to_hex (Hmac.hmac Hmac.sha256 ~key:long_key msg))

let test_hkdf () =
  (* RFC 5869 test case 1 *)
  let ikm = String.make 22 '\x0b' in
  let salt = hex "000102030405060708090a0b0c" in
  let info = hex "f0f1f2f3f4f5f6f7f8f9" in
  let prk = Hkdf.extract Hmac.sha256 ~salt ~ikm in
  check_hex "hkdf prk"
    "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5" prk;
  check_hex "hkdf okm"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
     34007208d5b887185865"
    (Hkdf.expand Hmac.sha256 ~prk ~info 42)

(* ---- AES / GCM ------------------------------------------------------------ *)

let test_aes () =
  let enc key pt =
    Bytesx.to_hex (Aes.encrypt_block (Aes.expand_key (hex key)) (hex pt))
  in
  Alcotest.(check string) "aes-128 fips-197"
    "69c4e0d86a7b0430d8cdb78070b4c55a"
    (enc "000102030405060708090a0b0c0d0e0f" "00112233445566778899aabbccddeeff");
  Alcotest.(check string) "aes-192 fips-197"
    "dda97ca4864cdfe06eaf70a0ec0d7191"
    (enc "000102030405060708090a0b0c0d0e0f1011121314151617"
       "00112233445566778899aabbccddeeff");
  Alcotest.(check string) "aes-256 fips-197"
    "8ea2b7ca516745bfeafc49904b496089"
    (enc "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
       "00112233445566778899aabbccddeeff")

let test_aes_ctr () =
  let key = Aes.expand_key (hex "000102030405060708090a0b0c0d0e0f") in
  let ks = Aes.ctr_keystream key ~nonce:(String.make 12 '\000') 100 in
  (* keystream must be deterministic and a prefix-extension *)
  let ks2 = Aes.ctr_keystream key ~nonce:(String.make 12 '\000') 40 in
  Alcotest.(check string) "ctr prefix" ks2 (String.sub ks 0 40);
  (* block i is the block cipher applied to nonce || big-endian i *)
  List.iter
    (fun nonce ->
      let blocks = 300 in
      let counter_block i =
        String.init 16 (fun j ->
            if j < String.length nonce then nonce.[j]
            else if j < 8 then '\000'
            else Char.chr ((i lsr (8 * (15 - j))) land 0xff))
      in
      let want =
        String.concat ""
          (List.init blocks (fun i -> Aes.encrypt_block key (counter_block i)))
      in
      Alcotest.(check string)
        (Printf.sprintf "ctr blocks, %d-byte nonce" (String.length nonce))
        (Bytesx.to_hex want)
        (Bytesx.to_hex (Aes.ctr_keystream key ~nonce (16 * blocks))))
    [ String.make 12 '\x5a'; ""; String.make 14 '\x11' ]

let test_ctr_exhaustion () =
  (* a 15-byte nonce leaves one counter byte: 256 blocks, then an error
     rather than a wrapped counter that repeats block 0 *)
  let key = Aes.expand_key (String.make 32 '\001') in
  let nonce = String.make 15 '\002' in
  let s = Aes.ctr_stream key ~nonce in
  Alcotest.(check int) "256 blocks available" 4096
    (String.length (Aes.squeeze s 4096));
  Alcotest.check_raises "257th block"
    (Invalid_argument "Aes.squeeze: CTR counter exhausted") (fun () ->
      ignore (Aes.squeeze s 1));
  Alcotest.check_raises "one-shot past the end"
    (Invalid_argument "Aes.squeeze: CTR counter exhausted") (fun () ->
      ignore (Aes.ctr_keystream key ~nonce 4097));
  let last = Aes.ctr_stream ~counter:255 key ~nonce in
  Alcotest.(check string) "counter 255 is the last block"
    (String.sub (Aes.ctr_keystream key ~nonce 4096) 4080 16)
    (Aes.squeeze last 16);
  Alcotest.check_raises "counter outside the field"
    (Invalid_argument "Aes.ctr_stream: counter out of range") (fun () ->
      ignore (Aes.ctr_stream ~counter:256 key ~nonce))

let test_gcm () =
  (* NIST GCM test cases 1-4 *)
  let k0 = Aes_gcm.of_secret (String.make 16 '\000') in
  check_hex "gcm case 1" "58e2fccefa7e3061367f1d57a4e7455a"
    (Aes_gcm.seal k0 ~nonce:(String.make 12 '\000') ~ad:"" "");
  check_hex "gcm case 2"
    "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"
    (Aes_gcm.seal k0 ~nonce:(String.make 12 '\000') ~ad:"" (String.make 16 '\000'));
  let k = Aes_gcm.of_secret (hex "feffe9928665731c6d6a8f9467308308") in
  let nonce = hex "cafebabefacedbaddecaf888" in
  let pt =
    hex
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
       1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
  in
  check_hex "gcm case 3"
    "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
     21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985\
     4d5c2af327cd64a62cf35abd2ba6fab4"
    (Aes_gcm.seal k ~nonce ~ad:""
       (pt ^ hex "1aafd255"));
  let ad = hex "feedfacedeadbeeffeedfacedeadbeefabaddad2" in
  check_hex "gcm case 4"
    "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
     21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e0915bc94fbc\
     3221a5db94fae95ae7121a47"
    (Aes_gcm.seal k ~nonce ~ad pt);
  (match Aes_gcm.open_ k ~nonce ~ad (Aes_gcm.seal k ~nonce ~ad pt) with
  | Some got -> Alcotest.(check string) "gcm roundtrip" (Bytesx.to_hex pt) (Bytesx.to_hex got)
  | None -> Alcotest.fail "gcm roundtrip failed");
  (* tampering must be caught *)
  let sealed = Bytes.of_string (Aes_gcm.seal k ~nonce ~ad pt) in
  Bytes.set sealed 5 (Char.chr (Char.code (Bytes.get sealed 5) lxor 1));
  Alcotest.(check bool) "gcm tamper" true
    (Aes_gcm.open_ k ~nonce ~ad (Bytes.to_string sealed) = None);
  Alcotest.(check bool) "gcm wrong ad" true
    (Aes_gcm.open_ k ~nonce ~ad:"other" (Aes_gcm.seal k ~nonce ~ad pt) = None);
  (* AES-256-GCM over 64 full blocks and a 5-byte tail with 13 bytes of
     AD; values recorded from the bit-serial GHASH and byte-wise AES *)
  let k = Aes_gcm.of_secret (String.init 32 (fun i -> Char.chr (i * 7 land 0xff))) in
  let nonce = String.init 12 (fun i -> Char.chr (0xc0 + i)) in
  let pt = String.init 1029 (fun i -> Char.chr (i * 31 land 0xff)) in
  let ad = String.init 13 (fun i -> Char.chr (0x40 + i)) in
  let sealed = Aes_gcm.seal k ~nonce ~ad pt in
  check_hex "gcm multi-block digest"
    "cafc84da971e5a3d4570dfd13f94c913ed2c6f356b32da134561810f3870a302"
    (Sha256.digest sealed);
  check_hex "gcm multi-block tag" "f8ca7d0ef933cc6942f50aef3000480e"
    (String.sub sealed 1029 16);
  Alcotest.(check (option string)) "gcm multi-block roundtrip" (Some pt)
    (Aes_gcm.open_ k ~nonce ~ad sealed)

(* ---- ChaCha20-Poly1305 ----------------------------------------------------- *)

let test_chacha20poly1305 () =
  (* RFC 8439 section 2.8.2 *)
  let key = String.init 32 (fun i -> Char.chr (0x80 + i)) in
  let nonce = hex "070000004041424344454647" in
  let ad = hex "50515253c0c1c2c3c4c5c6c7" in
  let pt =
    "Ladies and Gentlemen of the class of '99: If I could offer you only \
     one tip for the future, sunscreen would be it."
  in
  check_hex "rfc8439 aead"
    "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
     3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
     92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
     3ff4def08e4b7a9de576d26586cec64b61161ae10b594f09e26a7e902ecbd060\
     0691"
    (Chacha20poly1305.seal ~key ~nonce ~ad pt);
  (* RFC 8439 2.5.2 poly1305 *)
  check_hex "poly1305 rfc"
    "a8061dc1305136c6c22b8baf0c0127a9"
    (Poly1305.mac
       ~key:(hex "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
       "Cryptographic Forum Research Group")

(* ---- DRBG ------------------------------------------------------------------ *)

let test_drbg () =
  let a = Drbg.create ~seed:"s" and b = Drbg.create ~seed:"s" in
  Alcotest.(check string) "deterministic" (Drbg.generate a 64) (Drbg.generate b 64);
  let c = Drbg.create ~seed:"t" in
  Alcotest.(check bool) "seed-sensitive" true
    (Drbg.generate (Drbg.create ~seed:"s") 32 <> Drbg.generate c 32);
  let d = Drbg.create ~seed:"s" in
  let child = Drbg.fork d "x" in
  Alcotest.(check bool) "fork independent" true
    (Drbg.generate child 32 <> Drbg.generate (Drbg.create ~seed:"s") 32)

(* ---- property tests --------------------------------------------------------- *)

let qc name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:200 gen prop)

(* chunk sizes that land reads on both sides of the 8-byte lane fast
   path, the 16-byte AES block and the 136/168-byte SHAKE rates *)
let chunks =
  QCheck.(
    list_of_size (Gen.int_range 1 25)
      (oneof
         [ int_range 0 20;
           oneofl [ 7; 8; 9; 15; 16; 17; 31; 33; 135; 136; 137; 167; 168; 169 ];
           int_range 100 400 ]))

let squeezed_in squeeze chunks = String.concat "" (List.map squeeze chunks)
let total = List.fold_left ( + ) 0
let ctr_key = Aes.expand_key (Sha256.digest "ctr-chunks")

(* flip one bit of a sealed record: ciphertext or tag *)
let flip s bit =
  let b = Bytes.of_string s in
  let i = bit / 8 mod Bytes.length b in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
  Bytes.to_string b

let prop_tests =
  [ qc "hex roundtrip" QCheck.string (fun s -> Bytesx.of_hex (Bytesx.to_hex s) = s);
    qc "xor involution"
      QCheck.(pair (string_of_size (Gen.return 32)) (string_of_size (Gen.return 32)))
      (fun (a, b) -> Bytesx.xor (Bytesx.xor a b) b = a);
    qc "equal_ct agrees with (=)"
      QCheck.(pair small_string small_string)
      (fun (a, b) -> Bytesx.equal_ct a b = (a = b));
    qc "sha256 distinct on distinct inputs (no trivial collisions)"
      QCheck.(pair small_string small_string)
      (fun (a, b) -> a = b || Sha256.digest a <> Sha256.digest b);
    qc "hkdf expand length" QCheck.(int_range 1 800)
      (fun n ->
        String.length (Hkdf.expand Hmac.sha256 ~prk:(Sha256.digest "p") ~info:"" n) = n);
    qc "gcm roundtrip random"
      QCheck.(pair small_string small_string)
      (fun (pt, ad) ->
        let k = Aes_gcm.of_secret (Sha256.digest "key") in
        let nonce = String.sub (Sha256.digest "nonce") 0 12 in
        Aes_gcm.open_ k ~nonce ~ad (Aes_gcm.seal k ~nonce ~ad pt) = Some pt);
    qc "shake128 squeeze is chunking-invariant" chunks (fun cs ->
        let x = Keccak.Xof.shake128 msg in
        squeezed_in (Keccak.Xof.squeeze x) cs = Keccak.shake128 msg (total cs));
    qc "shake256 squeeze is chunking-invariant" chunks (fun cs ->
        let x = Keccak.Xof.shake256 msg in
        squeezed_in (Keccak.Xof.squeeze x) cs = Keccak.shake256 msg (total cs));
    qc "aes ctr squeeze is chunking-invariant" chunks (fun cs ->
        let nonce = String.make 12 '\x33' in
        let s = Aes.ctr_stream ctr_key ~nonce in
        squeezed_in (Aes.squeeze s) cs = Aes.ctr_keystream ctr_key ~nonce (total cs));
    qc "gcm rejects any one-bit flip"
      QCheck.(pair small_string small_nat)
      (fun (pt, bit) ->
        let k = Aes_gcm.of_secret (Sha256.digest "flip") in
        let nonce = String.make 12 '\007' in
        let sealed = Aes_gcm.seal k ~nonce ~ad:"hdr" pt in
        Aes_gcm.open_ k ~nonce ~ad:"hdr" (flip sealed bit) = None);
    qc "chacha20poly1305 roundtrip random"
      QCheck.(pair small_string small_string)
      (fun (pt, ad) ->
        let key = Sha256.digest "k2" in
        let nonce = String.sub (Sha256.digest "n2") 0 12 in
        Chacha20poly1305.open_ ~key ~nonce ~ad
          (Chacha20poly1305.seal ~key ~nonce ~ad pt)
        = Some pt);
    qc "drbg uniform in range" QCheck.(int_range 1 1000)
      (fun n ->
        let rng = Drbg.create ~seed:(string_of_int n) in
        let v = Drbg.uniform rng n in
        v >= 0 && v < n) ]

let suites =
  [ ( "crypto",
      [ Alcotest.test_case "sha2 vectors" `Quick test_sha2;
        Alcotest.test_case "sha2 streaming" `Quick test_sha2_streaming;
        Alcotest.test_case "sha3/shake vectors" `Quick test_sha3;
        Alcotest.test_case "shake incremental" `Quick test_shake_incremental;
        Alcotest.test_case "hmac vectors" `Quick test_hmac;
        Alcotest.test_case "hkdf rfc5869" `Quick test_hkdf;
        Alcotest.test_case "aes fips-197" `Quick test_aes;
        Alcotest.test_case "aes ctr" `Quick test_aes_ctr;
        Alcotest.test_case "aes ctr counter exhaustion" `Quick test_ctr_exhaustion;
        Alcotest.test_case "aes-gcm vectors + tamper" `Quick test_gcm;
        Alcotest.test_case "chacha20poly1305 rfc8439" `Quick test_chacha20poly1305;
        Alcotest.test_case "drbg" `Quick test_drbg ]
      @ prop_tests ) ]
