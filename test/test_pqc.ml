(* The algorithm zoo: registry completeness, hybrid combinators, the
   simulated suites, mocked wrappers and the cost table. *)

open Pqc

let test_registry_counts () =
  Alcotest.(check int) "23 KAs (Table 2a)" 23 (List.length Registry.kems);
  Alcotest.(check int) "24 SAs (Table 2b + rsa3072_dilithium2)" 24
    (List.length Registry.sigs);
  (* exact paper spellings *)
  List.iter
    (fun n -> ignore (Registry.find_kem n))
    [ "x25519"; "bikel1"; "hqc128"; "kyber512"; "kyber90s512"; "p256";
      "p256_bikel1"; "p256_hqc128"; "p256_kyber512"; "bikel3"; "hqc192";
      "kyber768"; "kyber90s768"; "p384"; "p384_bikel3"; "p384_hqc192";
      "p384_kyber768"; "hqc256"; "kyber1024"; "kyber90s1024"; "p521";
      "p521_hqc256"; "p521_kyber1024" ];
  List.iter
    (fun n -> ignore (Registry.find_sig n))
    [ "rsa:1024"; "rsa:2048"; "falcon512"; "rsa:3072"; "rsa:4096";
      "sphincs128"; "p256_falcon512"; "p256_sphincs128"; "dilithium2";
      "dilithium2_aes"; "p256_dilithium2"; "rsa3072_dilithium2"; "dilithium3";
      "dilithium3_aes"; "sphincs192"; "p384_dilithium3"; "p384_sphincs192";
      "dilithium5"; "dilithium5_aes"; "falcon1024"; "sphincs256";
      "p521_dilithium5"; "p521_falcon1024"; "p521_sphincs256" ];
  Alcotest.(check_raises) "unknown kem" Not_found (fun () ->
      ignore (Registry.find_kem "sike"))

let test_registry_sizes () =
  (* liboqs / NIST-submission wire sizes for the simulated algorithms *)
  let k name = Registry.find_kem name in
  let check_kem name pk ct =
    Alcotest.(check (pair int int)) name (pk, ct)
      ((k name).Kem.public_key_bytes, (k name).Kem.ciphertext_bytes)
  in
  check_kem "bikel1" 1541 1573;
  check_kem "bikel3" 3083 3115;
  check_kem "hqc128" 2249 4497;
  check_kem "hqc192" 4522 9042;
  check_kem "hqc256" 7245 14485;
  check_kem "x25519" 32 32;
  check_kem "kyber512" 800 768;
  let s name = Registry.find_sig name in
  let check_sig name pk sg =
    Alcotest.(check (pair int int)) name (pk, sg)
      ((s name).Sigalg.public_key_bytes, (s name).Sigalg.signature_bytes)
  in
  check_sig "falcon512" 897 666;
  check_sig "falcon1024" 1793 1280;
  check_sig "sphincs128" 32 17088;
  check_sig "sphincs192" 48 35664;
  check_sig "sphincs256" 64 49856;
  check_sig "dilithium2" 1312 2420

let test_kem_roundtrip_all () =
  let rng = Crypto.Drbg.create ~seed:"zoo-kem" in
  List.iter
    (fun (kem : Kem.t) ->
      let kp = kem.Kem.keygen rng in
      Alcotest.(check int) (kem.Kem.name ^ " pk size") kem.Kem.public_key_bytes
        (String.length kp.Kem.public);
      let ct, ss = kem.Kem.encaps rng kp.Kem.public in
      Alcotest.(check int) (kem.Kem.name ^ " ct size") kem.Kem.ciphertext_bytes
        (String.length ct);
      Alcotest.(check int) (kem.Kem.name ^ " ss size") kem.Kem.shared_secret_bytes
        (String.length ss);
      Alcotest.(check string) (kem.Kem.name ^ " agreement")
        (Crypto.Bytesx.to_hex ss)
        (Crypto.Bytesx.to_hex (kem.Kem.decaps kp.Kem.secret ct)))
    Registry.kems

let test_sig_roundtrip_all () =
  let rng = Crypto.Drbg.create ~seed:"zoo-sig" in
  List.iter
    (fun (sa : Sigalg.t) ->
      let kp = sa.Sigalg.keygen rng in
      let s = sa.Sigalg.sign rng ~secret:kp.Sigalg.secret "zoo" in
      Alcotest.(check int) (sa.Sigalg.name ^ " sig size") sa.Sigalg.signature_bytes
        (String.length s);
      Alcotest.(check bool) (sa.Sigalg.name ^ " verify") true
        (sa.Sigalg.verify ~public:kp.Sigalg.public ~msg:"zoo" s);
      Alcotest.(check bool) (sa.Sigalg.name ^ " reject") false
        (sa.Sigalg.verify ~public:kp.Sigalg.public ~msg:"other" s))
    Registry.sigs

let test_hybrid_structure () =
  let h = Registry.find_kem "p256_kyber512" in
  let p256 = Registry.find_kem "p256" and ky = Registry.find_kem "kyber512" in
  Alcotest.(check int) "hybrid pk additive"
    (p256.Kem.public_key_bytes + ky.Kem.public_key_bytes)
    h.Kem.public_key_bytes;
  Alcotest.(check int) "hybrid ct additive"
    (p256.Kem.ciphertext_bytes + ky.Kem.ciphertext_bytes)
    h.Kem.ciphertext_bytes;
  Alcotest.(check int) "hybrid ss concatenated"
    (p256.Kem.shared_secret_bytes + ky.Kem.shared_secret_bytes)
    h.Kem.shared_secret_bytes;
  Alcotest.(check bool) "flagged hybrid" true h.Kem.hybrid;
  Alcotest.(check bool) "hybrid pq" true h.Kem.pq;
  Alcotest.(check bool) "classical not pq" false p256.Kem.pq;
  (* hybrid SA: breaking one component must break the composite *)
  let rng = Crypto.Drbg.create ~seed:"hybrid-sa" in
  let hs = Registry.find_sig "p256_dilithium2" in
  let kp = hs.Sigalg.keygen rng in
  let s = hs.Sigalg.sign rng ~secret:kp.Sigalg.secret "m" in
  Alcotest.(check bool) "composite verifies" true
    (hs.Sigalg.verify ~public:kp.Sigalg.public ~msg:"m" s);
  (* corrupt the classical half *)
  let bad = Bytes.of_string s in
  Bytes.set bad 5 (Char.chr (Char.code (Bytes.get bad 5) lxor 1));
  Alcotest.(check bool) "classical half protects" false
    (hs.Sigalg.verify ~public:kp.Sigalg.public ~msg:"m" (Bytes.to_string bad));
  (* corrupt the PQ half *)
  let bad2 = Bytes.of_string s in
  let off = String.length s - 10 in
  Bytes.set bad2 off (Char.chr (Char.code (Bytes.get bad2 off) lxor 1));
  Alcotest.(check bool) "pq half protects" false
    (hs.Sigalg.verify ~public:kp.Sigalg.public ~msg:"m" (Bytes.to_string bad2))

let test_mocked_wrappers () =
  let rng = Crypto.Drbg.create ~seed:"mock" in
  List.iter
    (fun (kem : Kem.t) ->
      let m = Kem.mocked kem in
      Alcotest.(check string) "same name" kem.Kem.name m.Kem.name;
      Alcotest.(check bool) "flagged" true m.Kem.mocked;
      Alcotest.(check bool) "idempotent" true (Kem.mocked m == m);
      let kp = m.Kem.keygen rng in
      Alcotest.(check int) "mock pk size" kem.Kem.public_key_bytes
        (String.length kp.Kem.public);
      let ct, ss = m.Kem.encaps rng kp.Kem.public in
      Alcotest.(check int) "mock ct size" kem.Kem.ciphertext_bytes (String.length ct);
      Alcotest.(check string) "mock roundtrip"
        (Crypto.Bytesx.to_hex ss)
        (Crypto.Bytesx.to_hex (m.Kem.decaps kp.Kem.secret ct)))
    [ Registry.find_kem "x25519"; Registry.find_kem "kyber768";
      Registry.find_kem "p521_kyber1024" ];
  let sa = Sigalg.mocked (Registry.find_sig "rsa:2048") in
  let kp = sa.Sigalg.keygen rng in
  let s = sa.Sigalg.sign rng ~secret:kp.Sigalg.secret "m" in
  Alcotest.(check int) "mock sig size" 256 (String.length s);
  Alcotest.(check bool) "mock verify" true
    (sa.Sigalg.verify ~public:kp.Sigalg.public ~msg:"m" s)

let test_costs_total () =
  (* every registered algorithm must have a cost entry *)
  List.iter
    (fun (kem : Kem.t) ->
      let c = Costs.kem kem.Kem.name in
      Alcotest.(check bool) (kem.Kem.name ^ " positive costs") true
        (c.Costs.kem_keygen.Costs.ms > 0.
        && c.Costs.kem_encaps.Costs.ms > 0.
        && c.Costs.kem_decaps.Costs.ms > 0.))
    Registry.kems;
  List.iter
    (fun (sa : Sigalg.t) ->
      let c = Costs.sig_ sa.Sigalg.name in
      Alcotest.(check bool) (sa.Sigalg.name ^ " positive costs") true
        (c.Costs.sign.Costs.ms > 0. && c.Costs.verify.Costs.ms > 0.))
    Registry.sigs;
  (* hybrids cost the sum of their parts *)
  let h = Costs.kem "p256_kyber512" in
  let a = Costs.kem "p256" and b = Costs.kem "kyber512" in
  Alcotest.(check (float 1e-9)) "hybrid encaps sum"
    (a.Costs.kem_encaps.Costs.ms +. b.Costs.kem_encaps.Costs.ms)
    h.Costs.kem_encaps.Costs.ms;
  (* the rsa3072 spelling inside hybrid names resolves *)
  let r = Costs.sig_ "rsa3072_dilithium2" in
  let r2 = Costs.sig_ "rsa:3072" and d = Costs.sig_ "dilithium2" in
  Alcotest.(check (float 1e-9)) "rsa hybrid sign sum"
    (r2.Costs.sign.Costs.ms +. d.Costs.sign.Costs.ms)
    r.Costs.sign.Costs.ms;
  Alcotest.(check_raises) "unknown algorithm" Not_found (fun () ->
      ignore (Costs.kem "ntru"))

let test_levels () =
  Alcotest.(check int) "kyber512 level group" 1
    (Registry.kem_level (Registry.find_kem "kyber512"));
  Alcotest.(check int) "dilithium2 grouped with level 1" 1
    (Registry.sig_level (Registry.find_sig "dilithium2"));
  Alcotest.(check int) "kyber768 level group" 3
    (Registry.kem_level (Registry.find_kem "kyber768"));
  Alcotest.(check int) "falcon1024 level" 5
    (Registry.sig_level (Registry.find_sig "falcon1024"));
  let l1 = Registry.level_group 1 `Kem in
  Alcotest.(check int) "six level-1 non-hybrid KAs" 6 (List.length l1);
  Alcotest.(check bool) "no hybrids in level groups" true
    (List.for_all (fun (k : Kem.t) -> not k.Kem.hybrid) l1);
  let s1 = Registry.level_group_sigs 1 in
  Alcotest.(check bool) "only rsa:3072 among RSAs (Fig. 3)" true
    (List.for_all
       (fun (s : Sigalg.t) ->
         match s.Sigalg.name with
         | "rsa:1024" | "rsa:2048" | "rsa:4096" -> false
         | _ -> true)
       s1)

let test_sim_suites () =
  let rng = Crypto.Drbg.create ~seed:"sim" in
  let pk, sk = Sim_suites.kem_keygen rng ~pk_len:100 in
  Alcotest.(check int) "sim pk len" 100 (String.length pk);
  let ct, ss = Sim_suites.kem_encaps rng ~pk ~ct_len:200 ~ss_len:64 in
  Alcotest.(check string) "sim kem roundtrip"
    (Crypto.Bytesx.to_hex ss)
    (Crypto.Bytesx.to_hex (Sim_suites.kem_decaps ~sk ~ct ~pk_len:100 ~ss_len:64));
  Alcotest.(check_raises) "ct too small"
    (Invalid_argument "Sim_suites.kem_encaps: ct too short") (fun () ->
      ignore (Sim_suites.kem_encaps rng ~pk ~ct_len:16 ~ss_len:32))

let test_x25519_small_order () =
  let rng = Crypto.Drbg.create ~seed:"x25519-small-order" in
  let k = Kem.x25519 in
  let kp = k.Kem.keygen rng in
  let rejected = Invalid_argument "x25519: all-zero shared secret" in
  List.iter
    (fun u ->
      let share = String.make 1 (Char.chr u) ^ String.make 31 '\000' in
      Alcotest.(check_raises) (Printf.sprintf "decaps u = %d" u) rejected
        (fun () -> ignore (k.Kem.decaps kp.Kem.secret share));
      Alcotest.(check_raises) (Printf.sprintf "encaps u = %d" u) rejected
        (fun () -> ignore (k.Kem.encaps rng share)))
    [ 0; 1 ];
  let ct, ss = k.Kem.encaps rng kp.Kem.public in
  Alcotest.(check string) "honest shares still agree" (Crypto.Bytesx.to_hex ss)
    (Crypto.Bytesx.to_hex (k.Kem.decaps kp.Kem.secret ct))

let suites =
  [ ( "pqc-zoo",
      [ Alcotest.test_case "registry counts and spellings" `Quick test_registry_counts;
        Alcotest.test_case "registry wire sizes" `Quick test_registry_sizes;
        Alcotest.test_case "every KA round-trips" `Slow test_kem_roundtrip_all;
        Alcotest.test_case "every SA round-trips" `Slow test_sig_roundtrip_all;
        Alcotest.test_case "hybrid structure" `Quick test_hybrid_structure;
        Alcotest.test_case "mocked wrappers" `Quick test_mocked_wrappers;
        Alcotest.test_case "cost table coverage" `Quick test_costs_total;
        Alcotest.test_case "level grouping" `Quick test_levels;
        Alcotest.test_case "sim suites" `Quick test_sim_suites;
        Alcotest.test_case "x25519 rejects small-order shares" `Quick
          test_x25519_small_order ] ) ]
