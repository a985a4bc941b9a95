(* Output pins for everything built on the symmetric kernels: SHA-256
   digests of keys, ciphertexts and signatures drawn from fixed DRBG
   seeds. The 90s/AES variants otherwise have only size and round-trip
   tests, which a CTR counter starting at the wrong offset would still
   pass (both sides read the same wrong stream); these digests pin the
   bytes themselves, so any rewrite of Keccak, AES or the CTR stream
   must reproduce them exactly. *)

open Pqc

let digest parts = Crypto.Bytesx.to_hex (Crypto.Sha256.digest (String.concat "" parts))
let rng name = Crypto.Drbg.create ~seed:("pins/" ^ name)

let kyber p () =
  let rng = rng (Kyber.name p) in
  let pk, sk = Kyber.keygen p rng in
  let ct, ss = Kyber.encaps p rng pk in
  [ ("keygen", digest [ pk; sk ]); ("encaps", digest [ ct; ss ]) ]

let dilithium p () =
  let pk, sk = Dilithium.keygen p (rng (Dilithium.name p)) in
  [ ("keygen", digest [ pk; sk ]);
    ("sign", digest [ Dilithium.sign p sk "pinned message" ]) ]

let slh p () =
  let pk, sk = Slh.keygen p (rng (Slh.name p)) in
  [ ("keygen", digest [ pk; sk ]); ("sign", digest [ Slh.sign p sk "pinned message" ]) ]

(* the size-exact stand-ins campaigns run on squeeze SHAKE256 *)
let mocked_kem name () =
  let k = Kem.mocked (Registry.find_kem name) in
  let rng = rng ("mocked/" ^ name) in
  let kp = k.keygen rng in
  let ct, ss = k.encaps rng kp.public in
  [ ("keygen", digest [ kp.public; kp.secret ]); ("encaps", digest [ ct; ss ]) ]

let pins =
  [ ("kyber90s768", kyber Kyber.kyber768_90s,
     [ ("keygen",
       "85e91b9b913f55c7c31b7003e609be5f64ab9a681afe6c3c403d10c34df94af2");
       ("encaps",
       "e9098002949bb529c3da562697b4d74a333dc6560214eaaf1fb06f9b4f45e4f2") ]);
    ("kyber768", kyber Kyber.kyber768,
     [ ("keygen",
       "1762ac298aadb34403f8241c3ee5df233c8f1d0a37e776fcdcfc83168a2211f9");
       ("encaps",
       "1f935fe08cda05b3d6b5549543f022068c7d2fd97edb3eb0e2f5b80b4fb48996") ]);
    ("dilithium3_aes", dilithium Dilithium.dilithium3_aes,
     [ ("keygen",
       "feecfafaaabf7392cb1c4505570f3210c3152fe85adce5346d54acce54f4b5ff");
       ("sign",
       "9ce930b4df349a9b8b9eccc24f3f4045b02fbafde296e52d7ffba42b85428d80") ]);
    ("dilithium3", dilithium Dilithium.dilithium3,
     [ ("keygen",
       "4d81d3258fcd4dc4249bc0ce86d63e302e7c70b39d372c62d44bdea3a25820bb");
       ("sign",
       "a39261105d5c3aa8e3144254db052a980002101cea2862d950576271a11bb12f") ]);
    ("sphincs128f", slh Slh.sphincs128f,
     [ ("keygen",
       "d1db1dc1aa635aa86a0910c539db85308081427a4870056f4ba9ec253def9e3c");
       ("sign",
       "77bc82e40e1844a9b574c9fc90d3edd01699026af05723b36977b922aca93ff2") ]);
    ("mocked kyber768", mocked_kem "kyber768",
     [ ("keygen",
       "eff8db3e4d7359eb47363e319fb9771dc3633968abeb3deb727f590ba35d9200");
       ("encaps",
       "95475d252b16679500460de4efd22f946b15a82c6fca194f85b520b9797ae502") ]) ]

let suites =
  [ ( "pins",
      List.map
        (fun (name, run, want) ->
          Alcotest.test_case name `Quick (fun () ->
              Alcotest.(check (list (pair string string))) name want (run ())))
        pins ) ]
