(* Output pins for everything built on the symmetric kernels: SHA-256
   digests of keys, ciphertexts and signatures drawn from fixed DRBG
   seeds. The 90s/AES variants otherwise have only size and round-trip
   tests, which a CTR counter starting at the wrong offset would still
   pass (both sides read the same wrong stream); these digests pin the
   bytes themselves, so any rewrite of Keccak, AES or the CTR stream
   must reproduce them exactly. The metrics-artifact pins do the same
   for the [--metrics] JSON encoder: one grid reaching every branch of
   the cell encoders, digested byte for byte. *)

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

(* the public-key group: X25519, the NIST curves and RSA run on the
   bignum kernels, so these pin keygen, agreement and signature bytes
   across any rewrite of the field or group arithmetic *)
let x25519 () =
  let rng = rng "x25519" in
  let a = Crypto.Drbg.generate rng 32 and b = Crypto.Drbg.generate rng 32 in
  let pa = Crypto.X25519.public_of_secret a in
  [ ("keygen", digest [ a; pa ]);
    ("dh", digest [ Crypto.X25519.scalar_mult ~scalar:b ~point:pa ]) ]

let ec c () =
  let open Crypto in
  let rng = rng c.Ec.name in
  let encode (d, q) =
    [ Bignum.to_bytes_be ~len:c.Ec.byte_size d; Ec.encode_point c q ]
  in
  let ((d, _) as kp) = Ec.gen_keypair c rng in
  let ((_, q2) as kp2) = Ec.gen_keypair c rng in
  [ ("keygen", digest (encode kp @ encode kp2));
    ("ecdh", digest [ Ec.ecdh c d q2 ]);
    ("sign",
     digest
       [ Ec.ecdsa_sign c rng ~key:d ~digest:(Sha256.digest "pinned message") ])
  ]

let rsa bits () =
  let key = Crypto.Rsa_keys.fixed_key bits in
  [ ("sign", digest [ Crypto.Rsa.sign_pkcs1_sha256 key "pinned message" ]) ]

(* prime generation: Miller-Rabin runs on mod_pow *)
let rsa_gen () =
  let open Crypto in
  let key = Rsa.gen (rng "rsa-gen-512") ~bits:512 in
  [ ("keygen",
     digest (List.map Bignum.to_bytes_be [ key.Rsa.p; key.Rsa.q; key.Rsa.d ]))
  ]

(* every encoder branch: a full standard cell, a failed cell, a label
   clash ([#2] key), a mix cell whose resumed population is empty (one
   sample: only the always-full first iteration runs), a non-default
   chain, and farm cells (adversarial, failed). The first digest is the
   artifact before any farm cell is recorded, which has no [farm_cells]
   key. *)
let metrics_artifact () =
  let open Core in
  let kem = Registry.find_kem and sa = Registry.find_sig in
  let seed = "pins/metrics" in
  let m = Metrics.create () in
  Metrics.note_experiment m "pins";
  let record sp = Metrics.record_cell m sp (Ok (Experiment.run_spec sp)) in
  record (Experiment.spec ~seed (kem "x25519") (sa "rsa:2048"));
  Metrics.record_cell m
    (Experiment.spec ~seed (kem "kyber512") (sa "dilithium2"))
    (Error "pinned failure");
  record
    (Experiment.spec ~seed ~buffer_limit:8192 (kem "x25519") (sa "rsa:2048"));
  record
    (Experiment.spec ~seed ~max_samples:1 ~mix:(Mix.find "resumed90")
       (kem "kyber768") (sa "dilithium3"));
  record
    (Experiment.spec ~seed ~max_samples:3
       ~chain:(Tls.Chain_profile.find "mixed-acme")
       (kem "kyber768") (sa "dilithium3"));
  let standard = Metrics.to_json_string (Metrics.artifact m ~seed) in
  let farm = Experiment.farm_spec ~seed ~max_connections:60 in
  let sp = farm ~adv_fraction:0.25 (kem "kyber768") (sa "dilithium3") in
  Metrics.record_farm_cell m sp (Ok (Experiment.run_farm_spec sp));
  Metrics.record_farm_cell m
    (farm (kem "x25519") (sa "rsa:2048"))
    (Error "pinned farm failure");
  [ ("standard cells", digest [ standard ]);
    ("with farm cells",
     digest [ Metrics.to_json_string (Metrics.artifact m ~seed) ]) ]

(* every byte and virtual instant of a handshake: each packet the link
   tap sees as (time, direction, marks, payload), then both hosts' CPU
   ledgers and charge counts. The payloads pin the DRBG draw order and
   the key schedule (the real-crypto case seals every record), which the
   timing alone would miss. Cases: a full handshake; default buffering
   at a 1024-byte limit (the oversize-chunk branch); the HRR fallback;
   full + NewSessionTicket + resumed 0-RTT, mocked and real. *)
let handshake_bytes () =
  let kem = Registry.find_kem and sa = Registry.find_sig in
  let case ?(real = false) ?(resume = false) ?buffering ?buffer_limit
      ?wrong_first_key_share name kem_name sig_name =
    let buf = Buffer.create 65536 in
    let engine = Netsim.Engine.create () in
    let rng = rng ("handshake/" ^ name) in
    let link =
      Netsim.Link.create engine (Crypto.Drbg.fork rng "link") Netsim.Link.ideal
        ~tap:(fun t (p : Netsim.Packet.t) ->
          Printf.bprintf buf "%h %s>%s %d:" t p.src p.dst
            (String.length p.payload);
          List.iter (fun (o, l) -> Printf.bprintf buf "%d=%s," o l) p.marks;
          Buffer.add_string buf p.payload)
    in
    let client_host = Netsim.Host.create engine ~name:"client" in
    let server_host = Netsim.Host.create engine ~name:"server" in
    let config =
      (if real then Tls.Config.make else Tls.Config.mocked)
        ?buffering ?buffer_limit ?wrong_first_key_share (kem kem_name)
        (sa sig_name)
    in
    let handshake ?resume ?on_ticket ~early_data rng =
      let result = ref None in
      Tls.Handshake.run ?resume ~early_data ?on_ticket ~engine ~link
        ~tcp_config:Netsim.Tcp.default_config ~client_host ~server_host
        ~config ~rng ~on_done:(fun r -> result := Some r) ();
      Netsim.Engine.run engine;
      match !result with
      | Some r ->
        Printf.bprintf buf "done %h %h\n" r.Tls.Handshake.client_finished_at
          r.Tls.Handshake.server_finished_at;
        r
      | None -> Alcotest.failf "%s: handshake did not complete" name
    in
    if resume then begin
      let session = ref None in
      ignore
        (handshake ~early_data:false
           ~on_ticket:(fun s -> session := Some s)
           (Crypto.Drbg.fork rng "full"));
      let r =
        handshake ?resume:!session ~early_data:true
          (Crypto.Drbg.fork rng "resumed")
      in
      Alcotest.(check bool) (name ^ " resumed") true r.Tls.Handshake.resumed;
      Alcotest.(check bool) (name ^ " early data") true
        (r.Tls.Handshake.early_data_bytes > 0)
    end
    else ignore (handshake ~early_data:false rng);
    List.iter
      (fun h ->
        List.iter (fun (lib, ms) -> Printf.bprintf buf "%s=%h;" lib ms)
          (Netsim.Host.ledger h);
        Printf.bprintf buf "charges=%d\n" (Netsim.Host.charge_count h))
      [ client_host; server_host ];
    (name, digest [ Buffer.contents buf ])
  in
  [ case "full" "kyber512" "dilithium2";
    case "default-buffered 1024" ~buffering:Tls.Config.Default_buffered
      ~buffer_limit:1024 "kyber512" "dilithium2";
    case "hrr" ~wrong_first_key_share:true "kyber512" "dilithium2";
    case "resumed 0-RTT" ~resume:true "kyber768" "dilithium3";
    case "resumed 0-RTT real" ~real:true ~resume:true "x25519" "rsa:2048" ]

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
       "95475d252b16679500460de4efd22f946b15a82c6fca194f85b520b9797ae502") ]);
    ("x25519", x25519,
     [ ("keygen",
       "fdb6cb3d0b227eef0154ba5f9763662448663cca0ec0ae40c7ee5fb6f6625bde");
       ("dh",
       "93b83bb1b0d900cd634e32c965c89380b05c89809f63b32488957a81ca341174") ]);
    ("p256", ec Crypto.Ec.p256,
     [ ("keygen",
       "511135fb5c290e34fd17f291d4ae6faf2e3bb6a941842090607eced2a07eeb8e");
       ("ecdh",
       "d91d96a4cae3655e3a46979cabe371811e0d13c40c0f981d573c1fdc612f0770");
       ("sign",
       "8891cad4861e7bfb7c0094992ef363283ca8923bcff0a92fc8f1acf97de0bf54") ]);
    ("p384", ec Crypto.Ec.p384,
     [ ("keygen",
       "82490590c24168bb5e9dc4601f6b5c9cc53be56a96a7d0fc563ae916740247ee");
       ("ecdh",
       "a4bd8dc4e901240fba138b072e8ebd8e47d06ba385bcce02f06f659660b69a27");
       ("sign",
       "54cb3397b0b26ff398e43f50ab24567656ee358362b07b78c9cfccfda768c82d") ]);
    ("p521", ec Crypto.Ec.p521,
     [ ("keygen",
       "c0d90d28a09a5c090b2e8356e2abda05d79fff09bac7ad383715e5eef990a31c");
       ("ecdh",
       "065fdb53288c516154725d9d1b396a23e4c89f8fbaab25cc7c3762e48ce07059");
       ("sign",
       "036348de0d17ad0929de11c7ba12c298b204b8443a51dae7d20229cf718bca68") ]);
    ("rsa:2048", rsa 2048,
     [ ("sign",
       "815695526f3bf4e7e548ea8aede8b5428fae7f55276877497ffa7f5a3c4f5366") ]);
    ("rsa:3072", rsa 3072,
     [ ("sign",
       "d2fadbd125d12a46759c79adcc4ee58081b392b6a85c09ece6ef28d6b23d8134") ]);
    ("rsa gen 512", rsa_gen,
     [ ("keygen",
       "a929101c51f33067eba07ab586ea955276734295a5b982540be7bc3644cde4ef") ]);
    ("metrics artifact", metrics_artifact,
     [ ("standard cells",
       "73815829bf00d44e06001fc52d20615e75ecdf8481c232b98ebbb371edd9d66a");
       ("with farm cells",
       "c8a5fd7404faa40434749ce36cd2fa99a65e9988555adb6b40de66cf0b64cbc4") ]);
    ("handshake bytes", handshake_bytes,
     [ ("full",
       "37f564b4ffc5d7c6d48ea40af4ddfb687856efe05640649d27bcc10c0c3083da");
       ("default-buffered 1024",
       "dd353ece5a9adeb9fe14440e4d5138a1aaa8e64afdfb5e88402ecb0bcdc88ff4");
       ("hrr",
       "9dd20fcae4110e8129ab48c4d37271576cb6765b95853b757b2f776b76539fbc");
       ("resumed 0-RTT",
       "ca9281af36ef70a71aa8330c1094fb92d1323edcc074217a2c2af04e31bda8c9");
       ("resumed 0-RTT real",
       "1d1dfb91eaa9ede9f52aae352e5c6a11d6b0f1c89121cea653c71177799eebc7") ]) ]

let suites =
  [ ( "pins",
      List.map
        (fun (name, run, want) ->
          Alcotest.test_case name `Quick (fun () ->
              Alcotest.(check (list (pair string string))) name want (run ())))
        pins ) ]
