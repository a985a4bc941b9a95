let default_seed = 0

let shuffle ~seed ~label xs =
  if seed = default_seed then xs
  else begin
    let rng =
      Crypto.Drbg.create ~seed:(Printf.sprintf "perfbench/%d/%s" seed label)
    in
    let a = Array.of_list xs in
    for i = Array.length a - 1 downto 1 do
      let j = Crypto.Drbg.uniform rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  end

let derived base seed =
  if seed = default_seed then base else Printf.sprintf "%s/%d" base seed

let campaign_seed = derived "pqtls"

let campaign seed =
  List.concat_map
    (fun (s : Pqc.Sigalg.t) ->
      List.map (fun sc -> (s.name, sc)) Core.Scenario.all)
    Pqc.Registry.sigs
  |> shuffle ~seed ~label:"campaign"

let farm_seed = derived "table5"

(* the pairs of Core.Report's Table 5 capacity campaign, which it does
   not export *)
let farm_pairs =
  [ ("x25519", "rsa:2048"); ("kyber512", "dilithium2");
    ("kyber768", "dilithium3"); ("kyber512", "sphincs128") ]

let farm seed =
  List.concat_map
    (fun pair ->
      List.map
        (fun (w : Netsim.Workload.t) -> (pair, w.name))
        Netsim.Workload.all)
    farm_pairs
  |> shuffle ~seed ~label:"farm"

let real_pairs =
  [ ("x25519", "rsa:2048"); ("kyber512", "dilithium2");
    ("kyber768", "dilithium3"); ("kyber90s768", "dilithium3_aes");
    ("p256_kyber512", "p256_dilithium2"); ("x25519", "sphincs128");
    ("p384", "falcon512"); ("p521_kyber1024", "rsa:3072") ]

let rotation seed = shuffle ~seed ~label:"rotation" real_pairs

let handshake_seed seed (kem, sa) index =
  Printf.sprintf "perfbench/%d/real-crypto/%s/%s/%d" seed kem sa index
