type t = {
  subject : string;
  issuer : string;
  algorithm : string;
  public_key : string;
  tbs_extra : string;
  signature : string;
}

type chain = { leaf : t; ca_public_key : string }

(* serial, validity, SKI/AKI, basicConstraints etc. in a real DER cert *)
let der_overhead = 10

let tbs c =
  Wire.vec8 c.subject ^ Wire.vec8 c.issuer ^ Wire.vec8 c.algorithm
  ^ Wire.vec16 c.public_key ^ Wire.vec8 c.tbs_extra

let make_chain alg rng =
  let ca = alg.Pqc.Sigalg.keygen rng in
  let server = alg.Pqc.Sigalg.keygen rng in
  let leaf =
    { subject = "server.pqtls.example";
      issuer = "ca.pqtls.example";
      algorithm = alg.Pqc.Sigalg.name;
      public_key = server.Pqc.Sigalg.public;
      tbs_extra = String.make der_overhead '\x5a';
      signature = "" }
  in
  let signature = alg.Pqc.Sigalg.sign rng ~secret:ca.Pqc.Sigalg.secret (tbs leaf) in
  ({ leaf = { leaf with signature }; ca_public_key = ca.Pqc.Sigalg.public },
   server)

let encode c = tbs c ^ Wire.vec24 c.signature

let decode s =
  let r = Wire.Reader.of_string s in
  let subject = Wire.Reader.vec8 r in
  let issuer = Wire.Reader.vec8 r in
  let algorithm = Wire.Reader.vec8 r in
  let public_key = Wire.Reader.vec16 r in
  let tbs_extra = Wire.Reader.vec8 r in
  let signature = Wire.Reader.vec24 r in
  Wire.Reader.expect_end r;
  { subject; issuer; algorithm; public_key; tbs_extra; signature }
