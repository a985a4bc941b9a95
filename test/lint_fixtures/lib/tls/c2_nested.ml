(* C2 fixture: inside a nested module, [leak_value] and [leak_call]
   reach key material only through a sibling definition named by its
   bare name, so C2 sees them only when it resolves names from the
   enclosing module. Expected finding count: 2. *)

module Keys = struct
  let session = Crypto.Hkdf.extract Crypto.Hmac.sha256 ~salt:"" ~ikm:""
  let derive () = Crypto.Hkdf.extract Crypto.Hmac.sha256 ~salt:"" ~ikm:""
  let leak_value other = String.equal session other
  let leak_call other = String.equal (derive ()) other
end
