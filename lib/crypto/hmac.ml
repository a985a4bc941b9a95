type hash = {
  name : string;
  digest_size : int;
  block_size : int;
  digest : string -> string;
}

let sha256 =
  { name = "SHA-256"; digest_size = 32; block_size = 64;
    digest = Sha256.digest }

let hmac h ~key msg =
  let key =
    if String.length key > h.block_size then h.digest key else key
  in
  let key = key ^ String.make (h.block_size - String.length key) '\000' in
  let ipad = Bytesx.xor key (String.make h.block_size '\x36') in
  let opad = Bytesx.xor key (String.make h.block_size '\x5c') in
  h.digest (opad ^ h.digest (ipad ^ msg))
