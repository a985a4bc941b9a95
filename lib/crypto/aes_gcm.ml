(* SP 800-38D. GF(2^128) elements are four big-endian 32-bit words
   [z0..z3] in native ints, bit 0 of the field = MSB of [z0], per the
   GCM bit ordering. GHASH multiplies by H with Shoup's 4-bit method:
   each key carries the 16 products n * H for every 4-bit n, and a
   block is folded in nibble by nibble, from the last byte's low nibble
   to the first byte's high one, shifting the accumulator right by 4
   and reducing the shifted-out bits through [rem_4bit].

   Side channels: the per-key table lookups are indexed by nibbles of
   the secret-dependent accumulator, so cache timing can leak them;
   this is the same leakage class as the AES T-tables and as the
   bit-serial multiplier's data-dependent branches it replaces. *)
[@@@lint.kernel
  "per-key product tables and rem_4bit have 16 entries and are indexed only by values masked to 0..15; block buffers are allocated at their final 16-byte size in the same function as every access"]

let tag_size = 16
let m32 = 0xffffffff

(* the reduction of 4 bits shifted out of the low end, to be XORed into
   the top 16 bits of [z0] *)
let rem_4bit =
  [| 0x0000; 0x1c20; 0x3840; 0x2460; 0x7080; 0x6ca0; 0x48c0; 0x54e0; 0xe100;
     0xfd20; 0xd940; 0xc560; 0x9180; 0x8da0; 0xa9c0; 0xb5e0 |]

type key = {
  aes : Aes.key;
  (* word j of n * H is [tj.(n)], with nibble n read MSB-first *)
  t0 : int array;
  t1 : int array;
  t2 : int array;
  t3 : int array;
}

let of_secret secret =
  let aes = Aes.expand_key secret in
  let h = Aes.encrypt_block aes (String.make 16 '\000') in
  let t = Array.make_matrix 4 16 0 in
  (* H, H * x, H * x^2, H * x^3 go to nibbles 8, 4, 2, 1 *)
  let v = Array.init 4 (fun j -> Bytesx.get_u32_be h (4 * j)) in
  let n = ref 8 in
  while !n > 0 do
    for j = 0 to 3 do
      t.(j).(!n) <- v.(j)
    done;
    (* multiply by x: shift right one bit, reducing by R = 0xe1 || 0^120 *)
    let carry = v.(3) land 1 in
    v.(3) <- (v.(3) lsr 1) lor ((v.(2) land 1) lsl 31);
    v.(2) <- (v.(2) lsr 1) lor ((v.(1) land 1) lsl 31);
    v.(1) <- (v.(1) lsr 1) lor ((v.(0) land 1) lsl 31);
    v.(0) <- (v.(0) lsr 1) lxor (0xe1000000 land -carry);
    n := !n lsr 1
  done;
  (* the other products are XORs of those four *)
  List.iter
    (fun hi ->
      for lo = 1 to hi - 1 do
        for j = 0 to 3 do
          t.(j).(hi + lo) <- t.(j).(hi) lxor t.(j).(lo)
        done
      done)
    [ 2; 4; 8 ];
  { aes; t0 = t.(0); t1 = t.(1); t2 = t.(2); t3 = t.(3) }

(* --- GHASH ---------------------------------------------------------------- *)

type acc = {
  mutable z0 : int;
  mutable z1 : int;
  mutable z2 : int;
  mutable z3 : int;
}

let[@inline] get (a : int array) i = Array.unsafe_get a i

(* fold the eight nibbles of [w], least significant first *)
let feed_word k acc w =
  for j = 0 to 7 do
    let n = (w lsr (4 * j)) land 0xf in
    let rem = acc.z3 land 0xf in
    acc.z3 <- ((acc.z3 lsr 4) lor ((acc.z2 land 0xf) lsl 28)) lxor get k.t3 n;
    acc.z2 <- ((acc.z2 lsr 4) lor ((acc.z1 land 0xf) lsl 28)) lxor get k.t2 n;
    acc.z1 <- ((acc.z1 lsr 4) lor ((acc.z0 land 0xf) lsl 28)) lxor get k.t1 n;
    acc.z0 <- (acc.z0 lsr 4) lxor (get rem_4bit rem lsl 16) lxor get k.t0 n
  done

(* acc <- (acc xor x) * H *)
let mul_block k acc x0 x1 x2 x3 =
  let x0 = acc.z0 lxor x0 and x1 = acc.z1 lxor x1 and x2 = acc.z2 lxor x2
  and x3 = acc.z3 lxor x3 in
  acc.z0 <- 0;
  acc.z1 <- 0;
  acc.z2 <- 0;
  acc.z3 <- 0;
  feed_word k acc x3;
  feed_word k acc x2;
  feed_word k acc x1;
  feed_word k acc x0

(* data length need not be a multiple of 16; a short tail is zero-padded *)
let feed k acc s =
  let n = String.length s in
  let block s off =
    mul_block k acc (Bytesx.get_u32_be s off)
      (Bytesx.get_u32_be s (off + 4))
      (Bytesx.get_u32_be s (off + 8))
      (Bytesx.get_u32_be s (off + 12))
  in
  for b = 0 to (n / 16) - 1 do
    block s (16 * b)
  done;
  let r = n mod 16 in
  if r > 0 then begin
    let tail = Bytes.make 16 '\000' in
    Bytes.blit_string s (n - r) tail 0 r;
    block (Bytes.unsafe_to_string tail) 0
  end

(* GHASH over pad16 ad || pad16 c || bitlen ad || bitlen c, XORed with
   the encrypted initial counter block *)
let compute_tag k ~ekj0 ad c =
  let acc = { z0 = 0; z1 = 0; z2 = 0; z3 = 0 } in
  feed k acc ad;
  feed k acc c;
  let ad_bits = 8 * String.length ad and c_bits = 8 * String.length c in
  mul_block k acc (ad_bits lsr 32) (ad_bits land m32) (c_bits lsr 32)
    (c_bits land m32);
  let b = Bytes.create 16 in
  Bytesx.set_u32_be b 0 acc.z0;
  Bytesx.set_u32_be b 4 acc.z1;
  Bytesx.set_u32_be b 8 acc.z2;
  Bytesx.set_u32_be b 12 acc.z3;
  Bytesx.xor (Bytes.unsafe_to_string b) ekj0

(* --- AEAD ----------------------------------------------------------------- *)

(* counter block 1 (J0) masks the tag; the payload keystream starts at
   counter block 2 *)
let stream k nonce fn =
  if String.length nonce <> 12 then invalid_arg (fn ^ ": 12-byte nonce");
  let s = Aes.ctr_stream ~counter:1 k.aes ~nonce in
  (s, Aes.squeeze s 16)

let seal k ~nonce ~ad plaintext =
  let s, ekj0 = stream k nonce "Aes_gcm.seal" in
  let c = Bytesx.xor plaintext (Aes.squeeze s (String.length plaintext)) in
  c ^ compute_tag k ~ekj0 ad c

let open_ k ~nonce ~ad sealed =
  let s, ekj0 = stream k nonce "Aes_gcm.open_" in
  let n = String.length sealed - tag_size in
  if n < 0 then None
  else begin
    let c = String.sub sealed 0 n in
    let tag = String.sub sealed n tag_size in
    if Bytesx.equal_ct tag (compute_tag k ~ekj0 ad c) then
      Some (Bytesx.xor c (Aes.squeeze s n))
    else None
  end
