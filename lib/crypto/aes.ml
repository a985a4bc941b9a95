(* FIPS 197. The S-box is computed at start-up from the GF(2^8) inverse
   and affine map rather than pasted as a table; it is checked against
   the two well-known corner values. The cipher runs on 32-bit column
   words: each middle round is sixteen lookups in four 256-entry
   T-tables, which fold SubBytes and MixColumns together and are
   derived from the S-box at module init.

   Side channels: T-table and S-box lookups are indexed by secret state
   bytes, so cache timing can leak them; this is the same leakage class
   as a byte-wise S-box lookup. The [if] in [xtime] runs only while the
   tables are built at module init.

   CTR mode has a single implementation, the stateful [ctr_stream]:
   a block counter plus the unread tail of the current keystream block.
   Every CTR user (the Kyber-90s and Dilithium-AES samplers, AES-GCM)
   reads from one. *)
[@@@lint.kernel
  "S-box and T-tables have 256 entries; state words stay below 2^32 (32-bit loads and counters XORed with 32-bit round keys and table entries), so every index [w lsr 24] or [(w lsr k) land 0xff] is in 0..255; round-key arrays have 4 * (rounds + 1) words from FIPS 197 and are indexed by 4 * round + column for round <= rounds"]

let m32 = 0xffffffff

let xtime b =
  let b = b lsl 1 in
  if b land 0x100 <> 0 then (b lxor 0x11b) land 0xff else b

let gf_mul a b =
  let acc = ref 0 and a = ref a and b = ref b in
  while !b <> 0 do
    if !b land 1 <> 0 then acc := !acc lxor !a;
    a := xtime !a;
    b := !b lsr 1
  done;
  !acc

let gf_inv a =
  if a = 0 then 0
  else begin
    (* a^254 by square-and-multiply *)
    let rec pow base e acc =
      if e = 0 then acc
      else
        pow (gf_mul base base) (e lsr 1)
          (if e land 1 = 1 then gf_mul acc base else acc)
    in
    pow a 254 1
  end

let sbox =
  let t = Array.make 256 0 in
  for i = 0 to 255 do
    let x = gf_inv i in
    let rot v n = ((v lsl n) lor (v lsr (8 - n))) land 0xff in
    t.(i) <- x lxor rot x 1 lxor rot x 2 lxor rot x 3 lxor rot x 4 lxor 0x63
  done;
  assert (t.(0) = 0x63 && t.(0x53) = 0xed);
  t
[@@lint.allow "S1" "init-once S-box table; computed at module init and \
                    never written again"]

(* T-table for row 0: the MixColumns column (2, 1, 1, 3) times S(x),
   big-endian. Rows 1-3 are byte rotations of it. *)
let te0 =
  Array.init 256 (fun x ->
      let s = sbox.(x) in
      let s2 = xtime s in
      (s2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor (s2 lxor s))
[@@lint.allow "S1" "init-once T-table derived from the S-box at module \
                    init and never written again"]

let ror8 w = ((w lsr 8) lor (w lsl 24)) land m32

let te1 = Array.map ror8 te0
[@@lint.allow "S1" "init-once T-table derived from the S-box at module \
                    init and never written again"]

let te2 = Array.map ror8 te1
[@@lint.allow "S1" "init-once T-table derived from the S-box at module \
                    init and never written again"]

let te3 = Array.map ror8 te2
[@@lint.allow "S1" "init-once T-table derived from the S-box at module \
                    init and never written again"]

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

type key = { rounds : int; rk : int array (* round keys as 32-bit words *) }

let sub_word w =
  (sbox.((w lsr 24) land 0xff) lsl 24)
  lor (sbox.((w lsr 16) land 0xff) lsl 16)
  lor (sbox.((w lsr 8) land 0xff) lsl 8)
  lor sbox.(w land 0xff)

let rot_word w = ((w lsl 8) lor (w lsr 24)) land 0xffffffff

let expand_key k =
  let nk =
    match String.length k with
    | 16 -> 4
    | 24 -> 6
    | 32 -> 8
    | _ -> invalid_arg "Aes.expand_key: key must be 16/24/32 bytes"
  in
  let rounds = nk + 6 in
  let n = 4 * (rounds + 1) in
  let rk = Array.make n 0 in
  for i = 0 to nk - 1 do
    rk.(i) <- Bytesx.get_u32_be k (4 * i)
  done;
  for i = nk to n - 1 do
    let t = rk.(i - 1) in
    let t =
      if i mod nk = 0 then sub_word (rot_word t) lxor (rcon.((i / nk) - 1) lsl 24)
      else if nk > 6 && i mod nk = 4 then sub_word t
      else t
    in
    rk.(i) <- rk.(i - nk) lxor t
  done;
  { rounds; rk }

let[@inline] get (a : int array) i = Array.unsafe_get a i

(* one middle round: ShiftRows picks row r of output column c from input
   column c + r; the T-tables apply SubBytes and MixColumns *)
let[@inline] round_word rk k a b c d =
  get te0 (a lsr 24)
  lxor get te1 ((b lsr 16) land 0xff)
  lxor get te2 ((c lsr 8) land 0xff)
  lxor get te3 (d land 0xff)
  lxor get rk k

(* the last round has no MixColumns: plain S-box bytes *)
let[@inline] last_word rk k a b c d =
  (get sbox (a lsr 24) lsl 24)
  lor (get sbox ((b lsr 16) land 0xff) lsl 16)
  lor (get sbox ((c lsr 8) land 0xff) lsl 8)
  lor get sbox (d land 0xff)
  lxor get rk k

(* encrypt the block whose big-endian column words are [s0..s3] and
   store the result at [dst.[off .. off + 15]] *)
let encrypt_words { rounds; rk } s0 s1 s2 s3 dst off =
  let rec go r s0 s1 s2 s3 =
    let k = 4 * r in
    if r = rounds then begin
      Bytesx.set_u32_be dst off (last_word rk k s0 s1 s2 s3);
      Bytesx.set_u32_be dst (off + 4) (last_word rk (k + 1) s1 s2 s3 s0);
      Bytesx.set_u32_be dst (off + 8) (last_word rk (k + 2) s2 s3 s0 s1);
      Bytesx.set_u32_be dst (off + 12) (last_word rk (k + 3) s3 s0 s1 s2)
    end
    else
      go (r + 1)
        (round_word rk k s0 s1 s2 s3)
        (round_word rk (k + 1) s1 s2 s3 s0)
        (round_word rk (k + 2) s2 s3 s0 s1)
        (round_word rk (k + 3) s3 s0 s1 s2)
  in
  go 1 (s0 lxor get rk 0) (s1 lxor get rk 1) (s2 lxor get rk 2)
    (s3 lxor get rk 3)

let encrypt_block key block =
  if String.length block <> 16 then invalid_arg "Aes.encrypt_block";
  let out = Bytes.create 16 in
  encrypt_words key (Bytesx.get_u32_be block 0) (Bytesx.get_u32_be block 4)
    (Bytesx.get_u32_be block 8) (Bytesx.get_u32_be block 12) out 0;
  Bytes.unsafe_to_string out

(* --- CTR ---------------------------------------------------------------- *)

type ctr_stream = {
  key : key;
  w0 : int; (* the counter block with the counter bytes zeroed, *)
  w1 : int; (* as four big-endian words *)
  w2 : int;
  w3 : int;
  limit : int; (* blocks the counter field can number *)
  mutable ctr : int; (* next counter value *)
  block : Bytes.t; (* the current keystream block *)
  mutable used : int; (* bytes of [block] already handed out *)
}

let ctr_stream ?(counter = 0) key ~nonce =
  let nlen = String.length nonce in
  if nlen > 16 then invalid_arg "Aes.ctr_stream: nonce too long";
  let width = 8 * (16 - nlen) in
  (* a counter of 62 bits or more cannot be exhausted by an OCaml int *)
  let limit = if width >= 62 then max_int else 1 lsl width in
  if counter < 0 || counter >= limit then
    invalid_arg "Aes.ctr_stream: counter out of range";
  let b = Bytes.make 16 '\000' in
  Bytes.blit_string nonce 0 b 0 nlen;
  let b = Bytes.unsafe_to_string b in
  { key; w0 = Bytesx.get_u32_be b 0; w1 = Bytesx.get_u32_be b 4;
    w2 = Bytesx.get_u32_be b 8; w3 = Bytesx.get_u32_be b 12; limit;
    ctr = counter; block = Bytes.create 16; used = 16 }

(* encrypt the next counter block into [dst.[off .. off + 15]]; the
   counter never exceeds 62 bits, so it lies in words 2 and 3, in bytes
   the nonce leaves zero *)
let next_block s dst off =
  if s.ctr >= s.limit then invalid_arg "Aes.squeeze: CTR counter exhausted";
  let c = s.ctr in
  encrypt_words s.key s.w0 s.w1
    (s.w2 lor (c lsr 32))
    (s.w3 lor (c land m32))
    dst off;
  s.ctr <- c + 1

let squeeze s n =
  let out = Bytes.create n in
  let i = ref 0 in
  while !i < n do
    if s.used = 16 && n - !i >= 16 then begin
      next_block s out !i;
      i := !i + 16
    end
    else begin
      if s.used = 16 then begin
        next_block s s.block 0;
        s.used <- 0
      end;
      let take = min (16 - s.used) (n - !i) in
      Bytes.blit s.block s.used out !i take;
      s.used <- s.used + take;
      i := !i + take
    end
  done;
  Bytes.unsafe_to_string out

let ctr_keystream key ~nonce n = squeeze (ctr_stream key ~nonce) n

let ctr_encrypt key ~nonce msg =
  Bytesx.xor msg (ctr_keystream key ~nonce (String.length msg))
