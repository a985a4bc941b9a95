(* RFC 7748 X25519 on its own GF(2^255 - 19) kernel: ref10's unsaturated
   radix 2^25.5, ten non-negative limbs of alternately 26 and 25 bits,
   limb i weighing 2^ceil(25.5 i). Every field operation returns a
   carried element, whose limbs are at most 2^26 (even i) or 2^25 + 2^14
   (odd i). A product coefficient then sums ten terms of at most
   19 * 2^52 and stays below 2^60, inside a 63-bit OCaml int; the 51-bit
   limbs of 64-bit C implementations would need 128-bit products. *)
[@@@lint.kernel
  "all buffers are fixed 32-byte keys allocated locally; unsafe_to_string covers bytes that never escape mutably"]


let key_size = 32

let base_point =
  let b = Bytes.make 32 '\000' in
  Bytes.set b 0 '\x09';
  Bytes.unsafe_to_string b
[@@lint.allow "S1" "frozen to an immutable string before escaping module \
                    init"]

let mask26 = (1 lsl 26) - 1
let mask25 = (1 lsl 25) - 1

(* One carry pass from limb 0 to 9, folding limb 9's overflow back into
   limb 0 times 19 (2^255 = 19), then limb 0 into limb 1 once more. *)
let carry h0 h1 h2 h3 h4 h5 h6 h7 h8 h9 =
  let h1 = h1 + (h0 lsr 26) and h0 = h0 land mask26 in
  let h2 = h2 + (h1 lsr 25) and h1 = h1 land mask25 in
  let h3 = h3 + (h2 lsr 26) and h2 = h2 land mask26 in
  let h4 = h4 + (h3 lsr 25) and h3 = h3 land mask25 in
  let h5 = h5 + (h4 lsr 26) and h4 = h4 land mask26 in
  let h6 = h6 + (h5 lsr 25) and h5 = h5 land mask25 in
  let h7 = h7 + (h6 lsr 26) and h6 = h6 land mask26 in
  let h8 = h8 + (h7 lsr 25) and h7 = h7 land mask25 in
  let h9 = h9 + (h8 lsr 26) and h8 = h8 land mask26 in
  let h0 = h0 + (19 * (h9 lsr 25)) and h9 = h9 land mask25 in
  let h1 = h1 + (h0 lsr 26) and h0 = h0 land mask26 in
  [| h0; h1; h2; h3; h4; h5; h6; h7; h8; h9 |]

let add f g =
  carry
    (f.(0) + g.(0)) (f.(1) + g.(1)) (f.(2) + g.(2)) (f.(3) + g.(3))
    (f.(4) + g.(4)) (f.(5) + g.(5)) (f.(6) + g.(6)) (f.(7) + g.(7))
    (f.(8) + g.(8)) (f.(9) + g.(9))

(* f - g + 2p, limb by limb: each limb of 2p exceeds the same limb of
   any carried g, so no limb goes negative *)
let sub f g =
  let e = 2 * mask26 and o = 2 * mask25 in
  carry
    (f.(0) + e - 36 - g.(0)) (f.(1) + o - g.(1)) (f.(2) + e - g.(2))
    (f.(3) + o - g.(3)) (f.(4) + e - g.(4)) (f.(5) + o - g.(5))
    (f.(6) + e - g.(6)) (f.(7) + o - g.(7)) (f.(8) + e - g.(8))
    (f.(9) + o - g.(9))

(* Schoolbook product: limbs i and j meet at weight 2^(w(i) + w(j)), which
   is twice 2^w(i+j) when both are odd, and wraps past limb 9 with a
   factor 19. *)
let mul f g =
  let f0 = f.(0) and f1 = f.(1) and f2 = f.(2) and f3 = f.(3) and f4 = f.(4)
  and f5 = f.(5) and f6 = f.(6) and f7 = f.(7) and f8 = f.(8) and f9 = f.(9) in
  let g0 = g.(0) and g1 = g.(1) and g2 = g.(2) and g3 = g.(3) and g4 = g.(4)
  and g5 = g.(5) and g6 = g.(6) and g7 = g.(7) and g8 = g.(8) and g9 = g.(9) in
  let f1_2 = 2 * f1 and f3_2 = 2 * f3 and f5_2 = 2 * f5 and f7_2 = 2 * f7
  and f9_2 = 2 * f9 in
  let g1_19 = 19 * g1 and g2_19 = 19 * g2 and g3_19 = 19 * g3
  and g4_19 = 19 * g4 and g5_19 = 19 * g5 and g6_19 = 19 * g6
  and g7_19 = 19 * g7 and g8_19 = 19 * g8 and g9_19 = 19 * g9 in
  carry
    ((f0 * g0) + (f1_2 * g9_19) + (f2 * g8_19) + (f3_2 * g7_19)
    + (f4 * g6_19) + (f5_2 * g5_19) + (f6 * g4_19) + (f7_2 * g3_19)
    + (f8 * g2_19) + (f9_2 * g1_19))
    ((f0 * g1) + (f1 * g0) + (f2 * g9_19) + (f3 * g8_19) + (f4 * g7_19)
    + (f5 * g6_19) + (f6 * g5_19) + (f7 * g4_19) + (f8 * g3_19)
    + (f9 * g2_19))
    ((f0 * g2) + (f1_2 * g1) + (f2 * g0) + (f3_2 * g9_19) + (f4 * g8_19)
    + (f5_2 * g7_19) + (f6 * g6_19) + (f7_2 * g5_19) + (f8 * g4_19)
    + (f9_2 * g3_19))
    ((f0 * g3) + (f1 * g2) + (f2 * g1) + (f3 * g0) + (f4 * g9_19)
    + (f5 * g8_19) + (f6 * g7_19) + (f7 * g6_19) + (f8 * g5_19)
    + (f9 * g4_19))
    ((f0 * g4) + (f1_2 * g3) + (f2 * g2) + (f3_2 * g1) + (f4 * g0)
    + (f5_2 * g9_19) + (f6 * g8_19) + (f7_2 * g7_19) + (f8 * g6_19)
    + (f9_2 * g5_19))
    ((f0 * g5) + (f1 * g4) + (f2 * g3) + (f3 * g2) + (f4 * g1) + (f5 * g0)
    + (f6 * g9_19) + (f7 * g8_19) + (f8 * g7_19) + (f9 * g6_19))
    ((f0 * g6) + (f1_2 * g5) + (f2 * g4) + (f3_2 * g3) + (f4 * g2)
    + (f5_2 * g1) + (f6 * g0) + (f7_2 * g9_19) + (f8 * g8_19)
    + (f9_2 * g7_19))
    ((f0 * g7) + (f1 * g6) + (f2 * g5) + (f3 * g4) + (f4 * g3) + (f5 * g2)
    + (f6 * g1) + (f7 * g0) + (f8 * g9_19) + (f9 * g8_19))
    ((f0 * g8) + (f1_2 * g7) + (f2 * g6) + (f3_2 * g5) + (f4 * g4)
    + (f5_2 * g3) + (f6 * g2) + (f7_2 * g1) + (f8 * g0) + (f9_2 * g9_19))
    ((f0 * g9) + (f1 * g8) + (f2 * g7) + (f3 * g6) + (f4 * g5) + (f5 * g4)
    + (f6 * g3) + (f7 * g2) + (f8 * g1) + (f9 * g0))

let mul_small f k =
  carry (k * f.(0)) (k * f.(1)) (k * f.(2)) (k * f.(3)) (k * f.(4))
    (k * f.(5)) (k * f.(6)) (k * f.(7)) (k * f.(8)) (k * f.(9))

(* z^(p-2) = z^-1 by Fermat; p - 2 = 2^255 - 21 has every bit from 254
   down to 0 set except bits 4 and 2 *)
let invert z =
  let r = ref z in
  for i = 253 downto 0 do
    r := mul !r !r;
    if i <> 4 && i <> 2 then r := mul !r z
  done;
  !r

let widths = [| 26; 25; 26; 25; 26; 25; 26; 25; 26; 25 |]

(* 255 little-endian bits into limbs; bit 255 is dropped as RFC 7748
   requires. Values in [p, 2^255) stay unreduced, which the arithmetic
   accepts. *)
let of_bytes s =
  let pos = ref 0 in
  Array.map
    (fun w ->
      let v = Bytesx.get_u32_le s (!pos / 8) lsr (!pos mod 8) in
      pos := !pos + w;
      v land ((1 lsl w) - 1))
    widths

(* The unique representative below p, little-endian. A carried f is
   below 2^255 + 2^40 < 2p, so subtracting p at most once suffices: it
   is due iff f + 19 carries out of bit 255. *)
let to_bytes f =
  let h = Array.copy f in
  let q = ref 19 in
  Array.iteri (fun i w -> q := (h.(i) + !q) lsr w) widths;
  h.(0) <- h.(0) + (19 * !q);
  let out = Bytes.make 32 '\000' in
  let acc = ref 0 and nbits = ref 0 and k = ref 0 in
  Array.iteri
    (fun i w ->
      (* propagate carries, dropping the one out of bit 255 *)
      if i < 9 then h.(i + 1) <- h.(i + 1) + (h.(i) lsr w);
      acc := !acc lor ((h.(i) land ((1 lsl w) - 1)) lsl !nbits);
      nbits := !nbits + w;
      while !nbits >= 8 || (i = 9 && !nbits > 0) do
        Bytes.set out !k (Char.chr (!acc land 0xff));
        incr k;
        acc := !acc lsr 8;
        nbits := !nbits - 8
      done)
    widths;
  Bytes.unsafe_to_string out

let clamp scalar =
  let b = Bytes.of_string scalar in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land 248));
  Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) land 127 lor 64));
  Bytes.unsafe_to_string b

let scalar_mult ~scalar ~point =
  if String.length scalar <> 32 || String.length point <> 32 then
    invalid_arg "X25519.scalar_mult: 32-byte inputs";
  let k = clamp scalar in
  let x1 = of_bytes point in
  let one = [| 1; 0; 0; 0; 0; 0; 0; 0; 0; 0 |] and zero = Array.make 10 0 in
  let x2 = ref one and z2 = ref zero in
  let x3 = ref x1 and z3 = ref one in
  let swap = ref false in
  let cswap cond =
    if cond then begin
      let t = !x2 in
      x2 := !x3;
      x3 := t;
      let t = !z2 in
      z2 := !z3;
      z3 := t
    end
  in
  for t = 254 downto 0 do
    let kt = (Char.code k.[t / 8] lsr (t land 7)) land 1 = 1 in
    cswap (!swap <> kt);
    swap := kt;
    let a = add !x2 !z2 in
    let aa = mul a a in
    let b = sub !x2 !z2 in
    let bb = mul b b in
    let e = sub aa bb in
    let c = add !x3 !z3 in
    let d = sub !x3 !z3 in
    let da = mul d a in
    let cb = mul c b in
    let t1 = add da cb in
    x3 := mul t1 t1;
    let t2 = sub da cb in
    z3 := mul x1 (mul t2 t2);
    x2 := mul aa bb;
    z2 := mul e (add aa (mul_small e 121665))
  done;
  cswap !swap;
  to_bytes (mul !x2 (invert !z2))

let public_of_secret scalar = scalar_mult ~scalar ~point:base_point
