(* Keccak-f[1600] sponge, FIPS 202.

   Performance note: OCaml boxes int64 array elements, which makes the
   obvious Int64 implementation allocate on every lane operation. Each
   64-bit lane is therefore split into two *native* ints (low/high 32
   bits), kept in plain int arrays. Lane (x, y) lives at index
   [x + 5*y]. The permutation is straight-line code per round over
   let-bound locals, with constant rotations and constant lane indices,
   so it neither allocates nor reads any index table; SHAKE sits on the
   hot path of Kyber, Dilithium, SPHINCS+, the size-exact mocks and the
   DRBG. Absorb and squeeze move a whole aligned lane at a time.

   Side channels: every lane index and rotation amount is a constant,
   so the permutation has no secret-dependent memory access or branch;
   the only data-dependent control flow is on public lengths and
   sponge positions. *)
[@@@lint.kernel
  "lane arrays are fixed size 25 (5x5 state) and the permutation indexes them only at the literal constants 0..24; rate offsets are bounded by the absorb/squeeze loops"]

let m32 = 0xffffffff

(* round constants split into (lo32, hi32) *)
let rc_lo, rc_hi =
  let rc =
    [| 0x0000000000000001L; 0x0000000000008082L; 0x800000000000808aL;
       0x8000000080008000L; 0x000000000000808bL; 0x0000000080000001L;
       0x8000000080008081L; 0x8000000000008009L; 0x000000000000008aL;
       0x0000000000000088L; 0x0000000080008009L; 0x000000008000000aL;
       0x000000008000808bL; 0x800000000000008bL; 0x8000000000008089L;
       0x8000000000008003L; 0x8000000000008002L; 0x8000000000000080L;
       0x000000000000800aL; 0x800000008000000aL; 0x8000000080008081L;
       0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L |]
  in
  ( Array.map (fun v -> Int64.to_int (Int64.logand v 0xffffffffL)) rc,
    Array.map
      (fun v -> Int64.to_int (Int64.shift_right_logical v 32) land m32)
      rc )

type state = {
  lo : int array; (* 25 low halves *)
  hi : int array; (* 25 high halves *)
}

let make_state () = { lo = Array.make 25 0; hi = Array.make 25 0 }

let[@inline] get (a : int array) i = Array.unsafe_get a i
let[@inline] set (a : int array) i v = Array.unsafe_set a i v

(* One round per loop iteration, written out lane by lane: the column
   parities, the theta offsets and the rho/pi-permuted lanes are all
   let-bound locals, every rotation is by a constant, and lane (x, y)
   is read and written at the constant index x + 5*y. A 64-bit rotation
   by n < 32 moves the top n bits of each half into the other; by
   n > 32 it swaps the halves first. *)
let keccak_f st =
  let lo = st.lo and hi = st.hi in
  for round = 0 to 23 do
    (* theta *)
    let c0l =
      get lo 0 lxor get lo 5 lxor get lo 10 lxor get lo 15 lxor get lo 20
    in
    let c0h =
      get hi 0 lxor get hi 5 lxor get hi 10 lxor get hi 15 lxor get hi 20
    in
    let c1l =
      get lo 1 lxor get lo 6 lxor get lo 11 lxor get lo 16 lxor get lo 21
    in
    let c1h =
      get hi 1 lxor get hi 6 lxor get hi 11 lxor get hi 16 lxor get hi 21
    in
    let c2l =
      get lo 2 lxor get lo 7 lxor get lo 12 lxor get lo 17 lxor get lo 22
    in
    let c2h =
      get hi 2 lxor get hi 7 lxor get hi 12 lxor get hi 17 lxor get hi 22
    in
    let c3l =
      get lo 3 lxor get lo 8 lxor get lo 13 lxor get lo 18 lxor get lo 23
    in
    let c3h =
      get hi 3 lxor get hi 8 lxor get hi 13 lxor get hi 18 lxor get hi 23
    in
    let c4l =
      get lo 4 lxor get lo 9 lxor get lo 14 lxor get lo 19 lxor get lo 24
    in
    let c4h =
      get hi 4 lxor get hi 9 lxor get hi 14 lxor get hi 19 lxor get hi 24
    in
    let d0l = c4l lxor (((c1l lsl 1) lor (c1h lsr 31)) land m32) in
    let d0h = c4h lxor (((c1h lsl 1) lor (c1l lsr 31)) land m32) in
    let d1l = c0l lxor (((c2l lsl 1) lor (c2h lsr 31)) land m32) in
    let d1h = c0h lxor (((c2h lsl 1) lor (c2l lsr 31)) land m32) in
    let d2l = c1l lxor (((c3l lsl 1) lor (c3h lsr 31)) land m32) in
    let d2h = c1h lxor (((c3h lsl 1) lor (c3l lsr 31)) land m32) in
    let d3l = c2l lxor (((c4l lsl 1) lor (c4h lsr 31)) land m32) in
    let d3h = c2h lxor (((c4h lsl 1) lor (c4l lsr 31)) land m32) in
    let d4l = c3l lxor (((c0l lsl 1) lor (c0h lsr 31)) land m32) in
    let d4h = c3h lxor (((c0h lsl 1) lor (c0l lsr 31)) land m32) in
    (* rho and pi: b(pi i) = rotl (a i lxor d (i mod 5)) (rho i) *)
    let b0l = get lo 0 lxor d0l and b0h = get hi 0 lxor d0h in
    let l = get lo 1 lxor d1l and h = get hi 1 lxor d1h in
    let b10l = ((l lsl 1) lor (h lsr 31)) land m32
    and b10h = ((h lsl 1) lor (l lsr 31)) land m32 in
    let l = get lo 2 lxor d2l and h = get hi 2 lxor d2h in
    let b20l = ((h lsl 30) lor (l lsr 2)) land m32
    and b20h = ((l lsl 30) lor (h lsr 2)) land m32 in
    let l = get lo 3 lxor d3l and h = get hi 3 lxor d3h in
    let b5l = ((l lsl 28) lor (h lsr 4)) land m32
    and b5h = ((h lsl 28) lor (l lsr 4)) land m32 in
    let l = get lo 4 lxor d4l and h = get hi 4 lxor d4h in
    let b15l = ((l lsl 27) lor (h lsr 5)) land m32
    and b15h = ((h lsl 27) lor (l lsr 5)) land m32 in
    let l = get lo 5 lxor d0l and h = get hi 5 lxor d0h in
    let b16l = ((h lsl 4) lor (l lsr 28)) land m32
    and b16h = ((l lsl 4) lor (h lsr 28)) land m32 in
    let l = get lo 6 lxor d1l and h = get hi 6 lxor d1h in
    let b1l = ((h lsl 12) lor (l lsr 20)) land m32
    and b1h = ((l lsl 12) lor (h lsr 20)) land m32 in
    let l = get lo 7 lxor d2l and h = get hi 7 lxor d2h in
    let b11l = ((l lsl 6) lor (h lsr 26)) land m32
    and b11h = ((h lsl 6) lor (l lsr 26)) land m32 in
    let l = get lo 8 lxor d3l and h = get hi 8 lxor d3h in
    let b21l = ((h lsl 23) lor (l lsr 9)) land m32
    and b21h = ((l lsl 23) lor (h lsr 9)) land m32 in
    let l = get lo 9 lxor d4l and h = get hi 9 lxor d4h in
    let b6l = ((l lsl 20) lor (h lsr 12)) land m32
    and b6h = ((h lsl 20) lor (l lsr 12)) land m32 in
    let l = get lo 10 lxor d0l and h = get hi 10 lxor d0h in
    let b7l = ((l lsl 3) lor (h lsr 29)) land m32
    and b7h = ((h lsl 3) lor (l lsr 29)) land m32 in
    let l = get lo 11 lxor d1l and h = get hi 11 lxor d1h in
    let b17l = ((l lsl 10) lor (h lsr 22)) land m32
    and b17h = ((h lsl 10) lor (l lsr 22)) land m32 in
    let l = get lo 12 lxor d2l and h = get hi 12 lxor d2h in
    let b2l = ((h lsl 11) lor (l lsr 21)) land m32
    and b2h = ((l lsl 11) lor (h lsr 21)) land m32 in
    let l = get lo 13 lxor d3l and h = get hi 13 lxor d3h in
    let b12l = ((l lsl 25) lor (h lsr 7)) land m32
    and b12h = ((h lsl 25) lor (l lsr 7)) land m32 in
    let l = get lo 14 lxor d4l and h = get hi 14 lxor d4h in
    let b22l = ((h lsl 7) lor (l lsr 25)) land m32
    and b22h = ((l lsl 7) lor (h lsr 25)) land m32 in
    let l = get lo 15 lxor d0l and h = get hi 15 lxor d0h in
    let b23l = ((h lsl 9) lor (l lsr 23)) land m32
    and b23h = ((l lsl 9) lor (h lsr 23)) land m32 in
    let l = get lo 16 lxor d1l and h = get hi 16 lxor d1h in
    let b8l = ((h lsl 13) lor (l lsr 19)) land m32
    and b8h = ((l lsl 13) lor (h lsr 19)) land m32 in
    let l = get lo 17 lxor d2l and h = get hi 17 lxor d2h in
    let b18l = ((l lsl 15) lor (h lsr 17)) land m32
    and b18h = ((h lsl 15) lor (l lsr 17)) land m32 in
    let l = get lo 18 lxor d3l and h = get hi 18 lxor d3h in
    let b3l = ((l lsl 21) lor (h lsr 11)) land m32
    and b3h = ((h lsl 21) lor (l lsr 11)) land m32 in
    let l = get lo 19 lxor d4l and h = get hi 19 lxor d4h in
    let b13l = ((l lsl 8) lor (h lsr 24)) land m32
    and b13h = ((h lsl 8) lor (l lsr 24)) land m32 in
    let l = get lo 20 lxor d0l and h = get hi 20 lxor d0h in
    let b14l = ((l lsl 18) lor (h lsr 14)) land m32
    and b14h = ((h lsl 18) lor (l lsr 14)) land m32 in
    let l = get lo 21 lxor d1l and h = get hi 21 lxor d1h in
    let b24l = ((l lsl 2) lor (h lsr 30)) land m32
    and b24h = ((h lsl 2) lor (l lsr 30)) land m32 in
    let l = get lo 22 lxor d2l and h = get hi 22 lxor d2h in
    let b9l = ((h lsl 29) lor (l lsr 3)) land m32
    and b9h = ((l lsl 29) lor (h lsr 3)) land m32 in
    let l = get lo 23 lxor d3l and h = get hi 23 lxor d3h in
    let b19l = ((h lsl 24) lor (l lsr 8)) land m32
    and b19h = ((l lsl 24) lor (h lsr 8)) land m32 in
    let l = get lo 24 lxor d4l and h = get hi 24 lxor d4h in
    let b4l = ((l lsl 14) lor (h lsr 18)) land m32
    and b4h = ((h lsl 14) lor (l lsr 18)) land m32 in
    (* chi, with iota folded into lane 0 *)
    set lo 0 (b0l lxor (lnot b1l land b2l) lxor get rc_lo round);
    set hi 0 (b0h lxor (lnot b1h land b2h) lxor get rc_hi round);
    set lo 1 (b1l lxor (lnot b2l land b3l));
    set hi 1 (b1h lxor (lnot b2h land b3h));
    set lo 2 (b2l lxor (lnot b3l land b4l));
    set hi 2 (b2h lxor (lnot b3h land b4h));
    set lo 3 (b3l lxor (lnot b4l land b0l));
    set hi 3 (b3h lxor (lnot b4h land b0h));
    set lo 4 (b4l lxor (lnot b0l land b1l));
    set hi 4 (b4h lxor (lnot b0h land b1h));
    set lo 5 (b5l lxor (lnot b6l land b7l));
    set hi 5 (b5h lxor (lnot b6h land b7h));
    set lo 6 (b6l lxor (lnot b7l land b8l));
    set hi 6 (b6h lxor (lnot b7h land b8h));
    set lo 7 (b7l lxor (lnot b8l land b9l));
    set hi 7 (b7h lxor (lnot b8h land b9h));
    set lo 8 (b8l lxor (lnot b9l land b5l));
    set hi 8 (b8h lxor (lnot b9h land b5h));
    set lo 9 (b9l lxor (lnot b5l land b6l));
    set hi 9 (b9h lxor (lnot b5h land b6h));
    set lo 10 (b10l lxor (lnot b11l land b12l));
    set hi 10 (b10h lxor (lnot b11h land b12h));
    set lo 11 (b11l lxor (lnot b12l land b13l));
    set hi 11 (b11h lxor (lnot b12h land b13h));
    set lo 12 (b12l lxor (lnot b13l land b14l));
    set hi 12 (b12h lxor (lnot b13h land b14h));
    set lo 13 (b13l lxor (lnot b14l land b10l));
    set hi 13 (b13h lxor (lnot b14h land b10h));
    set lo 14 (b14l lxor (lnot b10l land b11l));
    set hi 14 (b14h lxor (lnot b10h land b11h));
    set lo 15 (b15l lxor (lnot b16l land b17l));
    set hi 15 (b15h lxor (lnot b16h land b17h));
    set lo 16 (b16l lxor (lnot b17l land b18l));
    set hi 16 (b16h lxor (lnot b17h land b18h));
    set lo 17 (b17l lxor (lnot b18l land b19l));
    set hi 17 (b17h lxor (lnot b18h land b19h));
    set lo 18 (b18l lxor (lnot b19l land b15l));
    set hi 18 (b18h lxor (lnot b19h land b15h));
    set lo 19 (b19l lxor (lnot b15l land b16l));
    set hi 19 (b19h lxor (lnot b15h land b16h));
    set lo 20 (b20l lxor (lnot b21l land b22l));
    set hi 20 (b20h lxor (lnot b21h land b22h));
    set lo 21 (b21l lxor (lnot b22l land b23l));
    set hi 21 (b21h lxor (lnot b22h land b23h));
    set lo 22 (b22l lxor (lnot b23l land b24l));
    set hi 22 (b22h lxor (lnot b23h land b24h));
    set lo 23 (b23l lxor (lnot b24l land b20l));
    set hi 23 (b23h lxor (lnot b24h land b20h));
    set lo 24 (b24l lxor (lnot b20l land b21l));
    set hi 24 (b24h lxor (lnot b20h land b21h))
  done

type sponge = {
  st : state;
  rate : int; (* rate in bytes *)
  mutable pos : int; (* byte position within the current rate block *)
}

let xor_byte_into st i v =
  let lane = i lsr 3 and off = i land 7 in
  if off < 4 then st.lo.(lane) <- st.lo.(lane) lxor (v lsl (8 * off))
  else st.hi.(lane) <- st.hi.(lane) lxor (v lsl (8 * (off - 4)))

let byte_out st i =
  let lane = i lsr 3 and off = i land 7 in
  if off < 4 then (st.lo.(lane) lsr (8 * off)) land 0xff
  else (st.hi.(lane) lsr (8 * (off - 4))) land 0xff

let absorb sp msg pad_byte =
  let n = String.length msg in
  let i = ref 0 in
  while !i < n do
    (* fast path: absorb a whole aligned 64-bit lane at once *)
    if sp.pos land 7 = 0 && n - !i >= 8 then begin
      let lane = sp.pos lsr 3 in
      let lo32 = Bytesx.get_u32_le msg !i in
      let hi32 = Bytesx.get_u32_le msg (!i + 4) in
      sp.st.lo.(lane) <- sp.st.lo.(lane) lxor lo32;
      sp.st.hi.(lane) <- sp.st.hi.(lane) lxor hi32;
      sp.pos <- sp.pos + 8;
      i := !i + 8
    end
    else begin
      xor_byte_into sp.st sp.pos (Char.code (String.unsafe_get msg !i));
      sp.pos <- sp.pos + 1;
      incr i
    end;
    if sp.pos = sp.rate then begin
      keccak_f sp.st;
      sp.pos <- 0
    end
  done;
  (* pad10*1 with the domain bits folded into the first pad byte *)
  xor_byte_into sp.st sp.pos pad_byte;
  xor_byte_into sp.st (sp.rate - 1) 0x80;
  keccak_f sp.st;
  sp.pos <- 0

let squeeze sp n =
  let out = Bytes.create n in
  let i = ref 0 in
  while !i < n do
    if sp.pos = sp.rate then begin
      keccak_f sp.st;
      sp.pos <- 0
    end;
    (* fast path: copy a whole aligned 64-bit lane at once *)
    if sp.pos land 7 = 0 && n - !i >= 8 then begin
      let lane = sp.pos lsr 3 in
      Bytesx.set_u32_le out !i sp.st.lo.(lane);
      Bytesx.set_u32_le out (!i + 4) sp.st.hi.(lane);
      sp.pos <- sp.pos + 8;
      i := !i + 8
    end
    else begin
      Bytes.set out !i (Char.chr (byte_out sp.st sp.pos));
      sp.pos <- sp.pos + 1;
      incr i
    end
  done;
  Bytes.unsafe_to_string out

let hash rate pad_byte msg out_len =
  let sp = { st = make_state (); rate; pos = 0 } in
  absorb sp msg pad_byte;
  squeeze sp out_len

let sha3_256 msg = hash 136 0x06 msg 32
let sha3_512 msg = hash 72 0x06 msg 64
let shake128 msg n = hash 168 0x1f msg n
let shake256 msg n = hash 136 0x1f msg n

module Xof = struct
  type t = sponge

  let make rate msg =
    let sp = { st = make_state (); rate; pos = 0 } in
    absorb sp msg 0x1f;
    sp

  let shake128 msg = make 168 msg
  let shake256 msg = make 136 msg
  let squeeze = squeeze
end

(* ---- micro-benchmark kernel hook ----------------------------------------- *)

let bench_permutation () =
  let st = make_state () in
  (* fixed non-trivial lane contents so every round does real work *)
  for i = 0 to 24 do
    st.lo.(i) <- (i * 0x9e3779b9) land m32;
    st.hi.(i) <- ((i + 7) * 0x7c15) land m32
  done;
  fun () -> keccak_f st
