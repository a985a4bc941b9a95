(* The from-scratch bignum: known answers plus algebraic property tests,
   cross-checked against native int arithmetic on small values. *)

open Crypto
module B = Bignum

let b = Alcotest.testable (Fmt.of_to_string B.to_hex) B.equal

let test_basics () =
  Alcotest.check b "of_int/to_int" (B.of_int 123456789) (B.of_hex "75bcd15");
  Alcotest.(check int) "to_int" 123456789 (B.to_int (B.of_int 123456789));
  Alcotest.(check int) "bit_length" 27 (B.bit_length (B.of_int 123456789));
  Alcotest.(check bool) "testbit" true (B.testbit (B.of_int 8) 3);
  Alcotest.(check bool) "is_even" true (B.is_even (B.of_int 42));
  Alcotest.check b "bytes roundtrip"
    (B.of_hex "0102030405060708090a0b0c0d0e0f")
    (B.of_bytes_be (B.to_bytes_be (B.of_hex "0102030405060708090a0b0c0d0e0f")));
  Alcotest.(check string) "padded encoding"
    "0000002a"
    (Bytesx.to_hex (B.to_bytes_be ~len:4 (B.of_int 42)))

let test_division () =
  (* long division against known quotients, crossing limb boundaries *)
  let a = B.of_hex "123456789abcdef0fedcba9876543210deadbeefcafebabe" in
  let d = B.of_hex "fedcba987654321" in
  let q, r = B.divmod a d in
  Alcotest.check b "q*d + r = a" a (B.add (B.mul q d) r);
  Alcotest.(check bool) "r < d" true (B.compare r d < 0);
  (* single-limb divisor *)
  let q2, r2 = B.divmod a (B.of_int 12345) in
  Alcotest.check b "short division" a (B.add (B.mul q2 (B.of_int 12345)) r2);
  (* divide by self / by larger *)
  Alcotest.check b "a/a" B.one (fst (B.divmod a a));
  Alcotest.check b "a mod bigger" a (snd (B.divmod a (B.add a B.one)));
  Alcotest.(check_raises) "div by zero" Division_by_zero (fun () ->
      ignore (B.divmod a B.zero))

let test_modular () =
  let m = B.of_hex "ffffffffffffffffffffffffffffff61" in
  let x = B.of_hex "123456789abcdef" in
  let inv = B.mod_inv x ~m in
  Alcotest.check b "x * x^-1 = 1" B.one (B.mod_mul x inv ~m);
  Alcotest.check b "fermat" B.one (B.mod_pow x (B.sub m B.one) ~m);
  Alcotest.check b "mod_pow small" (B.of_int 24) (B.mod_pow B.two (B.of_int 10) ~m:(B.of_int 1000));
  Alcotest.check b "mod_sub wraps" (B.sub m B.one) (B.mod_sub B.zero B.one ~m);
  Alcotest.(check_raises) "non-invertible" Not_found (fun () ->
      ignore (B.mod_inv (B.of_int 6) ~m:(B.of_int 9)))

let test_primality () =
  let rng = Drbg.create ~seed:"primes" in
  let prime p = Alcotest.(check bool) (string_of_int p) true (B.is_probable_prime rng (B.of_int p)) in
  let composite p = Alcotest.(check bool) (string_of_int p) false (B.is_probable_prime rng (B.of_int p)) in
  List.iter prime [ 2; 3; 5; 7; 97; 251; 65537; 104729 ];
  List.iter composite [ 0; 1; 4; 100; 65536; 561 (* Carmichael *); 104730 ];
  let p = B.gen_prime rng ~bits:96 in
  Alcotest.(check int) "generated prime width" 96 (B.bit_length p);
  Alcotest.(check bool) "generated prime is prime" true (B.is_probable_prime rng p)

(* plain right-to-left square-and-multiply with division: the reference
   for mod_pow's Montgomery path *)
let ref_mod_pow b e ~m =
  if B.equal m B.one then B.zero
  else begin
    let r = ref B.one and x = ref (B.rem b m) in
    for i = 0 to B.bit_length e - 1 do
      if B.testbit e i then r := B.mod_mul !r !x ~m;
      x := B.mod_mul !x !x ~m
    done;
    !r
  end

let test_mod_pow_edges () =
  let odd = B.of_hex "f123456789abcdef0123456789abcdef1" in
  let even = B.add odd B.one in
  let check name base e m =
    Alcotest.check b name (ref_mod_pow base e ~m) (B.mod_pow base e ~m)
  in
  List.iter
    (fun (mname, m) ->
      check (mname ^ ": exponent 0") (B.of_int 7) B.zero m;
      check (mname ^ ": base 0") B.zero (B.of_int 12345) m;
      check (mname ^ ": base = m") m (B.of_int 3) m;
      check (mname ^ ": base > m") (B.add (B.mul m m) B.two) (B.of_int 77) m;
      check (mname ^ ": base m - 1") (B.sub m B.one) (B.of_int 77) m)
    [ ("odd", odd); ("even", even); ("one limb", B.of_int 1000003);
      ("2^26 + 1", B.of_int ((1 lsl 26) + 1)) ];
  Alcotest.check b "m = 1" B.zero
    (B.mod_pow (B.of_int 5) (B.of_int 3) ~m:B.one);
  Alcotest.check b "0^0 = 1" B.one (B.mod_pow B.zero B.zero ~m:odd)

let small = QCheck.int_range 0 ((1 lsl 30) - 1)

let qc ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

let prop_tests =
  [ qc "add agrees with int" QCheck.(pair small small) (fun (x, y) ->
        B.to_int (B.add (B.of_int x) (B.of_int y)) = x + y);
    qc "mul agrees with int" QCheck.(pair small small) (fun (x, y) ->
        B.to_int (B.mul (B.of_int x) (B.of_int y)) = x * y);
    qc "sub agrees with int" QCheck.(pair small small) (fun (x, y) ->
        let hi = max x y and lo = min x y in
        B.to_int (B.sub (B.of_int hi) (B.of_int lo)) = hi - lo);
    qc "divmod agrees with int" QCheck.(pair small (int_range 1 1000000))
      (fun (x, y) ->
        let q, r = B.divmod (B.of_int x) (B.of_int y) in
        B.to_int q = x / y && B.to_int r = x mod y);
    qc "shift roundtrip" QCheck.(pair small (int_range 0 200)) (fun (x, s) ->
        B.equal (B.of_int x) (B.shift_right (B.shift_left (B.of_int x) s) s));
    qc "compare total order" QCheck.(pair small small) (fun (x, y) ->
        B.compare (B.of_int x) (B.of_int y) = compare x y);
    qc "divmod identity on wide operands"
      QCheck.(pair (string_of_size (QCheck.Gen.int_range 1 40))
                (string_of_size (QCheck.Gen.int_range 1 20)))
      (fun (sa, sb) ->
        let a = B.of_bytes_be sa and d = B.of_bytes_be sb in
        B.is_zero d
        ||
        let q, r = B.divmod a d in
        B.equal a (B.add (B.mul q d) r) && B.compare r d < 0);
    (* odd moduli of 2 to 120 limbs take the Montgomery path; a seed
       divisible by 4 makes the modulus even, and the base may exceed
       the modulus *)
    qc ~count:100 "mod_pow agrees with square-and-multiply"
      QCheck.(pair small (int_range 2 120))
      (fun (seed, limbs) ->
        let rng = Drbg.create ~seed:("mod_pow/" ^ string_of_int seed) in
        let bits = (26 * (limbs - 1)) + 1 + (seed mod 26) in
        let top = B.shift_left B.one (bits - 1) in
        let m = B.add (B.random rng ~bits:(bits - 1)) top in
        let m = if B.is_even m = (seed mod 4 = 0) then m else B.add m B.one in
        let b = B.random rng ~bits:(bits + (seed mod 3 * 8)) in
        let e = B.random rng ~bits:(seed mod 257) in
        B.equal (ref_mod_pow b e ~m) (B.mod_pow b e ~m));
    qc "modpow multiplicative"
      QCheck.(triple small small (int_range 3 100000))
      (fun (x, y, m) ->
        let m = B.of_int m in
        let lhs = B.mod_mul (B.mod_pow (B.of_int x) (B.of_int 5) ~m)
                    (B.mod_pow (B.of_int y) (B.of_int 5) ~m) ~m in
        let rhs = B.mod_pow (B.mod_mul (B.of_int x) (B.of_int y) ~m) (B.of_int 5) ~m in
        B.equal lhs rhs) ]

let suites =
  [ ( "bignum",
      [ Alcotest.test_case "basics" `Quick test_basics;
        Alcotest.test_case "division" `Quick test_division;
        Alcotest.test_case "modular" `Quick test_modular;
        Alcotest.test_case "mod_pow edge cases" `Quick test_mod_pow_edges;
        Alcotest.test_case "primality" `Quick test_primality ]
      @ prop_tests ) ]
