let kem (k : Pqc.Kem.t) =
  { k with
    keygen = (fun rng -> Span.with_ "pqc.keygen" (fun () -> k.keygen rng));
    encaps =
      (fun rng pk -> Span.with_ "pqc.encaps" (fun () -> k.encaps rng pk));
    decaps =
      (fun sk ct -> Span.with_ "pqc.decaps" (fun () -> k.decaps sk ct)) }

let sigalg (s : Pqc.Sigalg.t) =
  { s with
    keygen = (fun rng -> Span.with_ "pqc.keygen" (fun () -> s.keygen rng));
    sign =
      (fun rng ~secret msg ->
        Span.with_ "pqc.sign" (fun () -> s.sign rng ~secret msg));
    verify =
      (fun ~public ~msg sg ->
        Span.with_ "pqc.verify" (fun () -> s.verify ~public ~msg sg)) }

let ops = [ "pqc.keygen"; "pqc.encaps"; "pqc.decaps"; "pqc.sign"; "pqc.verify" ]
