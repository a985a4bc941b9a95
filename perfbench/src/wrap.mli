(** Timed stand-ins for the algorithm values the benchmark passes into
    the program. Each closure runs the original inside a
    ["pqc.keygen"], ["pqc.encaps"], ["pqc.decaps"], ["pqc.sign"] or
    ["pqc.verify"] {!Span}; every other field — [name] and [mocked]
    included — is kept, so spec fingerprints, the credential cache and
    outcomes are those of the unwrapped value. *)

val kem : Pqc.Kem.t -> Pqc.Kem.t
val sigalg : Pqc.Sigalg.t -> Pqc.Sigalg.t

val ops : string list
(** The five span names above, in that order. *)
