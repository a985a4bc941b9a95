(** The inputs of every workload, derived from the benchmark's [--seed]
    alone: the seed strings the program sees, the order cells run in,
    and the real-crypto rotation. At {!default_seed} the grids keep the
    repository's own order and seeds, so the campaign artifact is the
    one [pqtls-bench run table4b] writes. *)

val default_seed : int

val shuffle : seed:int -> label:string -> 'a list -> 'a list
(** Deterministic Fisher-Yates permutation drawn from a DRBG keyed by
    [seed] and [label]; the identity at {!default_seed}. *)

val campaign_seed : int -> string
(** ["pqtls"] at the default seed (the CLI's), ["pqtls/<seed>"] else. *)

val campaign : int -> (string * Core.Scenario.t) list
(** Every signature algorithm of {!Pqc.Registry.sigs} under every
    {!Core.Scenario.all} entry, at the x25519 baseline: the Table 4b
    grid, 144 cells, as (SA name, scenario). *)

val farm_seed : int -> string
(** ["table5"] at the default seed (Table 5's), ["table5/<seed>"] else. *)

val farm_pairs : (string * string) list
(** Table 5's capacity pairs (KA, SA). *)

val farm : int -> ((string * string) * string) list
(** {!farm_pairs} under every {!Netsim.Workload.all} profile: 12 cells,
    as ((KA, SA), profile). *)

val real_pairs : (string * string) list
(** The eight real-crypto pairs, one per kernel family. *)

val rotation : int -> (string * string) list
(** {!real_pairs} in the order one rotation visits them. *)

val handshake_seed : int -> string * string -> int -> string
(** DRBG seed of the [index]-th real-crypto handshake of a pair. *)
