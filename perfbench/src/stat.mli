(** Summary statistics for the benchmark's host-time samples. *)

val median : float list -> float
val percentile : float -> float list -> float
(** Linear interpolation, as {!Core.Stats.percentile}. *)

val geomean : float list -> float
(** @raise Invalid_argument on the empty list or a non-positive value. *)

val tail : int -> float option
(** The highest of p99.9, p99, p90 and p50 with at least ten of [n]
    samples ranked strictly above it ([n - ceil (p * n)] of them);
    [None] when even the median has fewer. *)

val pct_name : float -> string
(** [0.9] is ["p90"], [0.999] is ["p99.9"]. *)

val tail_note : int -> string
(** ["n=144, tail rule picks p90"]: the sample count and {!tail}'s
    choice, for the report. *)
