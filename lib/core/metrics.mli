(** Campaign observability: a domain-safe registry of counters and
    observation series (harness self-telemetry), per-cell
    distribution summaries, the versioned machine-readable artifact
    behind [pqtls-bench run --metrics], and the drift gates behind
    [pqtls-bench compare].

    Each cell kind has one encoder, {!record_cell} or
    {!record_farm_cell}, which writes the cell's JSON straight from its
    spec and outcome; that encoder is the kind's artifact schema.

    Determinism contract: a cell's JSON derives only from its spec and
    outcome, so the serialized artifact is byte-identical for any
    [jobs] and whether cells executed or came from the result cache. Volatile telemetry (wall clock, cache hits,
    pool occupancy) lives in the registry only and surfaces via
    {!Exec.health_summary}, never in the artifact. *)

(** {1 Distribution summaries} *)

type dist = {
  d_n : int;  (** sample count *)
  d_mean : float;
  d_stddev : float;  (** sample stddev, 0 for singletons *)
  d_p5 : float;
  d_p25 : float;
  d_p50 : float;
  d_p75 : float;
  d_p95 : float;
  d_p99 : float;
  d_ci_lo : float;  (** deterministic bootstrap 95 % CI of the median *)
  d_ci_hi : float;
}

val dist : seed:string -> float list -> dist
(** Summarize one sample list; [seed] drives the bootstrap resampling
    (callers pass the cell fingerprint plus the metric name, making the
    interval a pure function of the data).
    @raise Invalid_argument on the empty list. *)

(** {1 The registry and the cell recorders} *)

type t

val create : unit -> t

val incr : ?by:int -> t -> string -> unit
(** Bump a named counter (created at 0 on first use). Domain-safe. *)

val counter : t -> string -> int

val observe : t -> string -> float -> unit
(** Append one observation to a named series (e.g. per-cell wall
    seconds). Domain-safe. *)

val observations : t -> string -> float list
(** The series in observation order (arrival order across domains —
    volatile; never serialized into the artifact). *)

val note_experiment : t -> string -> unit
(** Record a campaign name for the artifact header (deduplicated,
    first-seen order). *)

val record_cell :
  t -> Experiment.spec -> (Experiment.outcome, string) result -> unit
(** Encode one finished cell: its identity keys (fingerprint [id],
    label [key], kem, sig, scenario, buffering and [standard] — true
    when everything except kem/sig/scenario/buffering/seed is at the
    {!Experiment.spec} defaults), then [error] or the [data] block of
    distribution summaries. Only non-full {!Mix} cells carry a [mix]
    key and a [resumption] block, and only non-default
    {!Tls.Chain_profile} cells a [chain] key and block. Deduplicated on
    the spec fingerprint (first recording wins), so call order — which
    {!Exec.cells} fixes to spec order — fully determines the artifact;
    labels shared by several specs (ablation grids) get a
    deterministic [#k] suffix. *)

val record_farm_cell :
  t ->
  Experiment.farm_spec ->
  (Experiment.farm_outcome, string) result ->
  unit
(** The farm-cell (Table 5) encoder, sharing {!record_cell}'s
    fingerprint dedup and [#k] labels; {!Exec.farm_cells} records in
    spec order. Identity keys: id, key, kem, sig, scenario, workload
    [profile], balancer [policy], [utilization], [adv_fraction]. The
    [data] block holds load, latency, per-server, adversarial and
    calibration figures. The artifact has a [farm_cells] key only when
    a farm cell was recorded, so other campaigns' artifacts stay
    byte-identical under the same schema version. *)

val cell_count : t -> int
(** Recorded cells of both kinds. *)

(** {1 The artifact} *)

val schema_version : string
(** ["pqtls-bench-metrics/1"]; bump when the JSON shape changes. *)

type artifact
(** A snapshot of the recorded cells under a campaign seed. *)

val artifact : t -> seed:string -> artifact
val to_json_string : artifact -> string
(** Deterministic serialization (see {!Json.to_string}): equal
    artifacts render byte-identically. *)

(** {1 Comparison} *)

(** A parsed artifact: per-cell identity plus the flattened numeric
    leaves, which is all the gates need — re-reading a file someone
    else's build wrote never loses precision this way. Both cell kinds
    parse into {!p_cell}. *)

type p_cell = {
  p_id : string;
  p_key : string;
  p_kem : string;
  p_sig : string;
  p_scenario : string;
  p_buffering : string;  (** ["push"] or ["buffered"]; [""] for farm cells *)
  p_standard : bool;  (** [false] for farm cells *)
  p_error : string option;
  p_metrics : (string * float) list;
      (** dotted-path numeric leaves, e.g.
          ["data.latency_ms.total.p50"], in serialization order *)
}

type p_artifact = {
  p_seed : string;
  p_experiments : string list;
  p_cells : p_cell list;
  p_farm_cells : p_cell list;  (** [[]] for pre-farm artifacts *)
}

val of_json_string : string -> (p_artifact, string) result
(** Rejects other schema versions and malformed documents, including
    cells missing their kind's identity keys ([buffering]/[standard]
    for standard cells, [profile]/[policy] for farm cells). *)

val diff : ?rel_tol:float -> p_artifact -> p_artifact -> string list
(** Human-readable drift issues between a baseline and a candidate,
    empty when they agree. Farm cells are compared with the same rules
    as standard cells. Cells match on [p_id]; unmatched cells,
    ok/failed flips, missing metrics and seed mismatches are issues.
    [rel_tol] (default [0.] = exact, NaN equal to NaN) bounds
    [|a - b| / max(|a|, |b|)] per metric. *)

val against_paper : p_artifact -> int * string list
(** Judge every standard, push-buffered, completed cell against the
    embedded paper tables: Table 2a/2b medians, byte counts and
    handshake rates on the ideal link, and Table 4a/4b total medians
    under the deterministic impairments (bandwidth, delay). Returns
    (comparisons made, issues). Tolerances mirror test/test_core.ml's
    calibration assertions (30 % latency, 10-25 % bytes, 45 % on
    reciprocal-of-latency handshake counts and Table 4 medians);
    illegible (NaN) paper cells and the random-loss scenario columns
    are skipped. *)
