(** Real-time profiling: wall-clock micro-benchmarks of the actual
    OCaml substrates, per-op GC accounting, and the virtual-vs-real
    campaign attribution behind [pqtls-bench profile].

    Everything else in the repo measures *virtual* time — deterministic,
    machine-independent, a pure function of spec and seed. This module
    is deliberately the opposite: it reads the host clock (through the
    {!Clock} quarantine) to find out where *real* CPU time and
    allocation go, which is what hot-path optimization work gates
    against. The artifact therefore separates:

    - a {e deterministic shape} — the op registry, per-op iteration
      counts, JSON schema and key order, and the attribution rows'
      identities, counts and virtual costs, all pure functions of the
      registries and the planning table ({!shape_json_string} is
      asserted byte-identical across [--jobs] by the tests); from
    - {e nondeterministic values} — the measured millisecond
      distributions, GC deltas and real-attribution columns, which
      depend on the machine and the moment and are compared only with a
      relative tolerance ([pqtls-bench compare-profile]). *)

type group = Ka | Sa | Kernel

val group_name : group -> string
(** ["ka"], ["sa"], ["kernel"]. *)

type op = {
  op_name : string;
      (** ["keygen kyber512"], ["sign dilithium3"], ["kernel
          keccak-f1600"] — KA/SA spellings match the {!Pqc.Costs} trace
          labels so attribution can join on them *)
  op_group : group;
  op_alg : string;  (** algorithm or kernel name *)
  op_kind : string;
      (** ["keygen" | "encaps" | "decaps" | "sign" | "verify" |
          "kernel"] *)
  op_samples : int;  (** timed samples taken (each times one batch) *)
  op_batch : int;  (** iterations per timed sample *)
  op_warmup : int;  (** untimed executions before sampling *)
  op_prepare : unit -> unit -> unit;
      (** [op_prepare ()] builds the op's deterministic inputs (keys,
          ciphertexts, messages — outside the timed region) and returns
          the thunk running one iteration *)
}

val budget_ms : float
(** Per-sample time budget (virtual planning constant). Batch sizes are
    [clamp 1 256 (budget_ms / est)] where [est] is a static per-family
    estimate of the pure-OCaml cost — coarse and machine-relative, but a
    code constant, so iteration counts are identical on every machine. *)

val registry : unit -> op list
(** The full profiled-primitive registry, in deterministic order: every
    {!Pqc.Registry} KA x {keygen, encaps, decaps}, every SA x {keygen,
    sign, verify}, then the substrate kernels (Keccak-f[1600], Kyber and
    Dilithium NTT, HKDF-SHA256, SHA-256 over 1 KiB, one AES-256 block,
    an AES-128-GCM seal of 1 KiB). Sign and verify cycle through a
    fixed set of messages drawn from the op's seed, so message-dependent
    rejection sampling is averaged rather than frozen at one count. *)

val filter : string -> op list -> op list
(** [filter needle ops] keeps ops whose name contains [needle]
    (substring match, also matching ["ka:"], ["sa:"], ["kernel:"] group
    prefixes). *)

type gc_delta = {
  g_minor_words : float;  (** words allocated on the minor heap, per op *)
  g_promoted_words : float;
  g_major_words : float;
  g_minor_collections : float;  (** collections per op (usually << 1) *)
  g_major_collections : float;
}
(** [Gc.quick_stat] deltas across the whole sampling run, divided by the
    iteration count. *)

type measured = {
  p_op : op;
  p_time : Metrics.dist;  (** per-iteration milliseconds, over samples *)
  p_gc : gc_delta;
}

type attr_row = {
  at_lib : string;  (** Table 3 bucket ("libcrypto", "libssl", ...) *)
  at_op : string;  (** charge op label ("encaps kyber768", ...) *)
  at_count : int;  (** charge events in the attribution cell *)
  at_virtual_ms : float;  (** summed virtual ms the ledger was charged *)
  at_real_ms : float option;
      (** measured real ms per op (median) for ops the profile registry
          covers; [None] for protocol stand-ins with no real
          implementation (parse/build, per-packet kernel work) *)
}

type artifact = {
  pa_seed : string;
  pa_attr_kem : string;
  pa_attr_sig : string;
  pa_attr_scenario : string;
  pa_ops : measured list;
  pa_attribution : attr_row list;
      (** sorted by virtual ms (desc, then lib/op) — a deterministic
          order; the renderer re-sorts by real ms for display *)
}

val schema_version : string
(** ["pqtls-bench-profile/1"]; bump when the JSON shape changes. *)

val measure : op -> Metrics.dist * gc_delta
(** Micro-benchmark one op on the calling domain: warmup, then
    [op_samples] timed batches with {!Clock}, with one [Gc.quick_stat]
    delta bracketing the whole sampled region. *)

val run : ?jobs:int -> ?ops_filter:string -> seed:string -> unit -> artifact
(** Measure the (optionally filtered) registry, sharding ops across
    [jobs] domains (default 1 — parallel measurement trades accuracy
    for wall time; the artifact's shape is identical either way), and
    run the attribution cell (a traced mocked-crypto kyber768 x
    dilithium3 cell under the ideal scenario, seeded from [seed]).
    @raise Invalid_argument when the filter matches nothing. *)

val to_json_string : artifact -> string
val shape_json_string : artifact -> string
(** The artifact with every volatile leaf (times, GC deltas, real
    attribution columns) zeroed out: what must be byte-identical across
    [--jobs] settings and repeated runs. *)

val render_table : artifact -> string
(** Plain-text per-op table followed by {!render_attribution}. *)

val render_attribution : artifact -> string
(** The "virtual vs real" table naming the substrates that dominate
    campaign wall-clock. *)

val folded : artifact -> string
(** Folded stacks ([group;alg;kind <self-us>]) weighted by median real
    time, via the {!Trace.Export} flamegraph exporter. *)

(** {1 Comparison} — the regression gate behind
    [pqtls-bench compare-profile]. *)

type p_op = {
  q_name : string;
  q_group : string;
  q_alg : string;
  q_kind : string;
  q_samples : int;
  q_batch : int;
  q_warmup : int;
  q_metrics : (string * float) list;
      (** dotted numeric leaves ("time_ms.p50", "gc.minor_words", ...)
          in serialization order *)
}

type p_artifact = { q_seed : string; q_ops : p_op list }

val of_json_string : string -> (p_artifact, string) result
(** Rejects other schema versions and malformed documents. *)

val diff : ?rel_tol:float -> p_artifact -> p_artifact -> string list
(** Per-op regression issues between a baseline and a candidate, empty
    when they agree. Ops match on name; unmatched ops and shape changes
    (iteration counts) are always issues. Of the measured values only
    the stable ones are judged — median time and minor allocated words
    per op — each within [rel_tol] (default [0.25]; wall-clock medians
    jitter run to run even on one machine). *)
