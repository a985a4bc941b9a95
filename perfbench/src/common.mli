(** What the three workloads share: their result type, set-up timing,
    the closed-loop pass scheduler, and the per-layer metric table built
    from a traced pass's spans. *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  checks : (string * bool) list;  (** named correctness checks *)
  attempted : int;  (** cells or handshakes started, all passes *)
  failed : int;
  end_to_end : metric list;  (** from the untraced passes *)
  per_layer : metric list;  (** from the traced passes; [] untraced *)
  notes : string list;  (** human-readable report lines *)
  spans : Span.t list;  (** the traced passes' spans; [] untraced *)
}

val now : unit -> float
val ms_since : float -> float

val setup_repeats : int

val setup :
  startup_s:float -> (first:bool -> 'a * float) -> 'a * float * float * string
(** [setup ~startup_s f] runs [f] {!setup_repeats} times ([~first] on
    the first call only); [f] returns its state and the milliseconds it
    spent on credentials. Returns the first state, [setup_s] (process
    start-up plus the median set-up, in seconds), the median credential
    milliseconds, and a report line with every sample. *)

val credentials : first:bool -> Pqc.Sigalg.t list -> float
(** Server credentials for every algorithm, in milliseconds: through
    {!Tls.Credentials.get} on the first set-up (filling the process
    cache the workload then uses), and through its generator
    {!Tls.Chain.make} with the same seed on the repeats, which the cache
    would otherwise answer without work. *)

val fill : seconds:float -> since:float -> (unit -> float) -> float list
(** [fill ~seconds ~since pass] runs [pass] (which returns its own
    seconds) at least once, then again while the time since [since] plus
    the last pass's duration stays within [seconds]. Returns the pass
    durations in order. *)

val peak_heap_mb : unit -> float
(** {!Gc} top heap size, in megabytes. *)

val strip : ('a, 'e) Stdlib.result list -> ('a, unit) Stdlib.result list
(** Results with the error payload dropped, so passes compare with
    [compare]: errors carry host timings and backtraces. *)

val outcomes : (('a, 'e) Stdlib.result * 'b) list -> ('a, unit) Stdlib.result list
(** {!strip} of a pass's (result, host ms) cells. *)

val sha256_hex : string -> string

type counts = {
  handshakes : int;  (** completed in the traced passes *)
  executed : int;  (** cells the traced passes executed *)
  lookups : int;  (** result-cache lookups *)
  stores : int;
  records : int;  (** {!Core.Metrics.record_cell} calls *)
  farm_records : int;  (** {!Core.Metrics.record_farm_cell} calls *)
  artifacts : int;  (** artifacts rendered *)
  packets : int;  (** simulated packets, all traced handshakes *)
  retransmissions : int;
  host_charges : int;
  credentials_ms : float;  (** median per set-up, all algorithms *)
  cached_cells_per_s : float;  (** untraced warm passes; 0 without *)
  retried : int;  (** {!Core.Exec} counters of the untraced passes *)
  exec_failed : int;
  units_attempted : int;
  units_failed : int;
  untraced_s : float;  (** measured wall of the untraced passes *)
  traced_s : float;  (** wall of the same work, traced *)
}

val per_layer : Span.t list -> counts -> metric list
(** The per-layer metrics of BENCHMARK.json, in its order. A layer the
    workload does not exercise reads 0. *)

val layer_summary :
  Span.t list -> traced_s:float -> untraced_s:float -> string list
(** The pqc closures' share of the spans they run inside, the traced
    and untraced walls of the same work, then self time and allocation
    per span name, largest first, with its share of the traced wall. *)
