(** Disk memoization of completed cells, keyed by a SHA-256 of
    [(spec fingerprint, executable fingerprint)] — re-running a campaign
    with the same binary, seed and parameters reloads every cell from
    disk; changing any of them (including rebuilding the code) misses.

    Entries are written atomically (temp file + rename), so one cache
    directory can safely be shared by parallel domains and by separate
    processes. Each entry carries a SHA-256 of its payload, checked
    before anything is unmarshalled: a corrupt, truncated or alien file
    reads as a miss, and the cell re-executes.

    Only completed outcomes are ever stored: {!Exec} writes exclusively
    on success, so a failed cell is re-executed — never replayed — on
    the next run. *)

type t

type ('spec, 'outcome) kind
(** A cell kind's entries: the spec fingerprint behind their keys, and
    the magic and file extension that keep kinds sharing a directory
    from ever reading each other's files. *)

val standard : (Experiment.spec, Experiment.outcome) kind
(** Single-pair cells, stored as [<key>.outcome]. *)

val farm : (Experiment.farm_spec, Experiment.farm_outcome) kind
(** Server-farm cells, stored as [<key>.farm]. *)

val create : dir:string -> t
(** Creates [dir] (and parents) if needed and fingerprints the running
    executable. *)

val key_for : t -> ('spec, _) kind -> 'spec -> string
(** Hex cache key of a cell under this cache's code fingerprint. *)

val read : t -> (_, 'outcome) kind -> string -> 'outcome option
(** Lookup by {!key_for}; counts a hit or a miss. *)

val write : t -> (_, 'outcome) kind -> string -> 'outcome -> unit

val key : t -> Experiment.spec -> string
(** [key_for t standard]. *)

val find : t -> string -> Experiment.outcome option
(** [read t standard]. *)

val store : t -> string -> Experiment.outcome -> unit
(** [write t standard]. *)

val hits : t -> int
(** Lookups served from disk since [create]. *)

val misses : t -> int
(** Lookups that had to execute since [create]. *)
