(** Host-time spans recorded by the benchmark around its calls into the
    program's layers.

    Spans live in memory while a traced pass runs and are handed back
    once, by {!stop}. When recording is off, {!with_} is a plain call,
    so the untraced passes execute exactly the code the traced ones do. *)

type t = {
  id : int;  (** opening order, from 0 *)
  name : string;  (** layer boundary, e.g. ["experiment.run_spec"] *)
  parent : int;  (** id of the enclosing span; [-1] for a root *)
  request : string;  (** cell fingerprint or ["pair#index"] *)
  start_s : float;  (** host seconds, {!Core.Clock.now_s} *)
  stop_s : float;
  minor_words : float;  (** allocated while open, children included *)
}

val start : unit -> unit
(** Discards earlier spans and turns recording on. *)

val stop : unit -> t list
(** Turns recording off and returns the closed spans in [id] order. *)

val recording : unit -> bool

val with_ : ?request:string -> string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f] inside a span named [name]. [request] sets
    the request id of this span and everything opened inside it; without
    it the span inherits its parent's. Exceptions close the span and
    propagate. *)

val covered : lo:float -> hi:float -> (float * float) list -> float
(** Length of the union of the intervals, clipped to [\[lo, hi\]]. *)

val self_times : t list -> (t * float * float) list
(** Each span with its self time (seconds: its duration minus the part
    of its interval its children cover) and its self allocation (minor
    words minus its children's). *)
