(** The experiment naming schema of Appendix B.6: each name maps to the
    campaign that the paper's `experiment.py` would run, rendered as a
    report string. *)

val names : string list
(** [all-kem], [all-sig], [level1|3|5], [level1|3|5-nopush],
    [level1|3|5-perf], [all-kem-scenarios], [all-sig-scenarios],
    [attack], [farm], [mixes], [chains] (and their [-smoke] sizes),
    [ablation-buffer], [ablation-cwnd], [ablation-hrr], the paper's
    [figure3], [table3] and [figure4], [ablation] (all three ablations)
    and [paper], which renders every table and figure in paper order. *)

val aliases : (string * string) list
(** Paper-table spellings accepted everywhere a name is:
    [table2a] = [all-kem], [table2b] = [all-sig],
    [table4a] = [all-kem-scenarios], [table4b] = [all-sig-scenarios]. *)

val resolve : string -> string
(** Canonical name of an alias; identity for everything else. *)

val run : ?seed:string -> ?exec:Exec.t -> string -> string
(** Run a campaign through [exec] (default {!Exec.sequential}); the
    report is bit-identical for any [exec.jobs].
    @raise Invalid_argument for unknown names. *)

val describe : string -> string
