(** R1 — unreachable definition. Roots the call graph at every
    definition of the production entry points ([bin/], [perfbench/bin/],
    [perfbench/src/]) and reports each [lib/] definition (outside
    [lib/lint]) that none of them reaches, saying whether a test still
    does. Silent when the checked set contains no production root, so
    checking one subtree or one file never reports the whole library. *)

val rule : Rule.t
