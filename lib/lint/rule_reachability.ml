(* R1 — unreachable definition. The paper's tables come only from what
   the production entry points run: the pqtls-bench CLI and the host-time
   benchmark. A lib/ definition that none of them reaches through the
   call graph contributes nothing to them. The finding says whether a
   test still reaches it, because a test oracle is the one reason to
   keep such a definition (with an allow naming the test). *)

let root_dirs = [ "bin"; "perfbench/bin"; "perfbench/src" ]
let test_dirs = [ "test"; "perfbench/test" ]

let under dirs (d : Symtab.def) =
  List.exists (fun dir -> Walk.in_dir ~dir d.Symtab.d_file) dirs

let in_lib = under [ "lib" ]

let check sources =
  let syms = Symtab.build sources in
  let defs = Symtab.defs syms in
  let quals p =
    List.filter_map
      (fun d -> if p d then Some d.Symtab.d_qual else None)
      defs
  in
  let is_root d = (not (in_lib d)) && under root_dirs d in
  match quals is_root with
  | [] -> []
  | roots ->
    let cg = Callgraph.build syms in
    let live = Callgraph.reachable cg roots in
    let tested =
      Callgraph.reachable cg
        (quals (fun d ->
             (not (in_lib d)) && (not (is_root d)) && under test_dirs d))
    in
    List.filter_map
      (fun (d : Symtab.def) ->
        if
          (not (in_lib d))
          || under [ "lib/lint" ] d
          || Hashtbl.mem live d.Symtab.d_qual
        then None
        else
          Some
            (Diag.make ~rule:"R1" ~file:d.Symtab.d_file ~symbol:d.Symtab.d_name
               d.Symtab.d_loc
               (if Hashtbl.mem tested d.Symtab.d_qual then
                  d.Symtab.d_qual
                  ^ " is reached only by tests, not from bin/ or \
                     perfbench/: delete it with its tests, or keep a test \
                     oracle under [@@lint.allow \"R1\" \"<the test>\"]"
                else
                  d.Symtab.d_qual
                  ^ " is reached from neither bin/, perfbench/ nor the \
                     tests: delete it with its .mli entry")))
      defs

let rule =
  { Rule.name = "R1";
    severity = Rule.Error;
    synopsis =
      "every lib/ definition is reachable from a production root (bin/, \
       perfbench/)";
    doc =
      "The reproduction's output is what pqtls-bench and perfbench run. \
       R1 roots the call graph at every definition under bin/, \
       perfbench/bin/ and perfbench/src/ and reports each lib/ \
       definition (outside lib/lint) that none of them reaches, saying \
       whether a test still does. Dead code is deleted with its .mli \
       entry; an API tested only for its own sake goes with its test; a \
       test oracle stays under an allow that names the test needing it. \
       The rule is silent when the checked paths contain no production \
       root.";
    check }
