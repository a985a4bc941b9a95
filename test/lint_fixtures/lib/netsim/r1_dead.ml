(* R1 fixture: what the rule exists to find. [dead] is reached by
   nothing, [observer] only by a test (under [open Netsim]); neither is
   reached by the root, so the expected finding count is 2. *)

let dead x = x + 1
let observer x = x * 2
