(* S2 fixture: the write hides in an optional argument's default, which
   runs on the worker domain whenever a task omits the argument.
   Expected finding count: 1. *)

let calls = ref 0
let tally ?(weight = (incr calls; 1)) x = x * weight
let run xs = Pool.map (fun x -> tally x) xs
