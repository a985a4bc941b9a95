(* R1 fixture, gap 1: [sequential] is named only in an optional
   argument's default. The root calls [run], so both are live. Expected
   finding count: 0. *)

let sequential xs = List.map succ xs
let run ?(exec = sequential) xs = exec xs
