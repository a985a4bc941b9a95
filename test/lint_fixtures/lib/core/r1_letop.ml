(* R1 fixture, gap 2: [let*] is a call of the binding operator defined
   here. The root calls [both], so both are live. Expected finding
   count: 0. *)

let ( let* ) = Result.bind

let both a b =
  let* x = a in
  let* y = b in
  Ok (x + y)
