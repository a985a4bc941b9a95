(* R1 fixture, gap 4: the root reaches [digest] as [R1_opened.digest]
   under [open Crypto], and [width] through the alias [O] that the same
   open resolves; [digest] calls [pad]. All three are live. Expected
   finding count: 0. *)

let width = 64
let pad m = m ^ String.make (width - String.length m mod width) '\x80'
let digest m = String.length (pad m)
