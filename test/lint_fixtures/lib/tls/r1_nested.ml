(* R1 fixture, gap 3: [next] calls [pull] by its bare name from inside
   the nested module. The root calls [Inbound.next], so both are live.
   Expected finding count: 0. *)

module Inbound = struct
  let pull r = String.length r
  let next r = pull r + 1
end
