(* R1 fixture: the production root of the corpus. It calls into one
   lib/ fixture per call-graph resolution gap; every definition those
   calls reach through the gap must count as live. Any other lib/
   definition in the corpus is unreachable from here. *)

open Crypto
module O = R1_opened

let main () =
  ignore (Core.R1_default.run [ 1; 2 ]);
  ignore (Core.R1_letop.both (Ok 1) (Ok 2));
  ignore (Tls.R1_nested.Inbound.next "record");
  ignore (R1_opened.digest "msg" + O.width)
