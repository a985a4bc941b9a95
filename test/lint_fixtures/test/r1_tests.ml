(* R1 fixture: a test that reaches [R1_dead.observer] through a
   toplevel open. Tests are not production roots: the observer is
   still reported, as reached only by tests. *)

open Netsim

let test_observer () = assert (R1_dead.observer 2 = 4)
