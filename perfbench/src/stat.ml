let median = Core.Stats.median
let percentile = Core.Stats.percentile

let geomean = function
  | [] -> invalid_arg "Stat.geomean: empty"
  | xs ->
    if List.exists (fun x -> not (x > 0.)) xs then
      invalid_arg "Stat.geomean: non-positive value";
    exp
      (List.fold_left (fun a x -> a +. log x) 0. xs
      /. float_of_int (List.length xs))

let ladder = [ 0.999; 0.99; 0.9; 0.5 ]

(* per-mille integer arithmetic: 0.9 *. 100. is 90.00000000000001 in
   floating point, which would round the rank up and miss a sample *)
let beyond ~p n =
  let pm = int_of_float (Float.round (p *. 1000.)) in
  n - (((pm * n) + 999) / 1000)

let tail n = List.find_opt (fun p -> beyond ~p n >= 10) ladder

let pct_name p =
  let s = Printf.sprintf "%g" (p *. 100.) in
  "p" ^ s

let tail_note n =
  Printf.sprintf "n=%d, tail rule picks %s" n
    (match tail n with Some p -> pct_name p | None -> "none")
