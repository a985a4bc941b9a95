(* linear interpolation between the order statistics around each p, over
   one shared sort; [who] names the caller in the empty-input error *)
let interpolate who ps xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg (who ^ ": empty")
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    List.map
      (fun p ->
        if n = 1 then a.(0)
        else begin
          let pos = p *. float_of_int (n - 1) in
          let lo = int_of_float (Float.floor pos) in
          let hi = min (n - 1) (lo + 1) in
          let frac = pos -. float_of_int lo in
          a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
        end)
      ps

let percentiles ps xs = interpolate "Stats.percentiles" ps xs
let percentile p xs = List.hd (interpolate "Stats.percentile" [ p ] xs)

let median xs = percentile 0.5 xs

let mean = function
  | [] -> invalid_arg "Stats.mean: empty"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty"
  | x :: rest ->
    List.fold_left (fun (lo, hi) v -> (Float.min lo v, Float.max hi v)) (x, x) rest

let median_int xs = median (List.map float_of_int xs)

let stddev = function
  | [] -> invalid_arg "Stats.stddev: empty"
  | [ _ ] -> 0.
  | xs ->
    let m = mean xs in
    let n = float_of_int (List.length xs) in
    sqrt
      (List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs
      /. (n -. 1.))

let bootstrap_ci ?(resamples = 200) ?(confidence = 0.95) ~seed stat = function
  | [] -> invalid_arg "Stats.bootstrap_ci: empty"
  | [ x ] ->
    let v = stat [ x ] in
    (v, v)
  | xs ->
    let a = Array.of_list xs in
    let n = Array.length a in
    let rng = Crypto.Drbg.create ~seed:("stats-bootstrap/" ^ seed) in
    let stats =
      List.init resamples (fun _ ->
          stat (List.init n (fun _ -> a.(Crypto.Drbg.uniform rng n))))
    in
    let alpha = (1. -. confidence) /. 2. in
    match percentiles [ alpha; 1. -. alpha ] stats with
    | [ lo; hi ] -> (lo, hi)
    | _ -> assert false
