type t = {
  id : int;
  name : string;
  parent : int;
  request : string;
  start_s : float;
  stop_s : float;
  minor_words : float;
}

(* one domain, one recorder: the benchmark never runs cells in parallel *)
let on = ref false
let closed = ref []
let next_id = ref 0
let current = ref (-1)
let current_request = ref ""

let start () =
  on := true;
  closed := [];
  next_id := 0;
  current := -1;
  current_request := ""

let stop () =
  on := false;
  List.sort (fun a b -> compare a.id b.id) !closed

let recording () = !on

let with_ ?request name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current and outer_request = !current_request in
    Option.iter (fun r -> current_request := r) request;
    let req = !current_request in
    current := id;
    let w0 = Gc.minor_words () in
    let t0 = Core.Clock.now_s () in
    let finish () =
      let t1 = Core.Clock.now_s () in
      let w1 = Gc.minor_words () in
      current := parent;
      current_request := outer_request;
      closed :=
        { id; name; parent; request = req; start_s = t0; stop_s = t1;
          minor_words = w1 -. w0 }
        :: !closed
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec merge acc (a, b) = function
    | [] -> acc +. (b -. a)
    | (a', b') :: rest ->
      if a' <= b then merge acc (a, Float.max b b') rest
      else merge (acc +. (b -. a)) (a', b') rest
  in
  match clipped with [] -> 0. | first :: rest -> merge 0. first rest

let self_times spans =
  let n = List.fold_left (fun m s -> max m (s.id + 1)) 0 spans in
  let children = Array.make n [] in
  List.iter
    (fun s -> if s.parent >= 0 then children.(s.parent) <- s :: children.(s.parent))
    spans;
  List.map
    (fun s ->
      let kids = children.(s.id) in
      let self_s =
        s.stop_s -. s.start_s
        -. covered ~lo:s.start_s ~hi:s.stop_s
             (List.map (fun c -> (c.start_s, c.stop_s)) kids)
      in
      let self_words =
        List.fold_left (fun w c -> w -. c.minor_words) s.minor_words kids
      in
      (s, self_s, self_words))
    spans
