type metric = { name : string; value : float; unit_ : string }

type result = {
  checks : (string * bool) list;
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;
  notes : string list;
  spans : Span.t list;
}

let now = Core.Clock.now_s
let ms_since t0 = (now () -. t0) *. 1000.

(* the median of five damps one-off stalls; the first set-up also pays
   lazy initialisation, which the median leaves out *)
let setup_repeats = 5

let setup ~startup_s f =
  let runs =
    List.init setup_repeats (fun i ->
        let t0 = now () in
        let state, cred_ms = f ~first:(i = 0) in
        (state, now () -. t0, cred_ms))
  in
  let state = match runs with (s, _, _) :: _ -> s | [] -> assert false in
  let walls = List.map (fun (_, s, _) -> s) runs in
  let setup_s = startup_s +. Stat.median walls in
  let note =
    Printf.sprintf "setup_s %.2f ms: start-up %.2f ms + median of set-ups [%s] ms"
      (setup_s *. 1000.) (startup_s *. 1000.)
      (String.concat "; " (List.map (fun w -> Printf.sprintf "%.2f" (w *. 1000.)) walls))
  in
  (state, setup_s, Stat.median (List.map (fun (_, _, c) -> c) runs), note)

let credentials ~first algs =
  let t0 = now () in
  List.iter
    (fun (a : Pqc.Sigalg.t) ->
      if first then ignore (Tls.Credentials.get a)
      else
        (* Credentials.get's own seed for the default chain profile *)
        let key = a.name ^ if a.mocked then "#mocked" else "" in
        ignore
          (Tls.Chain.make Tls.Chain_profile.default ~leaf:a
             (Crypto.Drbg.create ~seed:("credentials/" ^ key))))
    algs;
  ms_since t0

let fill ~seconds ~since pass =
  let rec go acc last =
    if now () -. since +. last <= seconds then begin
      let d = pass () in
      go (d :: acc) d
    end
    else List.rev acc
  in
  let d = pass () in
  go [ d ] d

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let strip results = List.map (Result.map_error ignore) results
let outcomes cells = strip (List.map fst cells)

let sha256_hex s = Crypto.Bytesx.to_hex (Crypto.Sha256.digest s)

type counts = {
  handshakes : int;
  executed : int;
  lookups : int;
  stores : int;
  records : int;
  farm_records : int;
  artifacts : int;
  packets : int;
  retransmissions : int;
  host_charges : int;
  credentials_ms : float;
  cached_cells_per_s : float;
  retried : int;
  exec_failed : int;
  units_attempted : int;
  units_failed : int;
  untraced_s : float;
  traced_s : float;
}

type agg = { calls : int; total_s : float; self_s : float; self_words : float }

let zero = { calls = 0; total_s = 0.; self_s = 0.; self_words = 0. }

let aggregate spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun ((s : Span.t), self_s, self_words) ->
      let a = Option.value ~default:zero (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name
        { calls = a.calls + 1;
          total_s = a.total_s +. (s.stop_s -. s.start_s);
          self_s = a.self_s +. self_s;
          self_words = a.self_words +. self_words })
    (Span.self_times spans);
  (* sorted, so nothing downstream depends on hash order *)
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare

(* per-unit average; a layer the workload never reached reads 0 *)
let per n x = if n = 0 then 0. else x /. float_of_int n
let ratio num den = if den = 0. then 0. else num /. den

(* the spans each workload's crypto runs inside: the share of their time
   spent in pqc is the "mocks are most of a cell" sizing *)
let pqc_containers =
  [ "experiment.run_spec"; "experiment.run_farm_spec"; "handshake" ]

(* the root span of every request: its self time is the benchmark's own
   glue between the calls it makes into the program *)
let roots = [ "cell"; "farm_cell"; "handshake" ]

let per_layer spans c =
  let aggs = aggregate spans in
  let get name = Option.value ~default:zero (List.assoc_opt name aggs) in
  let sum f names = List.fold_left (fun acc n -> acc +. f (get n)) 0. names in
  let m name value unit_ = { name; value; unit_ } in
  let h = c.handshakes in
  let op_ms op = m (op ^ "_ms") (per h ((get op).total_s *. 1000.)) "ms" in
  let experiment = [ "experiment.run_spec"; "experiment.run_farm_spec" ] in
  let self_total =
    List.fold_left (fun acc (_, a) -> acc +. a.self_s) 0. aggs
  in
  List.map op_ms Wrap.ops
  @ [ m "pqc.calls" (per h (sum (fun a -> float_of_int a.calls) Wrap.ops)) "count";
      m "pqc.minor_words" (per h (sum (fun a -> a.self_words) Wrap.ops)) "words";
      m "experiment.self_ms"
        (per c.executed (sum (fun a -> a.self_s) experiment *. 1000.))
        "ms";
      m "experiment.minor_words"
        (per c.executed (sum (fun a -> a.self_words) experiment))
        "words";
      m "netsim.engine_self_ms"
        (per h ((get "netsim.engine_run").self_s *. 1000.))
        "ms";
      m "netsim.minor_words" (per h (get "netsim.engine_run").self_words) "words";
      m "netsim.packets" (per h (float_of_int c.packets)) "count";
      m "netsim.retransmissions" (per h (float_of_int c.retransmissions)) "count";
      m "netsim.host_charges" (per h (float_of_int c.host_charges)) "count";
      m "tls.credentials_ms" c.credentials_ms "ms";
      m "result_cache.find_ms"
        (per c.lookups ((get "result_cache.find").total_s *. 1000.))
        "ms";
      m "result_cache.store_ms"
        (per c.stores ((get "result_cache.store").total_s *. 1000.))
        "ms";
      m "result_cache.hit_ratio"
        (per c.lookups (float_of_int (c.lookups - c.stores)))
        "ratio";
      m "result_cache.cached_cells_per_s" c.cached_cells_per_s "1/s";
      m "metrics.record_cell_ms"
        (per c.records ((get "metrics.record_cell").total_s *. 1000.))
        "ms";
      m "metrics.record_farm_cell_ms"
        (per c.farm_records ((get "metrics.record_farm_cell").total_s *. 1000.))
        "ms";
      m "metrics.artifact_ms"
        (per c.artifacts ((get "metrics.artifact").total_s *. 1000.))
        "ms";
      m "bench.self_ms"
        (ratio
           (sum (fun a -> a.self_s) roots *. 1000.)
           (sum (fun a -> float_of_int a.calls) roots))
        "ms";
      m "exec.retried" (float_of_int c.retried) "count";
      m "exec.failed" (float_of_int c.exec_failed) "count";
      m "failed_ratio" (per c.units_attempted (float_of_int c.units_failed)) "ratio";
      m "trace.overhead_ms" ((c.traced_s -. c.untraced_s) *. 1000.) "ms";
      m "trace.coverage" (ratio self_total c.traced_s) "ratio" ]

let layer_summary spans ~traced_s ~untraced_s =
  let aggs =
    aggregate spans
    |> List.sort (fun (_, a) (_, b) -> compare b.self_s a.self_s)
  in
  let total name =
    match List.assoc_opt name aggs with Some a -> a.total_s | None -> 0.
  in
  let self_total = List.fold_left (fun acc (_, a) -> acc +. a.self_s) 0. aggs in
  Printf.sprintf "pqc closures: %.1f%% of the time inside %s"
    (100.
    *. ratio
         (List.fold_left (fun acc n -> acc +. total n) 0. Wrap.ops)
         (List.fold_left (fun acc n -> acc +. total n) 0. pqc_containers))
    (String.concat " / " pqc_containers)
  :: Printf.sprintf
    "traced wall %.3f s, untraced %.3f s: overhead %.3f s; span self \
     times sum to %.3f s, minus overhead %.3f s"
    traced_s untraced_s (traced_s -. untraced_s) self_total
    (self_total -. (traced_s -. untraced_s))
  :: Printf.sprintf "%-28s %8s %11s %7s %14s" "span" "calls" "self ms" "share"
    "self words"
  :: List.map
       (fun (name, a) ->
         Printf.sprintf "%-28s %8d %11.1f %6.1f%% %14.0f" name a.calls
           (a.self_s *. 1000.)
           (100. *. ratio a.self_s traced_s)
           a.self_words)
       aggs
