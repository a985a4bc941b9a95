(* The observability layer: a domain-safe registry of counters, gauges
   and observation series for harness self-telemetry, plus per-cell
   distribution summaries recorded by [Exec] after every campaign grid.

   Two invariants keep the [--metrics] artifact useful as a regression
   gate:

   - determinism: a cell's JSON is a pure function of its spec and
     outcome, itself a pure function of the spec, so the artifact is
     byte-identical for any [--jobs] and for cache hits vs fresh
     executions. Volatile telemetry (wall time, cache hits) lives only
     in the registry and the stderr health summary, never in the
     artifact.

   - schema stability: the artifact carries a version tag; [compare]
     refuses unknown versions instead of mis-reading them. *)

(* ---- distribution summaries --------------------------------------------- *)

type dist = {
  d_n : int;
  d_mean : float;
  d_stddev : float;
  d_p5 : float;
  d_p25 : float;
  d_p50 : float;
  d_p75 : float;
  d_p95 : float;
  d_p99 : float;
  d_ci_lo : float;
  d_ci_hi : float;
}

(* the bootstrap reseeds from the cell fingerprint and the metric name,
   so the interval is a pure function of the data — the artifact stays
   byte-identical whatever domain computed it *)
let dist ~seed xs =
  let ci_lo, ci_hi = Stats.bootstrap_ci ~seed Stats.median xs in
  match Stats.percentiles [ 0.05; 0.25; 0.5; 0.75; 0.95; 0.99 ] xs with
  | [ p5; p25; p50; p75; p95; p99 ] ->
    { d_n = List.length xs;
      d_mean = Stats.mean xs;
      d_stddev = Stats.stddev xs;
      d_p5 = p5;
      d_p25 = p25;
      d_p50 = p50;
      d_p75 = p75;
      d_p95 = p95;
      d_p99 = p99;
      d_ci_lo = ci_lo;
      d_ci_hi = ci_hi }
  | _ -> assert false

(* ---- the cell encoders ---------------------------------------------------- *)

(* Each cell kind is encoded straight from its outcome: this section is
   the artifact schema. Every bootstrap reseeds from [id ^ "/" ^ name],
   so a cell's JSON is a pure function of its spec and outcome. *)

let dist_json ~id name xs =
  let d = dist ~seed:(id ^ "/" ^ name) xs in
  Json.Obj
    [ ("n", Json.Int d.d_n);
      ("mean", Json.Float d.d_mean);
      ("stddev", Json.Float d.d_stddev);
      ("p5", Json.Float d.d_p5);
      ("p25", Json.Float d.d_p25);
      ("p50", Json.Float d.d_p50);
      ("p75", Json.Float d.d_p75);
      ("p95", Json.Float d.d_p95);
      ("p99", Json.Float d.d_p99);
      ("ci95_lo", Json.Float d.d_ci_lo);
      ("ci95_hi", Json.Float d.d_ci_hi) ]

let json_of_ledger l =
  Json.Obj (List.map (fun (lib, share) -> (lib, Json.Float share)) l)

(* identity keys, then either the failure or the data block *)
let cell_json identity result data =
  Json.Obj
    (identity
    @
    match result with
    | Error msg -> [ ("error", Json.String msg); ("data", Json.Null) ]
    | Ok o -> [ ("data", Json.Obj (data o)) ])

let buffering_name = function
  | Tls.Config.Optimized_push -> "push"
  | Tls.Config.Default_buffered -> "buffered"

(* a cell is "standard" when everything except kem/sig/scenario/
   buffering/seed sits at the [Experiment.spec] defaults — exactly the
   shape of the paper's Table 2 / Table 4 campaigns, and the only cells
   [against_paper] may judge. Fingerprints compare the specs without
   touching the closure-bearing algorithm values. *)
let is_standard (sp : Experiment.spec) =
  let rebuilt =
    Experiment.spec ~buffering:sp.Experiment.sp_buffering
      ~scenario:sp.Experiment.sp_scenario ~seed:sp.Experiment.sp_seed
      ~real_crypto:sp.Experiment.sp_real_crypto sp.Experiment.sp_kem
      sp.Experiment.sp_sig
  in
  String.equal
    (Experiment.spec_fingerprint rebuilt)
    (Experiment.spec_fingerprint sp)

(* the per-population split of a mixed-workload cell (Table 6): a null
   dist means the mix's coin never produced that population within the
   sample budget *)
let resumption_json ~id samples =
  let resumed, full = List.partition (fun s -> s.Experiment.resumed) samples in
  let sub name subset f =
    match subset with
    | [] -> Json.Null
    | _ -> dist_json ~id name (List.map f subset)
  in
  let total s = s.Experiment.total_ms in
  let server_bytes s = float_of_int s.Experiment.server_bytes in
  Json.Obj
    [ ("resumed_n", Json.Int (List.length resumed));
      ("full_n", Json.Int (List.length full));
      ( "early_data_bytes",
        Json.Int
          (List.fold_left
             (fun acc s -> acc + s.Experiment.early_data_bytes)
             0 samples) );
      ("resumed_total_ms", sub "resumed_total" resumed total);
      ("full_total_ms", sub "full_total" full total);
      ("resumed_server_bytes", sub "resumed_server_bytes" resumed server_bytes);
      ("full_server_bytes", sub "full_server_bytes" full server_bytes) ]

let chain_json levels =
  let wire = List.fold_left (fun acc (_, _, b, _) -> acc + b) 0 levels in
  let cpu = List.fold_left (fun acc (_, _, _, ms) -> acc +. ms) 0. levels in
  Json.Obj
    [ ("wire_bytes", Json.Int wire);
      ("verify_ms", Json.Float cpu);
      ( "levels",
        Json.List
          (List.map
             (fun (name, issuer, bytes, verify_ms) ->
               Json.Obj
                 [ ("level", Json.String name);
                   ("issuer_sa", Json.String issuer);
                   ("bytes", Json.Int bytes);
                   ("verify_ms", Json.Float verify_ms) ])
             levels) ) ]

(* The "mix" and "chain" identity keys and the "resumption" and "chain"
   data blocks exist only for non-full mixes and non-default chain
   profiles, so artifacts of cells without them stay byte-identical
   under schema /1. *)
let standard_cell_json ~id ~key (sp : Experiment.spec) result =
  let mix = sp.Experiment.sp_mix.Mix.name in
  let chain = sp.Experiment.sp_chain.Tls.Chain_profile.name in
  let data (o : Experiment.outcome) =
    let samples = o.Experiment.samples in
    let d name f = dist_json ~id name (List.map f samples) in
    let di name f = d name (fun s -> float_of_int (f s)) in
    let sum f = Json.Int (List.fold_left (fun acc s -> acc + f s) 0 samples) in
    [ ("handshakes_per_minute", Json.Int o.Experiment.handshakes_per_minute);
      ( "latency_ms",
        Json.Obj
          [ ("part_a", d "part_a" (fun s -> s.Experiment.part_a_ms));
            ("part_b", d "part_b" (fun s -> s.Experiment.part_b_ms));
            ("total", d "total" (fun s -> s.Experiment.total_ms));
            ("iteration", d "iteration" (fun s -> s.Experiment.iteration_ms)) ]
      );
      ( "wire",
        Json.Obj
          [ ("client_bytes", di "client_bytes" (fun s -> s.Experiment.client_bytes));
            ("server_bytes", di "server_bytes" (fun s -> s.Experiment.server_bytes));
            ("client_pkts", di "client_pkts" (fun s -> s.Experiment.client_pkts));
            ("server_pkts", di "server_pkts" (fun s -> s.Experiment.server_pkts));
            ("retransmissions", sum (fun s -> s.Experiment.retransmissions));
            ("fast_retx", sum (fun s -> s.Experiment.fast_retransmissions));
            ("timeout_retx", sum (fun s -> s.Experiment.timeout_retransmissions));
            ("rtt_samples", sum (fun s -> s.Experiment.rtt_samples)) ] );
      ( "cpu",
        Json.Obj
          [ ("client_ms", Json.Float o.Experiment.client_cpu_ms);
            ("server_ms", Json.Float o.Experiment.server_cpu_ms);
            ("client_charges", Json.Int o.Experiment.client_cpu_charges);
            ("server_charges", Json.Int o.Experiment.server_cpu_charges);
            ("client_ledger", json_of_ledger o.Experiment.client_ledger);
            ("server_ledger", json_of_ledger o.Experiment.server_ledger) ] ) ]
    @ (if o.Experiment.mix_name = "full" then []
       else [ ("resumption", resumption_json ~id samples) ])
    @
    if chain = "default" then []
    else [ ("chain", chain_json o.Experiment.chain_levels) ]
  in
  cell_json
    ([ ("id", Json.String id);
       ("key", Json.String key);
       ("kem", Json.String sp.Experiment.sp_kem.Pqc.Kem.name);
       ("sig", Json.String sp.Experiment.sp_sig.Pqc.Sigalg.name);
       ("scenario", Json.String sp.Experiment.sp_scenario.Scenario.name) ]
    @ (if mix = "full" then [] else [ ("mix", Json.String mix) ])
    @ (if chain = "default" then [] else [ ("chain", Json.String chain) ])
    @ [ ("buffering", Json.String (buffering_name sp.Experiment.sp_buffering));
        ("standard", Json.Bool (is_standard sp)) ])
    result data

let farm_cell_json ~id ~key (sp : Experiment.farm_spec) result =
  let data (o : Experiment.farm_outcome) =
    let lat = o.Experiment.fo_latencies_ms in
    let p99_lo, p99_hi =
      Stats.bootstrap_ci ~seed:(id ^ "/p99") (Stats.percentile 0.99) lat
    in
    [ ( "load",
        Json.Obj
          [ ("capacity_hs_s", Json.Float o.Experiment.fo_capacity_hs_s);
            ("offered_rate_hs_s", Json.Float o.Experiment.fo_offered_rate);
            ("window_s", Json.Float o.Experiment.fo_window_s);
            ("offered", Json.Int o.Experiment.fo_offered);
            ("completed", Json.Int o.Experiment.fo_completed);
            ("dropped", Json.Int o.Experiment.fo_dropped);
            ("unfinished", Json.Int o.Experiment.fo_unfinished) ] );
      ( "latency_ms",
        Json.Obj
          [ ("handshake", dist_json ~id "latency" lat);
            ("p999", Json.Float (Stats.percentile 0.999 lat));
            ("p99_ci95_lo", Json.Float p99_lo);
            ("p99_ci95_hi", Json.Float p99_hi);
            ("accept_wait", dist_json ~id "wait" o.Experiment.fo_wait_ms) ] );
      ( "servers",
        Json.Obj
          [ ("cpu_ms", Json.Float o.Experiment.fo_server_cpu_ms);
            ("busy", Json.Float o.Experiment.fo_server_busy);
            ("ledger", json_of_ledger o.Experiment.fo_server_ledger);
            ( "completed",
              Json.List
                (List.map
                   (fun n -> Json.Int n)
                   o.Experiment.fo_per_server_completed) ) ] );
      ( "adversarial",
        Json.Obj
          [ ("launched", Json.Int o.Experiment.fo_adv_launched);
            ("completed", Json.Int o.Experiment.fo_adv_completed);
            ("adv_client_bytes", Json.Int o.Experiment.fo_adv_client_bytes);
            ("adv_server_bytes", Json.Int o.Experiment.fo_adv_server_bytes);
            ("benign_client_bytes", Json.Int o.Experiment.fo_benign_client_bytes);
            ("benign_server_bytes", Json.Int o.Experiment.fo_benign_server_bytes)
          ] );
      ( "calibration",
        Json.Obj
          [ ("client_cpu_ms", Json.Float o.Experiment.fo_cal_client_cpu_ms);
            ("server_cpu_ms", Json.Float o.Experiment.fo_cal_server_cpu_ms);
            ("adv_server_cpu_ms", Json.Float o.Experiment.fo_cal_adv_server_cpu_ms)
          ] ) ]
  in
  cell_json
    [ ("id", Json.String id);
      ("key", Json.String key);
      ("kem", Json.String sp.Experiment.fa_kem.Pqc.Kem.name);
      ("sig", Json.String sp.Experiment.fa_sig.Pqc.Sigalg.name);
      ("scenario", Json.String sp.Experiment.fa_scenario.Scenario.name);
      ("profile", Json.String sp.Experiment.fa_profile);
      ("policy", Json.String sp.Experiment.fa_policy);
      ("utilization", Json.Float sp.Experiment.fa_utilization);
      ("adv_fraction", Json.Float sp.Experiment.fa_adv_fraction) ]
    result data

(* ---- the registry -------------------------------------------------------- *)

type t = {
  mu : Mutex.t;
  counters : (string, int) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
  series : (string, float list) Hashtbl.t; (* newest first *)
  seen : (string, unit) Hashtbl.t; (* cell fingerprints already recorded *)
  labels : (string, int) Hashtbl.t; (* spec_label -> occurrences *)
  mutable cells_rev : Json.t list;
  mutable farm_cells_rev : Json.t list;
  mutable experiments_rev : string list;
}

let create () =
  { mu = Mutex.create ();
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 8;
    series = Hashtbl.create 8;
    seen = Hashtbl.create 64;
    labels = Hashtbl.create 64;
    cells_rev = [];
    farm_cells_rev = [];
    experiments_rev = [] }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let incr ?(by = 1) t name =
  locked t (fun () ->
      Hashtbl.replace t.counters name
        (by + Option.value ~default:0 (Hashtbl.find_opt t.counters name)))

let counter t name =
  locked t (fun () ->
      Option.value ~default:0 (Hashtbl.find_opt t.counters name))

let set_gauge t name v =
  locked t (fun () -> Hashtbl.replace t.gauges name v)

let gauge t name = locked t (fun () -> Hashtbl.find_opt t.gauges name)

let observe t name v =
  locked t (fun () ->
      Hashtbl.replace t.series name
        (v :: Option.value ~default:[] (Hashtbl.find_opt t.series name)))

let observations t name =
  locked t (fun () ->
      List.rev (Option.value ~default:[] (Hashtbl.find_opt t.series name)))

let note_experiment t name =
  locked t (fun () ->
      if not (List.mem name t.experiments_rev) then
        t.experiments_rev <- name :: t.experiments_rev)

(* Called by [Exec]'s runner once per grid, in spec order, from the
   coordinating domain — so recording order (and thus the artifact) is
   independent of [jobs]. Re-run cells (same fingerprint) keep their
   first recording; grids that share cells stay deduplicated. Both cell
   kinds share one [seen] / [labels] pair: fingerprints never collide
   across kinds (the farm tag differs), and neither do label formats.
   [add key] records the cell under its disambiguated key; it runs only
   for first recordings, so duplicates never pay for a bootstrap. *)
let record_once t ~id ~label add =
  locked t (fun () ->
      if not (Hashtbl.mem t.seen id) then begin
        Hashtbl.add t.seen id ();
        let occurrences =
          Option.value ~default:0 (Hashtbl.find_opt t.labels label)
        in
        Hashtbl.replace t.labels label (occurrences + 1);
        (* ablation grids reuse labels (same pair, different knob):
           disambiguate later occurrences deterministically *)
        add
          (if occurrences = 0 then label
           else Printf.sprintf "%s#%d" label (occurrences + 1))
      end)

let record_cell t (sp : Experiment.spec) result =
  let id = Experiment.spec_fingerprint sp in
  record_once t ~id ~label:(Experiment.spec_label sp) (fun key ->
      t.cells_rev <- standard_cell_json ~id ~key sp result :: t.cells_rev)

let record_farm_cell t (sp : Experiment.farm_spec) result =
  let id = Experiment.farm_spec_fingerprint sp in
  record_once t ~id ~label:(Experiment.farm_spec_label sp) (fun key ->
      t.farm_cells_rev <- farm_cell_json ~id ~key sp result :: t.farm_cells_rev)

let cell_count t =
  locked t (fun () ->
      List.length t.cells_rev + List.length t.farm_cells_rev)

(* ---- the artifact -------------------------------------------------------- *)

let schema_version = "pqtls-bench-metrics/1"

type artifact = Json.t

let artifact t ~seed =
  locked t (fun () ->
      Json.Obj
        ([ ("schema", Json.String schema_version);
           ("seed", Json.String seed);
           ( "experiments",
             Json.List
               (List.rev_map (fun e -> Json.String e) t.experiments_rev) );
           ("cells", Json.List (List.rev t.cells_rev)) ]
        (* only farm campaigns carry the key: artifacts of the other
           campaigns stay byte-identical under schema /1 *)
        @
        match t.farm_cells_rev with
        | [] -> []
        | fcs -> [ ("farm_cells", Json.List (List.rev fcs)) ]))

let to_json_string a = Json.to_string a

(* ---- the parsed (comparison) side ---------------------------------------- *)

type p_cell = {
  p_id : string;
  p_key : string;
  p_kem : string;
  p_sig : string;
  p_scenario : string;
  p_buffering : string; (* "" for farm cells *)
  p_standard : bool; (* false for farm cells *)
  p_error : string option;
  p_metrics : (string * float) list; (* flattened numeric leaves, in order *)
}

type p_artifact = {
  p_seed : string;
  p_experiments : string list;
  p_cells : p_cell list;
  p_farm_cells : p_cell list;
}

let rec flatten prefix j acc =
  let join k = if prefix = "" then k else prefix ^ "." ^ k in
  match j with
  | Json.Obj fields ->
    List.fold_left (fun acc (k, v) -> flatten (join k) v acc) acc fields
  | Json.List items ->
    List.fold_left
      (fun (acc, i) v -> (flatten (join (string_of_int i)) v acc, i + 1))
      (acc, 0) items
    |> fst
  | Json.Int n -> (prefix, float_of_int n) :: acc
  | Json.Float f -> (prefix, f) :: acc
  | Json.Null -> (prefix, nan) :: acc
  | Json.Bool _ | Json.String _ -> acc

let ( let* ) = Result.bind
let req what = Json.req "metrics artifact" what

(* one parser for both kinds; each still requires its own identity keys
   ([buffering]/[standard] for standard cells, [profile]/[policy] for
   farm cells) *)
let parse_cell ~farm j =
  let what k = (if farm then "farm cell " else "cell ") ^ k in
  let str k = req (what k) (Json.to_str (Json.member k j)) in
  let* id = str "id" in
  let* key = str "key" in
  let* kem = str "kem" in
  let* sig_ = str "sig" in
  let* scenario = str "scenario" in
  let* buffering, standard =
    if farm then
      let* _profile = str "profile" in
      let* _policy = str "policy" in
      Ok ("", false)
    else
      let* buffering = str "buffering" in
      let* standard =
        req (what "standard") (Json.to_bool (Json.member "standard" j))
      in
      Ok (buffering, standard)
  in
  Ok
    { p_id = id;
      p_key = key;
      p_kem = kem;
      p_sig = sig_;
      p_scenario = scenario;
      p_buffering = buffering;
      p_standard = standard;
      p_error = Json.to_str (Json.member "error" j);
      p_metrics =
        (match Json.member "data" j with
        | Some (Json.Obj _ as data) -> List.rev (flatten "data" data [])
        | _ -> []) }

let of_json_string s =
  let* j = Json.parse s in
  let* schema = req "schema" (Json.to_str (Json.member "schema" j)) in
  if schema <> schema_version then
    Error
      (Printf.sprintf "unsupported metrics schema %S (this build reads %S)"
         schema schema_version)
  else
    let* seed = req "seed" (Json.to_str (Json.member "seed" j)) in
    let* experiments = req "experiments" (Json.to_list (Json.member "experiments" j)) in
    let* experiments =
      Json.map_req (fun e -> req "experiment name" (Json.to_str (Some e))) experiments
    in
    let* cells = req "cells" (Json.to_list (Json.member "cells" j)) in
    let* cells = Json.map_req (parse_cell ~farm:false) cells in
    (* absent for every pre-farm artifact; never required *)
    let* farm_cells =
      match Json.member "farm_cells" j with
      | None -> Ok []
      | Some fj ->
        let* items = req "farm_cells" (Json.to_list (Some fj)) in
        Json.map_req (parse_cell ~farm:true) items
    in
    Ok
      { p_seed = seed;
        p_experiments = experiments;
        p_cells = cells;
        p_farm_cells = farm_cells }

(* ---- diffing two artifacts ----------------------------------------------- *)

let both_nan a b = Float.is_nan a && Float.is_nan b

let rel_delta a b =
  if both_nan a b || a = b then 0.
  else
    Float.abs (a -. b)
    /. Float.max (Float.max (Float.abs a) (Float.abs b)) 1e-9

let diff ?(rel_tol = 0.) base cand =
  let issues = ref [] in
  let issue fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  if base.p_seed <> cand.p_seed then
    issue "seed mismatch: %S vs %S" base.p_seed cand.p_seed;
  (* each kind's cells match on [p_id] within their own list *)
  let diff_cells base_cells cand_cells =
    let index cells =
      let h = Hashtbl.create (List.length cells) in
      List.iter (fun c -> Hashtbl.replace h c.p_id c) cells;
      h
    in
    let cand_index = index cand_cells and base_index = index base_cells in
    List.iter
      (fun b ->
        match Hashtbl.find_opt cand_index b.p_id with
        | None -> issue "%s: cell missing from candidate" b.p_key
        | Some c -> (
          match (b.p_error, c.p_error) with
          | Some _, Some _ -> () (* both failed; messages may differ *)
          | Some _, None -> issue "%s: failed in baseline, ok in candidate" b.p_key
          | None, Some _ -> issue "%s: ok in baseline, failed in candidate" b.p_key
          | None, None ->
            let cm = Hashtbl.create (List.length c.p_metrics) in
            List.iter (fun (k, v) -> Hashtbl.replace cm k v) c.p_metrics;
            List.iter
              (fun (k, bv) ->
                match Hashtbl.find_opt cm k with
                | None -> issue "%s: metric %s missing from candidate" b.p_key k
                | Some cv ->
                  let rel = rel_delta bv cv in
                  if not (rel <= rel_tol) then
                    issue "%s: %s %s vs %s (%.2f%% apart, tol %.2f%%)" b.p_key k
                      (Json.float_repr bv) (Json.float_repr cv) (100. *. rel)
                      (100. *. rel_tol))
              b.p_metrics;
            List.iter
              (fun (k, _) ->
                if not (List.mem_assoc k b.p_metrics) then
                  issue "%s: metric %s missing from baseline" b.p_key k)
              c.p_metrics))
      base_cells;
    List.iter
      (fun c ->
        if not (Hashtbl.mem base_index c.p_id) then
          issue "%s: cell missing from baseline" c.p_key)
      cand_cells
  in
  diff_cells base.p_cells cand.p_cells;
  diff_cells base.p_farm_cells cand.p_farm_cells;
  List.rev !issues

(* ---- the paper-drift gate ------------------------------------------------ *)

(* the same relative-error form as the calibration tests in
   test/test_core.ml: small paper values are floored at 0.05 ms so a
   0.01 ms absolute slip on a 0.2 ms cell doesn't read as 5 % drift *)
let paper_rel ~paper sim = Float.abs (sim -. paper) /. Float.max paper 0.05

(* tolerances track test_core.ml's calibration assertions for Table 2;
   Table 4 medians under loss/jitter scenarios carry more spread (the
   paper's own numbers include outliers like p256 @ lte-m), so the gate
   is looser there *)
let tol_t2_latency = 0.30
let tol_t2a_bytes = 0.10
let tol_t2b_server_bytes = 0.25

(* handshakes/min goes as the reciprocal of the iteration time, so a
   latency within the 30 % band can move the count by up to
   0.30 / (1 - 0.30) = 43 % — the count band must be at least that *)
let tol_t2_count = 0.45
let tol_t4 = 0.45

(* only the deterministic impairments are gated: the bandwidth and
   delay medians are pinned by serialization time and the RTT, and the
   simulator tracks the paper well inside the band. The random-loss
   columns (loss, lte-m, 5g) reproduce the paper's *qualitative*
   findings (see test_core.ml) but not its medians — large-flight rows
   like SPHINCS+ under 10 % loss land 5-10x away in either direction,
   as do several of the paper's own internally inconsistent loss cells
   — so gating them would mean tolerances too wide to catch drift *)
let t4_col (r : Paper_data.t4_row) = function
  | "bandwidth" -> Some r.Paper_data.bandwidth
  | "delay" -> Some r.Paper_data.delay
  | _ -> None

let against_paper a =
  let checked = ref 0 in
  let issues = ref [] in
  let check c ~tol ~what ~paper sim =
    if not (Float.is_nan paper) then begin
      Stdlib.incr checked;
      let rel = paper_rel ~paper sim in
      if not (rel <= tol) then
        issues :=
          Printf.sprintf "%s: %s sim %.4g vs paper %.4g (%.0f%% off, tol %.0f%%)"
            c.p_key what sim paper (100. *. rel) (100. *. tol)
          :: !issues
    end
  in
  let get c name = Option.value ~default:nan (List.assoc_opt name c.p_metrics) in
  List.iter
    (fun c ->
      if c.p_standard && c.p_buffering = "push" && c.p_error = None then begin
        (match
           if c.p_sig = "rsa:2048" && c.p_scenario = "none" then
             Paper_data.find2a c.p_kem
           else None
         with
        | Some r ->
          check c ~tol:tol_t2_latency ~what:"part A p50 (Table 2a)"
            ~paper:r.Paper_data.part_a
            (get c "data.latency_ms.part_a.p50");
          check c ~tol:tol_t2_latency ~what:"part B p50 (Table 2a)"
            ~paper:r.Paper_data.part_b
            (get c "data.latency_ms.part_b.p50");
          check c ~tol:tol_t2_count ~what:"handshakes/min (Table 2a)"
            ~paper:(r.Paper_data.total_k *. 1000.)
            (get c "data.handshakes_per_minute");
          check c ~tol:tol_t2a_bytes ~what:"client bytes p50 (Table 2a)"
            ~paper:(float_of_int r.Paper_data.client_b)
            (get c "data.wire.client_bytes.p50");
          check c ~tol:tol_t2a_bytes ~what:"server bytes p50 (Table 2a)"
            ~paper:(float_of_int r.Paper_data.server_b)
            (get c "data.wire.server_bytes.p50")
        | None -> ());
        (match
           if c.p_kem = "x25519" && c.p_scenario = "none" then
             Paper_data.find2b c.p_sig
           else None
         with
        | Some r ->
          check c ~tol:tol_t2_latency ~what:"part B p50 (Table 2b)"
            ~paper:r.Paper_data.part_b
            (get c "data.latency_ms.part_b.p50");
          check c ~tol:tol_t2b_server_bytes ~what:"server bytes p50 (Table 2b)"
            ~paper:(float_of_int r.Paper_data.server_b)
            (get c "data.wire.server_bytes.p50")
        | None -> ());
        (match
           if c.p_scenario = "none" then None
           else if c.p_sig = "rsa:2048" then
             Option.bind (Paper_data.find4a c.p_kem) (fun r ->
                 Option.map (fun v -> ("Table 4a", v)) (t4_col r c.p_scenario))
           else if c.p_kem = "x25519" then
             Option.bind (Paper_data.find4b c.p_sig) (fun r ->
                 Option.map (fun v -> ("Table 4b", v)) (t4_col r c.p_scenario))
           else None
         with
        | Some (table, paper) ->
          check c ~tol:tol_t4
            ~what:(Printf.sprintf "total p50 (%s, %s)" table c.p_scenario)
            ~paper
            (get c "data.latency_ms.total.p50")
        | None -> ())
      end)
    a.p_cells;
  (!checked, List.rev !issues)
