(* The Table 5 capacity grid through Core.Exec.farm_cells, one cell at a
   time: thousands of concurrent simulated connections per engine, open
   loop in virtual time, and the farm-only Farm/Balancer/Workload and
   Metrics.record_farm_cell path. *)

open Common

(* what Table 5's campaign notes, so the artifact reads like its own *)
let experiment = "farm"

(* SHA-256 of the artifact at the default seed *)
let recorded_digest =
  "781d4aee232cdd92ee7793eb4c566eab42cd4b7ed3c0d7121b3300ef4d8c17c8"

type state = { specs : Core.Experiment.farm_spec list; program_seed : string }

let prepare ~seed ~first =
  let program_seed = Grid.farm_seed seed in
  let kem name = Wrap.kem (Pqc.Kem.mocked (Pqc.Registry.find_kem name)) in
  let sa name = Wrap.sigalg (Pqc.Sigalg.mocked (Pqc.Registry.find_sig name)) in
  let sas = List.map (fun (_, s) -> (s, sa s)) Grid.farm_pairs in
  let specs =
    List.map
      (fun ((k, s), profile) ->
        Core.Experiment.farm_spec ~seed:program_seed ~profile ~servers:3
          ~duration_s:1.0 ~max_connections:1200 (kem k) (List.assoc s sas))
      (Grid.farm seed)
  in
  ({ specs; program_seed }, credentials ~first (List.map snd sas))

type pass = {
  wall_s : float;
  cells : (Core.Exec.farm_cell_result * float) list;
  artifact : string;
  ctx : Core.Exec.t;
}

let pass st =
  let t0 = now () in
  let ctx = Core.Exec.create ~jobs:1 () in
  Core.Metrics.note_experiment ctx.metrics experiment;
  let cells =
    List.map
      (fun spec ->
        let t = now () in
        match Core.Exec.farm_cells ctx [ spec ] with
        | [ r ] -> (r, ms_since t)
        | _ -> assert false)
      st.specs
  in
  let artifact =
    Core.Metrics.to_json_string
      (Core.Metrics.artifact ctx.metrics ~seed:st.program_seed)
  in
  { wall_s = now () -. t0; cells; artifact; ctx }

(* the calls Exec.farm_cells makes at jobs = 1 without a cache *)
let traced_pass st =
  let metrics = Core.Metrics.create () in
  Core.Metrics.note_experiment metrics experiment;
  let cells =
    List.map
      (fun spec ->
        Span.with_ ~request:(Core.Experiment.farm_spec_fingerprint spec)
          "farm_cell" (fun () ->
            let r =
              match
                Span.with_ "experiment.run_farm_spec" (fun () ->
                    Core.Experiment.run_farm_spec spec)
              with
              | o -> Ok o
              | exception e -> Error (Printexc.to_string e)
            in
            Span.with_ "metrics.record_farm_cell" (fun () ->
                Core.Metrics.record_farm_cell metrics spec r);
            r))
      st.specs
  in
  let artifact =
    Span.with_ "metrics.artifact" (fun () ->
        Core.Metrics.to_json_string
          (Core.Metrics.artifact metrics ~seed:st.program_seed))
  in
  (cells, artifact)

let run ~seed ~seconds ~trace ~workdir:_ ~startup_s =
  let st, setup_s, cred_ms, setup_note = setup ~startup_s (prepare ~seed) in
  let ncells = List.length st.specs in
  let t0 = now () in
  (* later passes are checked against the first as they finish and then
     dropped, so the heap holds one pass whatever their number *)
  let first = ref None and cells_ms = ref [] and hs = ref 0 in
  let hs_ms = ref [] (* (pair, host ms per completed handshake) per cell *) in
  let failed = ref 0 and same = ref true and retried = ref 0
  and exec_failed = ref 0 in
  let walls =
    fill ~seconds ~since:t0 (fun () ->
        let p = pass st in
        (match !first with
        | None -> first := Some p
        | Some f ->
          same :=
            !same
            && compare (outcomes p.cells) (outcomes f.cells) = 0
            && p.artifact = f.artifact);
        List.iter
          (fun (r, ms) ->
            cells_ms := ms :: !cells_ms;
            match r with
            | Ok (o : Core.Experiment.farm_outcome) ->
              hs := !hs + o.fo_completed;
              hs_ms :=
                ( (o.fo_kem_name, o.fo_sig_name),
                  ms /. float_of_int o.fo_completed )
                :: !hs_ms
            | Error _ -> incr failed)
          p.cells;
        retried := !retried + Core.Exec.retried_count p.ctx;
        exec_failed := !exec_failed + Core.Exec.failed_count p.ctx;
        p.wall_s)
  in
  let heap_mb = peak_heap_mb () in
  let first = Option.get !first in
  let npasses = List.length walls in
  let cell_ms = !cells_ms in
  let digest = sha256_hex first.artifact in
  let checks =
    [ ("every farm cell completed", !failed = 0);
      ("every pass gives the same outcomes and artifact", !same) ]
    @
    if seed = Grid.default_seed then
      [ ("artifact digest matches the recorded one", digest = recorded_digest) ]
    else []
  in
  let end_to_end =
    if !failed > 0 then []
    else
      let hs_ms =
        (* per pair: median over its cells of host ms per handshake *)
        List.map
          (fun pair ->
            List.filter_map
              (fun (q, x) -> if q = pair then Some x else None)
              !hs_ms
            |> Stat.median)
          Grid.farm_pairs
      in
      [ { name = "setup_s"; value = setup_s; unit_ = "s" };
        { name = "hs_per_s";
          value = float_of_int !hs /. List.fold_left ( +. ) 0. walls;
          unit_ = "1/s" };
        { name = "cell_ms.p50"; value = Stat.median cell_ms; unit_ = "ms" };
        { name = "cell_ms.p90"; value = Stat.percentile 0.9 cell_ms; unit_ = "ms" };
        { name = "hs_ms.geomean"; value = Stat.geomean hs_ms; unit_ = "ms" };
        { name = "peak_heap_mb"; value = heap_mb; unit_ = "MB" } ]
  in
  let notes =
    [ Printf.sprintf
        "farm: %d cells x %d passes, %d completed simulated handshakes per \
         pass, program seed %S"
        ncells npasses (!hs / npasses) st.program_seed;
      Printf.sprintf "passes %s s"
        (String.concat ", " (List.map (Printf.sprintf "%.2f") walls));
      "cell_ms: " ^ Stat.tail_note (List.length cell_ms);
      setup_note;
      Printf.sprintf "artifact sha256 %s" digest;
      Core.Exec.health_summary first.ctx ]
  in
  let attempted = ncells * npasses in
  if not trace then
    { checks; attempted; failed = !failed; end_to_end; per_layer = []; notes;
      spans = [] }
  else begin
    (* the untraced reference for the overhead: the same work again,
       after the measured passes warmed the process up and before the
       traced passes, whose spans then stay live on the heap *)
    let untraced_s =
      let t = now () in
      for _ = 1 to npasses do
        ignore (pass st)
      done;
      now () -. t
    in
    Span.start ();
    let t1 = now () in
    let tsame = ref true and tfailed = ref 0 in
    for _ = 1 to npasses do
      let cells, artifact = traced_pass st in
      tfailed := !tfailed + List.length (List.filter Result.is_error cells);
      tsame :=
        !tsame
        && compare (strip cells) (outcomes first.cells)
           = 0
        && artifact = first.artifact
    done;
    let traced_s = now () -. t1 in
    let spans = Span.stop () in
    let counts =
      { handshakes = !hs;
        executed = attempted;
        lookups = 0; stores = 0; records = 0;
        farm_records = attempted;
        artifacts = npasses;
        packets = 0; retransmissions = 0; host_charges = 0;
        credentials_ms = cred_ms;
        cached_cells_per_s = 0.;
        retried = !retried; exec_failed = !exec_failed;
        units_attempted = attempted; units_failed = !failed;
        untraced_s; traced_s }
    in
    { checks = checks @ [ ("traced outcomes and artifacts equal untraced ones", !tsame) ];
      attempted = attempted * 2;
      failed = !failed + !tfailed;
      end_to_end;
      per_layer = per_layer spans counts;
      notes = notes @ layer_summary spans ~traced_s ~untraced_s;
      spans }
  end
