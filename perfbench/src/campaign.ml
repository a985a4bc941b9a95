(* The paper-regeneration path: the Table 4b grid through Core.Exec, one
   cell at a time, first against an empty result cache (every cell runs
   and is stored), then again from a second context on the same cache
   directory (every cell is a hit, so netsim, tls and pqc are skipped). *)

open Common

(* the name the CLI notes for table4b, so that at the default seed the
   artifact is byte for byte the one [pqtls-bench run table4b --metrics]
   writes *)
let experiment = "all-sig-scenarios"

(* SHA-256 of that artifact at the default seed *)
let recorded_digest =
  "7e289fe67b5be7aed7d5affc45516760c9cd75d1b5afc57b08571ad87ca7a568"

type state = { specs : Core.Experiment.spec list; program_seed : string }

let prepare ~seed ~first =
  let kem = Wrap.kem (Pqc.Kem.mocked Pqc.Registry.baseline_kem) in
  let sigs =
    List.map
      (fun (s : Pqc.Sigalg.t) -> (s.name, Wrap.sigalg (Pqc.Sigalg.mocked s)))
      Pqc.Registry.sigs
  in
  let program_seed = Grid.campaign_seed seed in
  let specs =
    List.map
      (fun (sa, scenario) ->
        Core.Experiment.spec ~seed:program_seed ~scenario kem
          (List.assoc sa sigs))
      (Grid.campaign seed)
  in
  ({ specs; program_seed }, credentials ~first (List.map snd sigs))

type pass = {
  wall_s : float;
  cells : (Core.Exec.cell_result * float) list;  (** with host ms *)
  artifact : string;
  ctx : Core.Exec.t;
}

(* one `pqtls-bench run table4b --jobs 1 --cache DIR --metrics` *)
let pass st ~dir =
  let t0 = now () in
  let ctx = Core.Exec.create ~jobs:1 ~cache_dir:dir () in
  Core.Metrics.note_experiment ctx.metrics experiment;
  let cells =
    List.map
      (fun spec ->
        let t = now () in
        let r = Core.Exec.cell ctx spec in
        (r, ms_since t))
      st.specs
  in
  let artifact =
    Core.Metrics.to_json_string
      (Core.Metrics.artifact ctx.metrics ~seed:st.program_seed)
  in
  { wall_s = now () -. t0; cells; artifact; ctx }

(* the same calls Exec.cell makes at jobs = 1, each inside its own span;
   a failing cell is not retried here, so it shows as a mismatch against
   the untraced pass *)
let traced_pass st ~dir =
  let cache =
    Span.with_ "result_cache.create" (fun () ->
        Core.Result_cache.create ~dir)
  in
  let metrics = Core.Metrics.create () in
  Core.Metrics.note_experiment metrics experiment;
  let cells =
    List.map
      (fun spec ->
        Span.with_ ~request:(Core.Experiment.spec_fingerprint spec) "cell"
          (fun () ->
            let key, found =
              Span.with_ "result_cache.find" (fun () ->
                  let k = Core.Result_cache.key cache spec in
                  (k, Core.Result_cache.find cache k))
            in
            let r =
              match found with
              | Some o -> Ok o
              | None -> (
                match
                  Span.with_ "experiment.run_spec" (fun () ->
                      Core.Experiment.run_spec spec)
                with
                | o ->
                  Span.with_ "result_cache.store" (fun () ->
                      Core.Result_cache.store cache key o);
                  Ok o
                | exception e -> Error (Printexc.to_string e))
            in
            Span.with_ "metrics.record_cell" (fun () ->
                Core.Metrics.record_cell metrics spec r);
            r))
      st.specs
  in
  let artifact =
    Span.with_ "metrics.artifact" (fun () ->
        Core.Metrics.to_json_string
          (Core.Metrics.artifact metrics ~seed:st.program_seed))
  in
  (cells, artifact)

let handshakes (o : Core.Experiment.outcome) = List.length o.samples

let run ~seed ~seconds ~trace ~workdir ~startup_s =
  let st, setup_s, cred_ms, setup_note = setup ~startup_s (prepare ~seed) in
  let ncells = List.length st.specs in
  let dir = Filename.concat workdir "cache" in
  let t0 = now () in
  let cold = pass st ~dir in
  let cold_outcomes = outcomes cold.cells in
  (* warm passes are checked against the cold one as they finish and
     then dropped, so the heap holds one pass whatever their number *)
  let warm_ok = ref true and warm_failed = ref 0 in
  let retried = ref (Core.Exec.retried_count cold.ctx) in
  let exec_failed = ref (Core.Exec.failed_count cold.ctx) in
  let warm_walls =
    fill ~seconds ~since:t0 (fun () ->
        let p = pass st ~dir in
        warm_ok :=
          !warm_ok
          && Core.Metrics.counter p.ctx.metrics "cells_from_cache" = ncells
          && compare (outcomes p.cells) cold_outcomes = 0
          && p.artifact = cold.artifact;
        warm_failed :=
          !warm_failed
          + List.length (List.filter (fun (r, _) -> Result.is_error r) p.cells);
        retried := !retried + Core.Exec.retried_count p.ctx;
        exec_failed := !exec_failed + Core.Exec.failed_count p.ctx;
        p.wall_s)
  in
  let heap_mb = peak_heap_mb () in
  let nwarm = List.length warm_walls in
  let ok_cells =
    List.filter_map (function Ok o, ms -> Some (o, ms) | Error _, _ -> None)
      cold.cells
  in
  let hs = List.fold_left (fun a (o, _) -> a + handshakes o) 0 ok_cells in
  let cell_ms = List.map snd cold.cells in
  let failed = ncells - List.length ok_cells + !warm_failed in
  let cold_digest = sha256_hex cold.artifact in
  let checks =
    [ ("every cell completed", failed = 0);
      ( "warm passes: every cell cached, outcomes and artifact identical",
        !warm_ok ) ]
    @
    if seed = Grid.default_seed then
      [ ("artifact digest matches the recorded one",
         cold_digest = recorded_digest) ]
    else []
  in
  let end_to_end =
    if failed > 0 then []
    else
      let hs_ms =
        (* per SA: median over its scenario cells of host ms per handshake *)
        List.map
          (fun (s : Pqc.Sigalg.t) ->
            List.filter_map
              (fun ((o : Core.Experiment.outcome), ms) ->
                if o.sig_name = s.name then
                  Some (ms /. float_of_int (handshakes o))
                else None)
              ok_cells
            |> Stat.median)
          Pqc.Registry.sigs
      in
      [ { name = "setup_s"; value = setup_s; unit_ = "s" };
        { name = "hs_per_s"; value = float_of_int hs /. cold.wall_s; unit_ = "1/s" };
        { name = "cell_ms.p50"; value = Stat.median cell_ms; unit_ = "ms" };
        { name = "cell_ms.p90"; value = Stat.percentile 0.9 cell_ms; unit_ = "ms" };
        { name = "hs_ms.geomean"; value = Stat.geomean hs_ms; unit_ = "ms" };
        { name = "peak_heap_mb"; value = heap_mb; unit_ = "MB" } ]
  in
  let cached_cells_per_s =
    float_of_int (ncells * nwarm) /. List.fold_left ( +. ) 0. warm_walls
  in
  let notes =
    [ Printf.sprintf
        "campaign: %d cells x (1 cold + %d warm) passes, %d simulated \
         handshakes per cold pass, program seed %S"
        ncells nwarm hs st.program_seed;
      Printf.sprintf "cold pass %.2f s; warm passes %s s; %.1f cached cells/s"
        cold.wall_s
        (String.concat ", " (List.map (Printf.sprintf "%.2f") warm_walls))
        cached_cells_per_s;
      "cell_ms: " ^ Stat.tail_note (List.length cell_ms);
      setup_note;
      Printf.sprintf "artifact sha256 %s" cold_digest;
      Core.Exec.health_summary cold.ctx ]
  in
  let attempted = ncells * (1 + nwarm) in
  if not trace then
    { checks; attempted; failed; end_to_end; per_layer = []; notes; spans = [] }
  else begin
    let tdir = Filename.concat workdir "cache-traced" in
    (* the untraced reference for the overhead: the same work again,
       after the measured passes warmed the process up and before the
       traced passes, whose spans then stay live on the heap *)
    let untraced_s =
      let dir = Filename.concat workdir "cache-reference" in
      let t = now () in
      for _ = 0 to nwarm do
        ignore (pass st ~dir)
      done;
      now () -. t
    in
    Span.start ();
    let t1 = now () in
    let tcells, tartifact = traced_pass st ~dir:tdir in
    let warm_t0 = now () in
    let twarm_ok =
      List.for_all
        (fun _ ->
          let cells, artifact = traced_pass st ~dir:tdir in
          compare (strip cells) cold_outcomes = 0
          && artifact = cold.artifact)
        warm_walls
    in
    let traced_s = now () -. t1 in
    let warm_traced_s = now () -. warm_t0 in
    let spans = Span.stop () in
    let warm_record_s =
      List.fold_left
        (fun acc (s : Span.t) ->
          if s.name = "metrics.record_cell" && s.start_s >= warm_t0 then
            acc +. (s.stop_s -. s.start_s)
          else acc)
        0. spans
    in
    let sum_samples f =
      List.fold_left
        (fun a ((o : Core.Experiment.outcome), _) ->
          List.fold_left (fun a s -> a + f s) a o.samples)
        0 ok_cells
    in
    let counts =
      { handshakes = hs;
        executed = ncells;
        lookups = ncells * (1 + nwarm);
        stores = ncells;
        records = ncells * (1 + nwarm);
        farm_records = 0;
        artifacts = 1 + nwarm;
        packets =
          sum_samples (fun (s : Core.Experiment.sample) ->
              s.client_pkts + s.server_pkts);
        retransmissions =
          sum_samples (fun (s : Core.Experiment.sample) -> s.retransmissions);
        host_charges =
          List.fold_left
            (fun a ((o : Core.Experiment.outcome), _) ->
              a + o.client_cpu_charges + o.server_cpu_charges)
            0 ok_cells;
        credentials_ms = cred_ms;
        cached_cells_per_s;
        retried = !retried;
        exec_failed = !exec_failed;
        units_attempted = attempted;
        units_failed = failed;
        untraced_s;
        traced_s }
    in
    let sizing =
      Printf.sprintf "metrics.record_cell: %.1f%% of the traced warm passes"
        (100. *. warm_record_s /. warm_traced_s)
    in
    let tfailed = List.length (List.filter Result.is_error tcells) in
    let checks =
      checks
      @ [ ( "traced outcomes and artifacts equal untraced ones",
            compare (strip tcells) cold_outcomes
            = 0
            && tartifact = cold.artifact && twarm_ok ) ]
    in
    { checks;
      attempted = attempted + (ncells * (1 + nwarm));
      failed = failed + tfailed;
      end_to_end;
      per_layer = per_layer spans counts;
      notes = notes @ (sizing :: layer_summary spans ~traced_s ~untraced_s);
      spans }
  end
