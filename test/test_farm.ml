(* The server-farm layer: arrival-stream generators, the balancer, farm
   admission control, and the farm campaign's determinism contract
   (byte-identical metrics artifacts for any [jobs], cache states and
   retry budgets included). *)

open Core

let kem = Pqc.Registry.find_kem
let sa = Pqc.Registry.find_sig

(* ---- Workload generators --------------------------------------------------- *)

let arrivals ?(profile = "poisson") ~seed ~rate ~duration_s () =
  Netsim.Workload.arrivals
    (Netsim.Workload.find profile)
    ~rng:(Crypto.Drbg.create ~seed)
    ~rate ~duration_s

let test_workload_reproducible () =
  List.iter
    (fun (w : Netsim.Workload.t) ->
      let a =
        arrivals ~profile:w.name ~seed:"farm" ~rate:500. ~duration_s:1. ()
      in
      let b =
        arrivals ~profile:w.name ~seed:"farm" ~rate:500. ~duration_s:1. ()
      in
      Alcotest.(check (list (float 0.)))
        (w.name ^ " same seed, same stream")
        a b;
      let c =
        arrivals ~profile:w.name ~seed:"other" ~rate:500. ~duration_s:1. ()
      in
      Alcotest.(check bool) (w.name ^ " different seed differs") true (a <> c))
    Netsim.Workload.all

let test_workload_shape () =
  List.iter
    (fun (w : Netsim.Workload.t) ->
      let rate = 2000. and duration_s = 1. in
      let xs = arrivals ~profile:w.name ~seed:"shape" ~rate ~duration_s () in
      Alcotest.(check bool) (w.name ^ " sorted") true
        (List.sort compare xs = xs);
      List.iter
        (fun t ->
          if t < 0. || t > duration_s then
            Alcotest.failf "%s arrival %f outside [0, %f]" w.name t duration_s)
        xs;
      (* the shape is normalized to mean 1, so the count concentrates
         around rate * duration (Poisson noise: sd = sqrt n ~ 45) *)
      let n = float_of_int (List.length xs) in
      let expect = rate *. duration_s in
      Alcotest.(check bool)
        (Printf.sprintf "%s mean rate (%.0f arrivals)" w.name n)
        true
        (Float.abs (n -. expect) < 6. *. sqrt expect))
    Netsim.Workload.all

let test_workload_degenerate () =
  Alcotest.(check (list (float 0.))) "zero rate" []
    (arrivals ~seed:"z" ~rate:0. ~duration_s:1. ());
  Alcotest.(check (list (float 0.))) "zero duration" []
    (arrivals ~seed:"z" ~rate:100. ~duration_s:0. ());
  Alcotest.check_raises "unknown profile"
    (Invalid_argument "Workload.find: unknown arrival profile diurnal")
    (fun () ->
      ignore (Netsim.Workload.find "diurnal"))

(* ---- Balancer --------------------------------------------------------------- *)

let test_balancer_round_robin () =
  let b = Netsim.Balancer.create Netsim.Balancer.Round_robin ~servers:3 in
  let picks = List.init 7 (fun _ -> Netsim.Balancer.pick b ~load:(fun _ -> 0)) in
  Alcotest.(check (list int)) "cycles" [ 0; 1; 2; 0; 1; 2; 0 ] picks

let test_balancer_least_connections () =
  let b = Netsim.Balancer.create Netsim.Balancer.Least_connections ~servers:3 in
  let load = [| 2; 0; 1 |] in
  Alcotest.(check int) "least loaded" 1
    (Netsim.Balancer.pick b ~load:(fun s -> load.(s)));
  let tied = [| 1; 1; 1 |] in
  Alcotest.(check int) "tie toward lowest index" 0
    (Netsim.Balancer.pick b ~load:(fun s -> tied.(s)));
  Alcotest.check_raises "bad policy name"
    (Invalid_argument "Balancer.policy_of_name: unknown policy random")
    (fun () -> ignore (Netsim.Balancer.policy_of_name "random"))

(* ---- Farm admission control ------------------------------------------------- *)

(* synthetic launch: every handshake occupies its slot for [service]
   virtual seconds — admission, queueing and drops in isolation *)
let run_farm ~servers ~max_concurrent ~accept_queue ~arrivals ~service =
  let engine = Netsim.Engine.create () in
  let peak = ref 0 in
  let in_service = Array.make servers 0 in
  let farm =
    Netsim.Farm.create ~engine
      ~config:
        { Netsim.Farm.servers; max_concurrent; accept_queue;
          policy = Netsim.Balancer.Least_connections }
      ~arrivals
      ~launch:(fun ~server ~conn:_ ~finished ->
        in_service.(server) <- in_service.(server) + 1;
        peak := max !peak in_service.(server);
        Netsim.Engine.schedule engine ~delay:service (fun () ->
            in_service.(server) <- in_service.(server) - 1;
            finished ()))
  in
  Netsim.Engine.run engine;
  (farm, !peak)

let test_farm_accounting () =
  (* 30 simultaneous arrivals onto 2 servers x (2 in service + 3
     queued): 20 admitted-or-queued, 10 dropped at the accept queue *)
  let arrivals = List.init 30 (fun _ -> 0.) in
  let farm, peak =
    run_farm ~servers:2 ~max_concurrent:2 ~accept_queue:3 ~arrivals
      ~service:0.01
  in
  Alcotest.(check int) "offered" 30 (Netsim.Farm.offered farm);
  Alcotest.(check int) "completed" 10 (Netsim.Farm.completed farm);
  Alcotest.(check int) "dropped" 20 (Netsim.Farm.dropped farm);
  Alcotest.(check int) "unfinished" 0 (Netsim.Farm.unfinished farm);
  Alcotest.(check int) "concurrency limit held" 2 peak;
  Alcotest.(check (list int)) "balanced across servers" [ 5; 5 ]
    (Array.to_list (Netsim.Farm.per_server_completed farm));
  (* queued connections wait one service time per predecessor *)
  let waits = Netsim.Farm.wait_ms farm in
  Alcotest.(check int) "latency per completed conn" 10
    (List.length (Netsim.Farm.latencies_ms farm));
  Alcotest.(check (float 1e-6)) "head of queue admitted immediately" 0.
    (List.hd waits);
  Alcotest.(check bool) "tail of queue waited" true
    (List.exists (fun w -> w > 19.) waits)

let test_farm_unfinished () =
  let engine = Netsim.Engine.create () in
  let farm =
    Netsim.Farm.create ~engine
      ~config:
        { Netsim.Farm.servers = 1; max_concurrent = 4; accept_queue = 4;
          policy = Netsim.Balancer.Round_robin }
      ~arrivals:[ 0.; 0.5 ]
      ~launch:(fun ~server:_ ~conn:_ ~finished ->
        Netsim.Engine.schedule engine ~delay:1. (fun () -> finished ()))
  in
  (* stop before the second handshake's service completes *)
  Netsim.Engine.run engine ~until:1.2;
  Alcotest.(check int) "one completed" 1 (Netsim.Farm.completed farm);
  Alcotest.(check int) "one in flight at the horizon" 1
    (Netsim.Farm.unfinished farm)

(* ---- the farm campaign ------------------------------------------------------ *)

let farm_grid seed =
  List.concat_map
    (fun (k, s) ->
      List.map
        (fun profile ->
          Experiment.farm_spec ~seed ~profile ~servers:2 ~duration_s:0.2
            ~max_connections:120 (kem k) (sa s))
        [ "poisson"; "flash-crowd" ])
    [ ("x25519", "rsa:2048"); ("kyber768", "dilithium3") ]

let farm_artifact_string ~jobs ~seed =
  let exec = Exec.create ~jobs () in
  let results = Exec.farm_cells exec (farm_grid seed) in
  Alcotest.(check int) "all farm cells ok"
    (List.length (farm_grid seed))
    (List.length (List.filter Result.is_ok results));
  Metrics.to_json_string (Metrics.artifact exec.Exec.metrics ~seed)

let parse_artifact s =
  match Metrics.of_json_string s with
  | Ok a -> a
  | Error e -> Alcotest.fail e

let test_farm_jobs_identity () =
  let a1 = farm_artifact_string ~jobs:1 ~seed:"farm-jobs" in
  let a4 = farm_artifact_string ~jobs:4 ~seed:"farm-jobs" in
  Alcotest.(check string) "jobs=1 and jobs=4 byte-identical" a1 a4;
  let p = parse_artifact a1 in
  Alcotest.(check int) "four farm cells" 4
    (List.length p.Metrics.p_farm_cells);
  Alcotest.(check (list string)) "self-diff is clean" []
    (Metrics.diff p (parse_artifact a4));
  let first = List.hd p.Metrics.p_farm_cells in
  Alcotest.(check string) "spec order preserved"
    "farm x25519 x rsa:2048 @ none/poisson u=0.90" first.Metrics.p_key;
  Alcotest.(check bool) "farm leaves present" true
    (List.mem_assoc "data.latency_ms.handshake.p99" first.Metrics.p_metrics
    && List.mem_assoc "data.latency_ms.p999" first.Metrics.p_metrics
    && List.mem_assoc "data.load.capacity_hs_s" first.Metrics.p_metrics
    && List.mem_assoc "data.servers.busy" first.Metrics.p_metrics)

let test_farm_outcome_sanity () =
  let o =
    Experiment.run_farm_spec
      (Experiment.farm_spec ~seed:"farm-sane" ~servers:2 ~duration_s:0.2
         ~max_connections:120 ~adv_fraction:0.3 (kem "kyber512")
         (sa "sphincs128"))
  in
  Alcotest.(check int) "conservation: offered = completed+dropped+unfinished"
    o.Experiment.fo_offered
    (o.Experiment.fo_completed + o.Experiment.fo_dropped
   + o.Experiment.fo_unfinished);
  Alcotest.(check int) "per-server counts sum to completed"
    o.Experiment.fo_completed
    (List.fold_left ( + ) 0 o.Experiment.fo_per_server_completed);
  Alcotest.(check bool) "capacity positive" true
    (o.Experiment.fo_capacity_hs_s > 0.);
  Alcotest.(check bool) "utilization below 1" true
    (o.Experiment.fo_server_busy > 0. && o.Experiment.fo_server_busy <= 1.);
  Alcotest.(check bool) "adversarial clients drawn" true
    (o.Experiment.fo_adv_launched > 0
    && o.Experiment.fo_adv_launched < o.Experiment.fo_offered);
  (* the x25519 adversary buys the full SPHINCS+ server flight with a
     tiny client flight: the paper's amplification asymmetry, at scale *)
  Alcotest.(check bool) "amplification over QUIC's 3x" true
    (o.Experiment.fo_adv_server_bytes > 3 * o.Experiment.fo_adv_client_bytes)

let test_farm_retry_and_failure () =
  (* injected failure on a farm label: retries reseed deterministically,
     budget exhaustion yields Error and the campaign keeps going *)
  let exec = Exec.create ~jobs:2 ~retries:1 ~fail_cell:"flash-crowd" () in
  let results = Exec.farm_cells exec (farm_grid "farm-fail") in
  let oks, errs = List.partition Result.is_ok results in
  Alcotest.(check (pair int int)) "poisson cells ok, flash-crowd cells fail"
    (2, 2)
    (List.length oks, List.length errs);
  Alcotest.(check int) "failures counted" 2 (Exec.failed_count exec);
  List.iter
    (function
      | Error (e : Exec.cell_error) ->
        Alcotest.(check int) "attempt budget spent" 2 e.Exec.ce_attempts
      | Ok _ -> ())
    results

let suites =
  [ ( "farm",
      [ Alcotest.test_case "workload reproducible from seed" `Quick
          test_workload_reproducible;
        Alcotest.test_case "workload shapes + mean rate" `Quick
          test_workload_shape;
        Alcotest.test_case "workload degenerate inputs" `Quick
          test_workload_degenerate;
        Alcotest.test_case "balancer round-robin" `Quick
          test_balancer_round_robin;
        Alcotest.test_case "balancer least-connections" `Quick
          test_balancer_least_connections;
        Alcotest.test_case "farm admission accounting" `Quick
          test_farm_accounting;
        Alcotest.test_case "farm unfinished at horizon" `Quick
          test_farm_unfinished;
        Alcotest.test_case "farm campaign jobs identity" `Slow
          test_farm_jobs_identity;
        Alcotest.test_case "farm outcome sanity" `Slow
          test_farm_outcome_sanity;
        Alcotest.test_case "farm retry and failure" `Slow
          test_farm_retry_and_failure ] ) ]
