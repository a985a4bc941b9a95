(* The benchmark's own tests: input generation, the percentile rule,
   self-time arithmetic, and the transparency of the wrapped algorithms. *)

open Perfbench

let names_of_campaign seed =
  List.map (fun (sa, (sc : Core.Scenario.t)) -> (sa, sc.name)) (Grid.campaign seed)

let test_grids () =
  Alcotest.(check int) "Table 4b shape" 144 (List.length (Grid.campaign 3));
  Alcotest.(check int) "Table 5 capacity shape" 12 (List.length (Grid.farm 3));
  Alcotest.(check (list (pair string string)))
    "same seed, same campaign grid" (names_of_campaign 7) (names_of_campaign 7);
  Alcotest.(check bool)
    "another seed, another order" true
    (names_of_campaign 7 <> names_of_campaign 8);
  Alcotest.(check bool)
    "same cells whatever the order" true
    (List.sort compare (names_of_campaign 7)
    = List.sort compare (names_of_campaign Grid.default_seed));
  Alcotest.(check (list (pair string string)))
    "same seed, same rotation" (Grid.rotation 5) (Grid.rotation 5);
  Alcotest.(check (list (pair string string)))
    "a rotation visits every pair once"
    (List.sort compare Grid.real_pairs)
    (List.sort compare (Grid.rotation 5));
  Alcotest.(check (list (pair string string)))
    "the default seed keeps the listed order" Grid.real_pairs
    (Grid.rotation Grid.default_seed);
  Alcotest.(check string) "default campaign seed is the CLI's" "pqtls"
    (Grid.campaign_seed Grid.default_seed);
  Alcotest.(check bool)
    "other seeds reach the program" true
    (Grid.campaign_seed 4 <> Grid.campaign_seed 5
    && Grid.farm_seed 4 <> Grid.farm_seed 5
    && Grid.handshake_seed 4 ("x25519", "rsa:2048") 0
       <> Grid.handshake_seed 5 ("x25519", "rsa:2048") 0);
  (* every named algorithm exists *)
  List.iter
    (fun (k, s) ->
      ignore (Pqc.Registry.find_kem k);
      ignore (Pqc.Registry.find_sig s))
    (Grid.real_pairs @ Grid.farm_pairs)

let test_percentile_rule () =
  let tail = Alcotest.(option (float 0.)) in
  Alcotest.(check tail) "144 cells: p90 (14 beyond)" (Some 0.9) (Stat.tail 144);
  Alcotest.(check tail) "100: p90 has exactly 10 beyond" (Some 0.9) (Stat.tail 100);
  Alcotest.(check tail) "99: p90 has 9, falls back to p50" (Some 0.5) (Stat.tail 99);
  Alcotest.(check tail) "1000: p99" (Some 0.99) (Stat.tail 1000);
  Alcotest.(check tail) "10000: p99.9" (Some 0.999) (Stat.tail 10000);
  Alcotest.(check tail) "20: p50" (Some 0.5) (Stat.tail 20);
  Alcotest.(check tail) "19: nothing" None (Stat.tail 19);
  Alcotest.(check string) "reports n" "n=144, tail rule picks p90"
    (Stat.tail_note 144);
  Alcotest.(check string) "reports too few" "n=12, tail rule picks none"
    (Stat.tail_note 12);
  Alcotest.(check string) "p99.9 spelling" "p99.9" (Stat.pct_name 0.999);
  Alcotest.(check (float 1e-9)) "geomean" 4. (Stat.geomean [ 2.; 8. ])

let span id parent a b words =
  { Span.id; name = string_of_int id; parent; request = "r"; start_s = a;
    stop_s = b; minor_words = words }

let test_self_times () =
  (* root [0,10] with children A [1,4] and B [3,6] (overlapping) and
     C [9,12] (past the root's end); A has a child [2,3] *)
  let spans =
    [ span 0 (-1) 0. 10. 100.; span 1 0 1. 4. 30.; span 2 1 2. 3. 5.;
      span 3 0 3. 6. 20.; span 4 0 9. 12. 10. ]
  in
  let self = List.map (fun (s, t, w) -> (s.Span.id, (t, w))) (Span.self_times spans) in
  let check id time words =
    let t, w = List.assoc id self in
    Alcotest.(check (float 1e-9)) (Printf.sprintf "self time of %d" id) time t;
    Alcotest.(check (float 1e-9)) (Printf.sprintf "self words of %d" id) words w
  in
  (* the root's children cover [1,6] and [9,10]: 6 of its 10 *)
  check 0 4. 40.;
  check 1 2. 25.;
  check 2 1. 5.;
  check 3 3. 20.;
  check 4 3. 10.;
  Alcotest.(check (float 1e-9)) "nothing covered" 0. (Span.covered ~lo:0. ~hi:1. []);
  Alcotest.(check (float 1e-9)) "disjoint" 2.
    (Span.covered ~lo:0. ~hi:10. [ (5., 6.); (1., 2.) ])

let test_recorder () =
  Alcotest.(check int) "off: a plain call" 3 (Span.with_ "x" (fun () -> 3));
  Span.start ();
  Span.with_ ~request:"cell-a" "cell" (fun () ->
      Span.with_ "inner" (fun () -> ());
      try Span.with_ "raises" (fun () -> failwith "boom") with Failure _ -> ());
  Span.with_ ~request:"cell-b" "cell" (fun () -> ());
  let spans = Span.stop () in
  Alcotest.(check (list (pair string (pair int string))))
    "names, parents, requests"
    [ ("cell", (-1, "cell-a")); ("inner", (0, "cell-a"));
      ("raises", (0, "cell-a")); ("cell", (-1, "cell-b")) ]
    (List.map (fun (s : Span.t) -> (s.name, (s.parent, s.request))) spans);
  Alcotest.(check bool) "recording is off again" false (Span.recording ())

(* wrapping must not change a single simulated quantity *)
let test_wrapped_cells () =
  let cell ~wrap ~scenario sa =
    let kem = Pqc.Kem.mocked Pqc.Registry.baseline_kem in
    let sa = Pqc.Sigalg.mocked (Pqc.Registry.find_sig sa) in
    let kem, sa = if wrap then (Wrap.kem kem, Wrap.sigalg sa) else (kem, sa) in
    Core.Experiment.run_spec
      (Core.Experiment.spec ~seed:"perfbench-test" ~max_samples:6 ~scenario kem sa)
  in
  List.iter
    (fun (sa, scenario) ->
      let plain = cell ~wrap:false ~scenario sa in
      Span.start ();
      let wrapped = cell ~wrap:true ~scenario sa in
      let spans = Span.stop () in
      Alcotest.(check bool)
        (Printf.sprintf "%s @ %s: identical outcome" sa scenario.Core.Scenario.name)
        true
        (compare plain wrapped = 0);
      Alcotest.(check bool) "the wrapped closures ran" true
        (List.exists (fun (s : Span.t) -> s.name = "pqc.sign") spans))
    [ ("dilithium2", Core.Scenario.no_emulation);
      ("sphincs128", Core.Scenario.high_loss) ]

let test_wrapped_farm () =
  let farm ~wrap =
    let kem = Pqc.Kem.mocked (Pqc.Registry.find_kem "kyber512") in
    let sa = Pqc.Sigalg.mocked (Pqc.Registry.find_sig "dilithium2") in
    let kem, sa = if wrap then (Wrap.kem kem, Wrap.sigalg sa) else (kem, sa) in
    Core.Experiment.run_farm_spec
      (Core.Experiment.farm_spec ~seed:"perfbench-test" ~profile:"flash-crowd"
         ~duration_s:0.2 ~max_connections:60 kem sa)
  in
  Alcotest.(check bool) "identical farm outcome" true
    (compare (farm ~wrap:false) (farm ~wrap:true) = 0)

let test_fill () =
  let n = ref 0 in
  let passes = Common.fill ~seconds:0. ~since:(Common.now ()) (fun () -> incr n; 1.) in
  Alcotest.(check int) "runs at least once" 1 !n;
  Alcotest.(check (list (float 0.))) "returns its duration" [ 1. ] passes;
  (* 30 ms passes in a 100 ms budget: a third fits, a fourth would not *)
  let pass () =
    let t0 = Common.now () in
    Unix.sleepf 0.03;
    Common.now () -. t0
  in
  let passes = Common.fill ~seconds:0.1 ~since:(Common.now ()) pass in
  Alcotest.(check bool) "fills the budget without overrunning it" true
    (List.length passes >= 2 && List.length passes <= 3)

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench",
        [ Alcotest.test_case "seeded grids and rotation" `Quick test_grids;
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "self time on a synthetic span tree" `Quick
            test_self_times;
          Alcotest.test_case "span recorder" `Quick test_recorder;
          Alcotest.test_case "wrapped algorithms, campaign cells" `Quick
            test_wrapped_cells;
          Alcotest.test_case "wrapped algorithms, farm cell" `Quick
            test_wrapped_farm;
          Alcotest.test_case "pass scheduler" `Quick test_fill ] ) ]
