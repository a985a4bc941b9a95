(* The real-time profiling subsystem: the artifact's deterministic
   shape (op registry, iteration plans, key order, attribution counts)
   must be byte-identical across job counts and runs, its measured
   values must be sane (positive timings, strictly positive keygen
   allocation rates), the JSON must round-trip through the comparison
   parser, and the regression differ must catch shape changes and
   drift while accepting agreement. The wall-clock quarantine itself is
   proven by the lint suite (test_lint.ml), which runs repo-wide. *)

open Core

(* measuring every op takes minutes (SPHINCS+ signs run seconds each in
   pure OCaml); tests measure a cheap subset and assert the expensive
   invariants — full-registry coverage — statically on the plan alone *)
let cheap = "kyber512"

let test_registry_coverage () =
  let ops = Profile.registry () in
  let names = List.map (fun o -> o.Profile.op_name) ops in
  Alcotest.(check int) "no duplicate op names"
    (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun (k : Pqc.Kem.t) ->
      List.iter
        (fun kind ->
          let n = kind ^ " " ^ k.name in
          Alcotest.(check bool) (n ^ " present") true (List.mem n names))
        [ "keygen"; "encaps"; "decaps" ])
    Pqc.Registry.kems;
  List.iter
    (fun (s : Pqc.Sigalg.t) ->
      List.iter
        (fun kind ->
          let n = kind ^ " " ^ s.name in
          Alcotest.(check bool) (n ^ " present") true (List.mem n names))
        [ "keygen"; "sign"; "verify" ])
    Pqc.Registry.sigs;
  let kernels =
    List.filter (fun o -> o.Profile.op_group = Profile.Kernel) ops
  in
  Alcotest.(check bool) "at least 3 substrate kernels" true
    (List.length kernels >= 3);
  List.iter
    (fun alg ->
      let n = "kernel " ^ alg in
      Alcotest.(check bool) (n ^ " present") true (List.mem n names))
    [ "sha3-256-1k"; "shake128-1k"; "hmac-sha256-1k";
      "chacha20poly1305-seal-1k"; "mocked-handshake" ];
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (o.Profile.op_name ^ " has a sane plan")
        true
        (o.Profile.op_samples > 0 && o.Profile.op_batch > 0
        && o.Profile.op_batch <= 256 && o.Profile.op_warmup >= 0))
    ops

let test_shape_determinism () =
  let run jobs = Profile.run ~jobs ~ops_filter:cheap ~seed:"profile-test" () in
  let a1 = run 1 and a4 = run 4 in
  Alcotest.(check string) "shape is byte-identical for jobs 1 vs 4"
    (Profile.shape_json_string a1)
    (Profile.shape_json_string a4);
  Alcotest.(check bool) "measured values differ from the zeroed shape" true
    (Profile.to_json_string a1 <> Profile.shape_json_string a1)

let test_measured_sanity () =
  let a = Profile.run ~ops_filter:cheap ~seed:"profile-test" () in
  Alcotest.(check bool) "filter matched something" true (a.Profile.pa_ops <> []);
  List.iter
    (fun (m : Profile.measured) ->
      let d = m.Profile.p_time in
      Alcotest.(check bool)
        (m.Profile.p_op.Profile.op_name ^ " timed positive")
        true
        (d.Metrics.d_p50 > 0. && d.Metrics.d_p5 <= d.Metrics.d_p95);
      if m.Profile.p_op.Profile.op_kind = "keygen" then
        Alcotest.(check bool)
          (m.Profile.p_op.Profile.op_name ^ " allocates")
          true
          (m.Profile.p_gc.Profile.g_minor_words > 0.))
    a.Profile.pa_ops;
  Alcotest.(check bool) "attribution table is populated" true
    (List.length a.Profile.pa_attribution > 5);
  List.iter
    (fun (r : Profile.attr_row) ->
      Alcotest.(check bool)
        (r.Profile.at_op ^ " attribution row is sane")
        true
        (r.Profile.at_count > 0 && r.Profile.at_virtual_ms >= 0.))
    a.Profile.pa_attribution

let test_json_roundtrip () =
  let a = Profile.run ~ops_filter:cheap ~seed:"profile-test" () in
  match Profile.of_json_string (Profile.to_json_string a) with
  | Error e -> Alcotest.fail ("roundtrip parse failed: " ^ e)
  | Ok p ->
    Alcotest.(check string) "seed survives" "profile-test" p.Profile.q_seed;
    Alcotest.(check int) "every op survives"
      (List.length a.Profile.pa_ops)
      (List.length p.Profile.q_ops);
    let m = List.hd a.Profile.pa_ops and q = List.hd p.Profile.q_ops in
    Alcotest.(check string) "op order survives" m.Profile.p_op.Profile.op_name
      q.Profile.q_name;
    Alcotest.(check (option (float 1e-9))) "p50 survives exactly"
      (Some m.Profile.p_time.Metrics.d_p50)
      (List.assoc_opt "time_ms.p50" q.Profile.q_metrics);
    Alcotest.(check (option (float 1e-9))) "gc leaves survive"
      (Some m.Profile.p_gc.Profile.g_minor_words)
      (List.assoc_opt "gc.minor_words" q.Profile.q_metrics);
    (* self-comparison is clean at zero tolerance *)
    Alcotest.(check (list string)) "diff against itself is clean" []
      (Profile.diff ~rel_tol:0. p p)

let test_diff_catches_changes () =
  let a = Profile.run ~ops_filter:cheap ~seed:"profile-test" () in
  let p =
    match Profile.of_json_string (Profile.to_json_string a) with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let bump_p50 (q : Profile.p_op) =
    { q with
      Profile.q_metrics =
        List.map
          (fun (k, v) -> if k = "time_ms.p50" then (k, v *. 2.) else (k, v))
          q.Profile.q_metrics }
  in
  let drifted =
    { p with Profile.q_ops = List.map bump_p50 p.Profile.q_ops }
  in
  Alcotest.(check bool) "2x median drift beyond 25% tolerance is flagged" true
    (Profile.diff p drifted <> []);
  Alcotest.(check (list string)) "2x drift within 200% tolerance passes" []
    (Profile.diff ~rel_tol:2. p drifted);
  let replanned =
    { p with
      Profile.q_ops =
        List.map
          (fun (q : Profile.p_op) ->
            { q with Profile.q_batch = q.Profile.q_batch + 1 })
          p.Profile.q_ops }
  in
  Alcotest.(check bool) "iteration-plan changes are issues at any tolerance"
    true
    (Profile.diff ~rel_tol:10. p replanned <> []);
  let missing = { p with Profile.q_ops = List.tl p.Profile.q_ops } in
  Alcotest.(check bool) "a vanished op is an issue" true
    (Profile.diff ~rel_tol:10. p missing <> []);
  match Profile.of_json_string "{\"schema\": \"bogus/9\"}" with
  | Ok _ -> Alcotest.fail "bogus schema accepted"
  | Error _ -> ()

let test_renderings () =
  let a = Profile.run ~ops_filter:cheap ~seed:"profile-test" () in
  let table = Profile.render_table a in
  Alcotest.(check bool) "table names the ops" true
    (let contains ~needle hay =
       let nl = String.length needle in
       let found = ref false in
       for i = 0 to String.length hay - nl do
         if String.sub hay i nl = needle then found := true
       done;
       !found
     in
     contains ~needle:"keygen kyber512" table
     && contains ~needle:"Virtual vs real attribution" table);
  let folded = Profile.folded a in
  List.iter
    (fun line ->
      if line <> "" then
        Alcotest.(check bool)
          (line ^ " is a folded stack")
          true
          (String.contains line ' '))
    (String.split_on_char '\n' folded);
  match Profile.run ~ops_filter:"no-such-op" ~seed:"profile-test" () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty filter should be rejected"

let suites =
  [ ( "profile",
      [ Alcotest.test_case "registry covers every KA, SA and kernel" `Quick
          test_registry_coverage;
        Alcotest.test_case "artifact shape deterministic across jobs" `Quick
          test_shape_determinism;
        Alcotest.test_case "measured values are sane" `Quick
          test_measured_sanity;
        Alcotest.test_case "JSON roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "diff catches drift and shape changes" `Quick
          test_diff_catches_changes;
        Alcotest.test_case "renderings" `Quick test_renderings ] )
  ]
