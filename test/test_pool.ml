(* The parallel campaign layer: the work-stealing pool must be a
   drop-in List.map, the parallel runner must be bit-identical to the
   sequential one, and the result cache must serve re-runs without
   re-executing a single cell. *)

open Core

let kem = Pqc.Registry.find_kem
let sa = Pqc.Registry.find_sig

(* ---- pool mechanics -------------------------------------------------------- *)

let test_pool_matches_map () =
  let xs = List.init 50 Fun.id in
  (* uneven task sizes so stealing actually happens *)
  let f x =
    let acc = ref 0 in
    for i = 0 to (x mod 7) * 10_000 do
      acc := !acc + (i * x)
    done;
    (x * x) + (!acc * 0)
  in
  Alcotest.(check (list int))
    "jobs=4 equals List.map" (List.map f xs)
    (Pool.map ~jobs:4 f xs);
  Alcotest.(check (list int))
    "jobs=1 equals List.map" (List.map f xs)
    (Pool.map ~jobs:1 f xs);
  Alcotest.(check (list int))
    "more jobs than tasks" (List.map f [ 1; 2; 3 ])
    (Pool.map ~jobs:16 f [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "empty input" [] (Pool.map ~jobs:4 f [])

let test_pool_on_done () =
  let seen = ref [] in
  let results =
    Pool.map ~jobs:4
      ~on_done:(fun ~index ~completed:_ ~total x y _elapsed ->
        Alcotest.(check int) "total" 10 total;
        Alcotest.(check int) "result matches input" (x + 1) y;
        seen := index :: !seen)
      (fun x -> x + 1)
      (List.init 10 Fun.id)
  in
  Alcotest.(check (list int)) "results ordered" (List.init 10 (fun i -> i + 1))
    results;
  Alcotest.(check (list int)) "every index reported once"
    (List.init 10 Fun.id) (List.sort compare !seen)

exception Boom

let test_pool_exception () =
  Alcotest.check_raises "worker exception propagates" Boom (fun () ->
      ignore
        (Pool.map ~jobs:4
           (fun x -> if x = 17 then raise Boom else x)
           (List.init 32 Fun.id)))

(* ---- parallel determinism -------------------------------------------------- *)

let subgrid seed =
  let kems = [ "x25519"; "kyber512"; "kyber768" ] in
  let sas = [ "rsa:2048"; "dilithium2"; "sphincs128" ] in
  List.concat_map
    (fun k -> List.map (fun s -> Experiment.spec ~seed (kem k) (sa s)) sas)
    kems

let marshal_bytes (outcomes : Experiment.outcome list) =
  Marshal.to_string outcomes []

(* these grids are loss-free and must never fail a cell *)
let oks results =
  List.map
    (function
      | Ok o -> o
      | Error (e : Exec.cell_error) ->
        Alcotest.fail ("unexpected cell failure: " ^ e.Exec.ce_message))
    results

let test_parallel_bit_identical () =
  let specs = subgrid "pool-determinism" in
  let seq = oks (Exec.cells Exec.sequential specs) in
  let par = oks (Exec.cells { Exec.sequential with Exec.jobs = 4 } specs) in
  Alcotest.(check bool)
    "3x3 grid byte-identical across jobs=1/jobs=4" true
    (String.equal (marshal_bytes seq) (marshal_bytes par))

let test_catalog_report_bit_identical () =
  let seq = Catalog.run ~seed:"pool-report" "all-sphincs" in
  let par =
    Catalog.run ~seed:"pool-report"
      ~exec:(Exec.create ~jobs:4 ()) "all-sphincs"
  in
  Alcotest.(check string) "rendered report identical" seq par

(* ---- result cache ---------------------------------------------------------- *)

let temp_cache_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pqtls-cache-test-%d-%.0f" (Unix.getpid ())
         (Clock.now_s () *. 1e6))
  in
  dir

let test_cache_roundtrip () =
  let dir = temp_cache_dir () in
  let specs = subgrid "pool-cache" in
  let first = Exec.create ~jobs:2 ~cache_dir:dir () in
  let cold = oks (Exec.cells first specs) in
  let c1 = Option.get first.Exec.cache in
  Alcotest.(check int) "cold run misses everything" (List.length specs)
    (Result_cache.misses c1);
  Alcotest.(check int) "cold run hits nothing" 0 (Result_cache.hits c1);
  (* a fresh context over the same directory: all cells reload *)
  let second = Exec.create ~jobs:2 ~cache_dir:dir () in
  let warm = oks (Exec.cells second specs) in
  let c2 = Option.get second.Exec.cache in
  Alcotest.(check int) "warm run executes zero cells" 0
    (Result_cache.misses c2);
  Alcotest.(check int) "warm run hits everything" (List.length specs)
    (Result_cache.hits c2);
  (* marshal bytes are not comparable across a disk round-trip (string
     sharing between outcomes is lost), so compare structurally — floats
     included, which is exact *)
  Alcotest.(check bool) "cached outcomes identical" true (cold = warm)

let test_cache_key_sensitivity () =
  let dir = temp_cache_dir () in
  let c = Result_cache.create ~dir in
  let base = Experiment.spec ~seed:"a" (kem "kyber768") (sa "dilithium3") in
  let k1 = Result_cache.key c base in
  Alcotest.(check string) "key is stable" k1 (Result_cache.key c base);
  let different =
    [ Experiment.spec ~seed:"b" (kem "kyber768") (sa "dilithium3");
      Experiment.spec ~seed:"a" (kem "kyber512") (sa "dilithium3");
      Experiment.spec ~seed:"a" ~scenario:Scenario.five_g (kem "kyber768")
        (sa "dilithium3");
      Experiment.spec ~seed:"a" ~buffering:Tls.Config.Default_buffered
        (kem "kyber768") (sa "dilithium3");
      Experiment.spec ~seed:"a" ~buffer_limit:8192 (kem "kyber768")
        (sa "dilithium3") ]
  in
  List.iter
    (fun sp ->
      Alcotest.(check bool)
        ("distinct key for " ^ Experiment.spec_fingerprint sp)
        false
        (String.equal k1 (Result_cache.key c sp)))
    different

let test_cache_corrupt_entry_is_miss () =
  let dir = temp_cache_dir () in
  let c = Result_cache.create ~dir in
  let spec = List.hd (subgrid "pool-corrupt") in
  let k = Result_cache.key c spec in
  Alcotest.(check bool) "first is a miss" true (Result_cache.find c k = None);
  let o1 = Experiment.run_spec spec in
  Result_cache.store c k o1;
  (* clobber the entry on disk; the reader must fall back to executing *)
  let oc = open_out_bin (Filename.concat dir (k ^ ".outcome")) in
  output_string oc "not a marshalled outcome";
  close_out oc;
  Alcotest.(check bool) "corrupt entry re-executes" true
    (Result_cache.find c k = None);
  let o2 = Experiment.run_spec spec in
  Alcotest.(check bool) "and returns the same outcome" true (o1 = o2);
  Result_cache.store c k o2;
  Alcotest.(check bool) "repaired entry now hits" true
    (Result_cache.find c k = Some o1);
  Alcotest.(check (pair int int)) "hits and misses counted" (1, 2)
    (Result_cache.hits c, Result_cache.misses c)

(* ---- farm cells in the cache ----------------------------------------------- *)

let farm_grid seed =
  List.map
    (fun profile ->
      Experiment.farm_spec ~seed ~profile ~servers:2 ~duration_s:0.2
        ~max_connections:120 (kem "kyber768") (sa "dilithium3"))
    [ "poisson"; "flash-crowd" ]

let files_with ext dir =
  List.filter (fun f -> Filename.check_suffix f ext)
    (List.sort compare (Array.to_list (Sys.readdir dir)))

let artifact ~seed (exec : Exec.t) =
  Metrics.to_json_string (Metrics.artifact exec.Exec.metrics ~seed)

let test_farm_cache_roundtrip () =
  let dir = temp_cache_dir () in
  let specs = farm_grid "pool-farm-cache" in
  let n = List.length specs in
  let first = Exec.create ~jobs:1 ~cache_dir:dir () in
  let cold = Exec.farm_cells first specs in
  let c1 = Option.get first.Exec.cache in
  Alcotest.(check (pair int int)) "cold run misses every cell" (0, n)
    (Result_cache.hits c1, Result_cache.misses c1);
  Alcotest.(check int) "one .farm entry per cell" n
    (List.length (files_with ".farm" dir));
  let second = Exec.create ~jobs:2 ~cache_dir:dir () in
  let warm = Exec.farm_cells second specs in
  let c2 = Option.get second.Exec.cache in
  Alcotest.(check (pair int int)) "warm run hits every cell" (n, 0)
    (Result_cache.hits c2, Result_cache.misses c2);
  Alcotest.(check bool) "cached farm outcomes identical" true
    (List.for_all Result.is_ok cold && cold = warm);
  Alcotest.(check string) "artifact identical at jobs 1 (cold) and 2 (warm)"
    (artifact ~seed:"pool-farm-cache" first)
    (artifact ~seed:"pool-farm-cache" second)

(* a standard and a farm cell in one directory: each kind only ever
   reads its own files, even when the other kind's bytes sit at its
   path *)
let test_cache_kinds_isolated () =
  let dir = temp_cache_dir () in
  let spec = List.hd (subgrid "pool-kinds") in
  let fspec = List.hd (farm_grid "pool-kinds") in
  let run () =
    let exec = Exec.create ~jobs:1 ~cache_dir:dir () in
    let r = Exec.cell exec spec and fr = Exec.farm_cells exec [ fspec ] in
    let c = Option.get exec.Exec.cache in
    (r, fr, (Result_cache.hits c, Result_cache.misses c))
  in
  let r1, fr1, counts1 = run () in
  Alcotest.(check (pair int int)) "cold: both miss" (0, 2) counts1;
  let outcome_file, farm_file =
    match (files_with ".outcome" dir, files_with ".farm" dir) with
    | [ o ], [ f ] -> (Filename.concat dir o, Filename.concat dir f)
    | _ -> Alcotest.fail "expected one entry of each kind"
  in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let write f s = Out_channel.with_open_bin f (fun oc -> output_string oc s) in
  let outcome_bytes = read outcome_file and farm_bytes = read farm_file in
  write outcome_file farm_bytes;
  write farm_file outcome_bytes;
  let r2, fr2, counts2 = run () in
  Alcotest.(check (pair int int)) "swapped entries: both miss" (0, 2) counts2;
  let r3, fr3, counts3 = run () in
  Alcotest.(check (pair int int)) "rewritten entries: both hit" (2, 0) counts3;
  Alcotest.(check bool) "outcomes unchanged" true
    (Result.is_ok r1 && r1 = r2 && r2 = r3
    && List.for_all Result.is_ok fr1 && fr1 = fr2 && fr2 = fr3)

(* one flipped bit anywhere in an entry — magic, digest or payload, of
   either kind — must read as a miss and re-execute the cell: nothing
   corrupt is ever unmarshalled, and the artifact does not move *)
let test_cache_bit_flip_is_miss () =
  let dir = temp_cache_dir () in
  let seed = "pool-bitflip" in
  let spec = List.hd (subgrid seed) and fspec = List.hd (farm_grid seed) in
  let run () =
    let exec = Exec.create ~jobs:1 ~cache_dir:dir () in
    let r = Exec.cell exec spec and fr = Exec.farm_cells exec [ fspec ] in
    let c = Option.get exec.Exec.cache in
    Alcotest.(check bool) "cells ok" true
      (Result.is_ok r && List.for_all Result.is_ok fr);
    ((Result_cache.hits c, Result_cache.misses c), artifact ~seed exec)
  in
  let _, clean = run () in
  let entries =
    List.map
      (fun f ->
        let f = Filename.concat dir f in
        (f, In_channel.with_open_bin f In_channel.input_all))
      (files_with ".outcome" dir @ files_with ".farm" dir)
  in
  Alcotest.(check int) "one entry per kind" 2 (List.length entries);
  let write f s = Out_channel.with_open_bin f (fun oc -> output_string oc s) in
  List.iter
    (fun (f, bytes) ->
      let n = String.length bytes in
      List.iteri
        (fun i off ->
          let b = Bytes.of_string bytes in
          Bytes.set b off
            (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl (i mod 8))));
          write f (Bytes.to_string b);
          let where = Printf.sprintf "%s @%d" (Filename.extension f) off in
          let counts, a = run () in
          Alcotest.(check (pair int int)) (where ^ ": a miss") (1, 1) counts;
          Alcotest.(check string) (where ^ ": artifact unchanged") clean a;
          Alcotest.(check string) (where ^ ": entry rewritten") bytes
            (In_channel.with_open_bin f In_channel.input_all))
        [ 0; 13; 20; 40; n / 3; n / 2; (2 * n) / 3; n - 1 ])
    entries

let test_catalog_aliases () =
  Alcotest.(check string) "table2a resolves" "all-kem"
    (Catalog.resolve "table2a");
  Alcotest.(check string) "identity otherwise" "attack"
    (Catalog.resolve "attack");
  Alcotest.(check string) "alias and canonical describe the same campaign"
    (Catalog.describe "all-kem")
    (Catalog.describe "table2a")

(* the paper's remaining artifacts and the [paper] umbrella are catalog
   entries like any other: listed (so [list --json] shows them),
   described, and resolved to themselves *)
let test_catalog_paper_targets () =
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " listed") true (List.mem n Catalog.names);
      Alcotest.(check string) (n ^ " resolves to itself") n (Catalog.resolve n);
      Alcotest.(check bool) (n ^ " described") true (Catalog.describe n <> ""))
    [ "figure3"; "table3"; "figure4"; "ablation"; "paper" ];
  let exec = Exec.create ~jobs:2 () in
  let part n = Catalog.run ~seed:"pool-ablation" ~exec n in
  Alcotest.(check string) "ablation = buffer, then cwnd, then hrr"
    (part "ablation-buffer" ^ part "ablation-cwnd" ^ part "ablation-hrr")
    (part "ablation")

let suites =
  [ ( "pool",
      [ Alcotest.test_case "pool map = List.map" `Quick test_pool_matches_map;
        Alcotest.test_case "pool on_done reporting" `Quick test_pool_on_done;
        Alcotest.test_case "pool exception propagation" `Quick
          test_pool_exception;
        Alcotest.test_case "parallel 3x3 grid bit-identical" `Slow
          test_parallel_bit_identical;
        Alcotest.test_case "parallel catalog report identical" `Slow
          test_catalog_report_bit_identical ] );
    ( "result-cache",
      [ Alcotest.test_case "cold/warm roundtrip, zero re-execution" `Slow
          test_cache_roundtrip;
        Alcotest.test_case "key sensitivity" `Quick test_cache_key_sensitivity;
        Alcotest.test_case "corrupt entry is a miss" `Quick
          test_cache_corrupt_entry_is_miss;
        Alcotest.test_case "farm cells cold/warm, jobs 1 = jobs 2" `Slow
          test_farm_cache_roundtrip;
        Alcotest.test_case "standard and farm entries never cross" `Slow
          test_cache_kinds_isolated;
        Alcotest.test_case "bit flip in an entry is a miss" `Slow
          test_cache_bit_flip_is_miss;
        Alcotest.test_case "catalog aliases" `Quick test_catalog_aliases;
        Alcotest.test_case "catalog paper targets" `Slow
          test_catalog_paper_targets ] ) ]
