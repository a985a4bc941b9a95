(* Real-time profiling of the pure-OCaml substrates. Two deliberate
   design points:

   - Iteration counts come from a static, hand-written cost-estimate
     table, NOT from a calibration run: the estimates are coarse (they
     were eyeballed from one machine) but they are code constants, so
     the sampling plan — and with it the artifact's entire shape — is a
     pure function of the registries, identical on every machine and
     across [--jobs].

   - The only wall-clock reads go through {!Clock}; everything measured
     here is explicitly volatile and never feeds back into a campaign
     outcome. *)

type group = Ka | Sa | Kernel

let group_name = function Ka -> "ka" | Sa -> "sa" | Kernel -> "kernel"

type op = {
  op_name : string;
  op_group : group;
  op_alg : string;
  op_kind : string;
  op_samples : int;
  op_batch : int;
  op_warmup : int;
  op_prepare : unit -> unit -> unit;
}

(* --- the sampling plan ------------------------------------------- *)

let budget_ms = 2.0

(* Rough pure-OCaml per-op milliseconds for one component algorithm.
   Encapsulation doubles EC work (ephemeral keygen + shared secret) and
   verification doubles ECDSA work (two scalar muls), hence the [ev]
   split. Only the order of magnitude matters: it picks batch sizes. *)
let component_est ~kind name =
  let ev = kind = "encaps" || kind = "verify" in
  match name with
  | "x25519" -> 0.05
  | "p256" -> if ev then 50. else 25.
  | "p384" -> if ev then 140. else 70.
  | "p521" -> if ev then 300. else 150.
  | "kyber512" | "kyber768" | "kyber1024" -> 0.6
  | "kyber90s512" -> 0.6
  | "kyber90s768" -> 1.
  | "kyber90s1024" -> 1.5
  | "bikel1" | "bikel3" | "hqc128" | "hqc192" | "hqc256" -> 1.5
  | "falcon512" | "falcon1024" -> 0.3
  | "dilithium2" | "dilithium3" | "dilithium5" -> 2.5
  | "dilithium2_aes" -> 3.
  | "dilithium3_aes" -> 5.
  | "dilithium5_aes" -> 8.
  | "sphincs128" ->
      if kind = "sign" then 1100. else if kind = "verify" then 40. else 30.
  | "sphincs192" ->
      if kind = "sign" then 1550. else if kind = "verify" then 55. else 35.
  | "sphincs256" ->
      if kind = "sign" then 3300. else if kind = "verify" then 50. else 125.
  | "rsa:1024" ->
      if kind = "sign" then 8. else if kind = "verify" then 0.5 else 0.1
  | "rsa:2048" ->
      if kind = "sign" then 55. else if kind = "verify" then 1.5 else 0.1
  | "rsa:3072" | "rsa3072" ->
      if kind = "sign" then 170. else if kind = "verify" then 3. else 0.1
  | "rsa:4096" ->
      if kind = "sign" then 370. else if kind = "verify" then 5. else 0.1
  | "keccak-f1600" | "aes256-block" -> 0.002
  | "aes128-gcm-seal-1k" -> 0.05
  | "kyber-ntt" | "dilithium-ntt" | "sha256-1k" -> 0.01
  | "hkdf-sha256" -> 0.02
  | _ -> 1.

(* Hybrids run both components, so their estimate is the sum; the split
   must honour the [hybrid] flag — [dilithium2_aes] contains '_' without
   being one. *)
let est ~kind ~hybrid name =
  if hybrid then
    match String.index_opt name '_' with
    | Some i ->
        component_est ~kind (String.sub name 0 i)
        +. component_est ~kind
             (String.sub name (i + 1) (String.length name - i - 1))
    | None -> component_est ~kind name
  else component_est ~kind name

let plan ~kind ~hybrid name =
  let e = est ~kind ~hybrid name in
  let batch =
    if e <= 0. then 256
    else max 1 (min 256 (int_of_float (ceil (budget_ms /. e))))
  in
  let samples = if e >= 50. then 3 else 5 in
  let warmup = if e >= 50. then 1 else 2 in
  (samples, batch, warmup)

(* Signing cost depends on the message (Dilithium loops on rejection
   sampling), so timing one reused message measures one rejection count
   forever. Sign and verify instead cycle through [messages] drawn from
   the op's seed, one per iteration. The set size comes from the static
   plan, capped at 8, so it is the same on every host. *)
let message_count ~kind ~hybrid name =
  let samples, batch, warmup = plan ~kind ~hybrid name in
  min 8 (warmup + (samples * batch))

let cycle items f =
  let i = ref 0 in
  fun () ->
    let x = items.(!i) in
    i := (!i + 1) mod Array.length items;
    f x

(* --- the registry ------------------------------------------------- *)

let make_op ~group ~alg ~kind ~hybrid prepare =
  let samples, batch, warmup = plan ~kind ~hybrid alg in
  let name =
    match group with Kernel -> "kernel " ^ alg | Ka | Sa -> kind ^ " " ^ alg
  in
  { op_name = name;
    op_group = group;
    op_alg = alg;
    op_kind = kind;
    op_samples = samples;
    op_batch = batch;
    op_warmup = warmup;
    op_prepare = prepare }

let ka_ops (k : Pqc.Kem.t) =
  let rng kind = Crypto.Drbg.create ~seed:("profile/ka/" ^ kind ^ "/" ^ k.name) in
  [ make_op ~group:Ka ~alg:k.name ~kind:"keygen" ~hybrid:k.hybrid (fun () ->
        let rng = rng "keygen" in
        fun () -> ignore (k.keygen rng : Pqc.Kem.keypair));
    make_op ~group:Ka ~alg:k.name ~kind:"encaps" ~hybrid:k.hybrid (fun () ->
        let rng = rng "encaps" in
        let kp = k.keygen rng in
        fun () -> ignore (k.encaps rng kp.public : string * string));
    make_op ~group:Ka ~alg:k.name ~kind:"decaps" ~hybrid:k.hybrid (fun () ->
        let rng = rng "decaps" in
        let kp = k.keygen rng in
        let ct, _ = k.encaps rng kp.public in
        fun () -> ignore (k.decaps kp.secret ct : string)) ]

let sa_ops (s : Pqc.Sigalg.t) =
  let rng kind = Crypto.Drbg.create ~seed:("profile/sa/" ^ kind ^ "/" ^ s.name) in
  (* CertificateVerify-sized messages: 64-byte transcript-hash blocks *)
  let messages kind rng =
    Array.init (message_count ~kind ~hybrid:s.hybrid s.name) (fun _ ->
        Crypto.Drbg.generate rng 64)
  in
  [ make_op ~group:Sa ~alg:s.name ~kind:"keygen" ~hybrid:s.hybrid (fun () ->
        let rng = rng "keygen" in
        fun () -> ignore (s.keygen rng : Pqc.Sigalg.keypair));
    make_op ~group:Sa ~alg:s.name ~kind:"sign" ~hybrid:s.hybrid (fun () ->
        let rng = rng "sign" in
        let kp = s.keygen rng in
        cycle (messages "sign" rng) (fun m ->
            ignore (s.sign rng ~secret:kp.secret m : string)));
    make_op ~group:Sa ~alg:s.name ~kind:"verify" ~hybrid:s.hybrid (fun () ->
        let rng = rng "verify" in
        let kp = s.keygen rng in
        let signed =
          Array.map
            (fun m -> (m, s.sign rng ~secret:kp.secret m))
            (messages "verify" rng)
        in
        cycle signed (fun (m, sg) ->
            ignore (s.verify ~public:kp.public ~msg:m sg : bool))) ]

let kernel_ops () =
  let kernel alg prepare = make_op ~group:Kernel ~alg ~kind:"kernel" ~hybrid:false prepare in
  [ kernel "keccak-f1600" (fun () -> Crypto.Keccak.bench_permutation ());
    kernel "kyber-ntt" (fun () -> Pqc.Kyber.bench_ntt ());
    kernel "dilithium-ntt" (fun () -> Pqc.Dilithium.bench_ntt ());
    kernel "hkdf-sha256" (fun () ->
        let salt = String.make 32 '\007' and ikm = String.make 32 '\042' in
        fun () ->
          let prk = Crypto.Hkdf.extract Crypto.Hmac.sha256 ~salt ~ikm in
          ignore (Crypto.Hkdf.expand Crypto.Hmac.sha256 ~prk ~info:"profile" 32
                  : string));
    kernel "sha256-1k" (fun () ->
        let m = String.init 1024 (fun i -> Char.chr (i land 0xff)) in
        fun () -> ignore (Crypto.Sha256.digest m : string));
    kernel "aes256-block" (fun () ->
        let k = Crypto.Aes.expand_key (String.init 32 Char.chr) in
        let b = String.make 16 '\xa5' in
        fun () -> ignore (Crypto.Aes.encrypt_block k b : string));
    kernel "aes128-gcm-seal-1k" (fun () ->
        let k = Crypto.Aes_gcm.of_secret (String.init 16 Char.chr) in
        let nonce = String.make 12 '\001' and m = String.make 1024 '\042' in
        fun () -> ignore (Crypto.Aes_gcm.seal k ~nonce ~ad:"" m : string)) ]

let registry () =
  List.concat_map ka_ops Pqc.Registry.kems
  @ List.concat_map sa_ops Pqc.Registry.sigs
  @ kernel_ops ()

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  if nl = 0 then true
  else begin
    let found = ref false in
    for i = 0 to hl - nl do
      if (not !found) && String.sub hay i nl = needle then found := true
    done;
    !found
  end

let filter needle ops =
  List.filter
    (fun o -> contains ~needle (group_name o.op_group ^ ":" ^ o.op_name))
    ops

(* --- measurement -------------------------------------------------- *)

type gc_delta = {
  g_minor_words : float;
  g_promoted_words : float;
  g_major_words : float;
  g_minor_collections : float;
  g_major_collections : float;
}

type measured = { p_op : op; p_time : Metrics.dist; p_gc : gc_delta }

let measure op =
  let f = op.op_prepare () in
  for _ = 1 to op.op_warmup do
    f ()
  done;
  let samples = Array.make op.op_samples 0. in
  (* a minor collection flushes the allocation counters: in native code
     [Gc.quick_stat] only accounts for words at collection boundaries,
     so without the flush a low-allocation op reads a delta of zero *)
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  for i = 0 to op.op_samples - 1 do
    let t0 = Clock.now_s () in
    for _ = 1 to op.op_batch do
      f ()
    done;
    samples.(i) <- Clock.elapsed_s t0 *. 1000. /. float_of_int op.op_batch
  done;
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  let iters = float_of_int (op.op_samples * op.op_batch) in
  let gc =
    { g_minor_words = (g1.minor_words -. g0.minor_words) /. iters;
      g_promoted_words = (g1.promoted_words -. g0.promoted_words) /. iters;
      g_major_words = (g1.major_words -. g0.major_words) /. iters;
      g_minor_collections =
        float_of_int (g1.minor_collections - g0.minor_collections) /. iters;
      g_major_collections =
        float_of_int (g1.major_collections - g0.major_collections) /. iters }
  in
  let dist =
    Metrics.dist ~seed:("profile/" ^ op.op_name) (Array.to_list samples)
  in
  (dist, gc)

(* --- campaign attribution ----------------------------------------- *)

type attr_row = {
  at_lib : string;
  at_op : string;
  at_count : int;
  at_virtual_ms : float;
  at_real_ms : float option;
}

type artifact = {
  pa_seed : string;
  pa_attr_kem : string;
  pa_attr_sig : string;
  pa_attr_scenario : string;
  pa_ops : measured list;
  pa_attribution : attr_row list;
}

let attr_kem = "kyber768"
let attr_sig = "dilithium3"

(* Map a charge label to the profiled op covering it: most labels are
   shared spellings ("encaps kyber768"), the key schedule's real cost is
   the HKDF kernel; protocol stand-ins (parse/build, per-packet kernel
   time, AEAD framing) have no profiled counterpart and stay [None]. *)
let real_key = function
  | "key schedule" -> "kernel hkdf-sha256"
  | op -> op

let attribution ~seed =
  let kem = Pqc.Kem.mocked (Pqc.Registry.find_kem attr_kem) in
  let sg = Pqc.Sigalg.mocked (Pqc.Registry.find_sig attr_sig) in
  let spec = Experiment.spec ~seed:(seed ^ "/attribution") ~max_samples:8 kem sg in
  let buf = Trace.Buf.create ~label:"profile attribution" () in
  let (_ : Experiment.outcome) = Experiment.run_spec ~trace:buf spec in
  let tbl = Hashtbl.create 64 in
  Trace.Buf.iter buf (fun ev ->
      match ev with
      | Trace.Event.Span s when s.s_cat = "cpu" ->
          let lib =
            match List.assoc_opt "lib" s.s_args with Some l -> l | None -> "?"
          in
          let count, ms =
            match Hashtbl.find_opt tbl (lib, s.s_name) with
            | Some v -> v
            | None -> (0, 0.)
          in
          Hashtbl.replace tbl (lib, s.s_name)
            (count + 1, ms +. ((s.s_end -. s.s_begin) *. 1000.))
      | _ -> ());
  let rows =
    Hashtbl.fold (fun (lib, op) (count, ms) acc -> (lib, op, count, ms) :: acc)
      tbl []
    |> List.sort (fun (l1, o1, _, m1) (l2, o2, _, m2) ->
           match compare m2 m1 with
           | 0 -> compare (l1, o1) (l2, o2)
           | c -> c)
  in
  (spec.Experiment.sp_scenario.Scenario.name, rows)

let run ?(jobs = 1) ?ops_filter ~seed () =
  let ops = registry () in
  let ops =
    match ops_filter with
    | None -> ops
    | Some needle -> (
        match filter needle ops with
        | [] ->
            invalid_arg
              (Printf.sprintf "profile: no op matches filter %S" needle)
        | l -> l)
  in
  let measured =
    Pool.map ~jobs
      (fun op ->
        let time, gc = measure op in
        { p_op = op; p_time = time; p_gc = gc })
      ops
  in
  let scenario, rows = attribution ~seed in
  let medians =
    List.map (fun m -> (m.p_op.op_name, m.p_time.Metrics.d_p50)) measured
  in
  let attribution =
    List.map
      (fun (lib, op, count, virt) ->
        { at_lib = lib;
          at_op = op;
          at_count = count;
          at_virtual_ms = virt;
          at_real_ms = List.assoc_opt (real_key op) medians })
      rows
  in
  { pa_seed = seed;
    pa_attr_kem = attr_kem;
    pa_attr_sig = attr_sig;
    pa_attr_scenario = scenario;
    pa_ops = measured;
    pa_attribution = attribution }

(* --- serialization ------------------------------------------------ *)

let schema_version = "pqtls-bench-profile/1"

(* [shape_only] zeroes every volatile leaf: what remains is a pure
   function of the registries and the attribution spec, asserted
   byte-identical across [--jobs] by test_profile.ml. *)
let json_of ~shape_only a =
  let vf v = Json.Float (if shape_only then 0. else v) in
  let dist (d : Metrics.dist) =
    Json.Obj
      [ ("n", Json.Int d.d_n);
        ("mean", vf d.d_mean);
        ("stddev", vf d.d_stddev);
        ("p5", vf d.d_p5);
        ("p25", vf d.d_p25);
        ("p50", vf d.d_p50);
        ("p75", vf d.d_p75);
        ("p95", vf d.d_p95);
        ("p99", vf d.d_p99);
        ("ci95_lo", vf d.d_ci_lo);
        ("ci95_hi", vf d.d_ci_hi) ]
  in
  let gc g =
    Json.Obj
      [ ("minor_words", vf g.g_minor_words);
        ("promoted_words", vf g.g_promoted_words);
        ("major_words", vf g.g_major_words);
        ("minor_collections", vf g.g_minor_collections);
        ("major_collections", vf g.g_major_collections) ]
  in
  let op m =
    Json.Obj
      [ ("name", Json.String m.p_op.op_name);
        ("group", Json.String (group_name m.p_op.op_group));
        ("alg", Json.String m.p_op.op_alg);
        ("kind", Json.String m.p_op.op_kind);
        ("samples", Json.Int m.p_op.op_samples);
        ("batch", Json.Int m.p_op.op_batch);
        ("warmup", Json.Int m.p_op.op_warmup);
        ("iters", Json.Int (m.p_op.op_samples * m.p_op.op_batch));
        ("time_ms", dist m.p_time);
        ("gc", gc m.p_gc) ]
  in
  let attr r =
    let real, total =
      match r.at_real_ms with
      | Some v when not shape_only ->
          (Json.Float v, Json.Float (v *. float_of_int r.at_count))
      | _ -> (Json.Null, Json.Null)
    in
    Json.Obj
      [ ("lib", Json.String r.at_lib);
        ("op", Json.String r.at_op);
        ("count", Json.Int r.at_count);
        ("virtual_ms", Json.Float r.at_virtual_ms);
        ("real_ms_per_op", real);
        ("real_ms_total", total) ]
  in
  Json.Obj
    [ ("schema", Json.String schema_version);
      ("seed", Json.String a.pa_seed);
      ("budget_ms", Json.Float budget_ms);
      ( "attribution_cell",
        Json.Obj
          [ ("kem", Json.String a.pa_attr_kem);
            ("sig", Json.String a.pa_attr_sig);
            ("scenario", Json.String a.pa_attr_scenario) ] );
      ("ops", Json.List (List.map op a.pa_ops));
      ("attribution", Json.List (List.map attr a.pa_attribution)) ]

let to_json_string a = Json.to_string (json_of ~shape_only:false a)
let shape_json_string a = Json.to_string (json_of ~shape_only:true a)

(* --- rendering ---------------------------------------------------- *)

let render_attribution a =
  let title =
    Printf.sprintf
      "Virtual vs real attribution (%s x %s, scenario %s, %d charge ops)"
      a.pa_attr_kem a.pa_attr_sig a.pa_attr_scenario
      (List.length a.pa_attribution)
  in
  let header =
    Printf.sprintf "%-10s  %-22s  %6s  %10s  %12s  %12s" "lib" "op" "count"
      "virtual ms" "real ms/op" "real ms tot"
  in
  (* display order: real wall-clock total descending — the substrates
     that dominate host time first; unmeasured stand-ins keep their
     virtual order at the bottom *)
  let display =
    List.stable_sort
      (fun r1 r2 ->
        let key r =
          match r.at_real_ms with
          | Some v -> v *. float_of_int r.at_count
          | None -> neg_infinity
        in
        compare (key r2) (key r1))
      a.pa_attribution
  in
  let rows =
    List.map
      (fun r ->
        let real, total =
          match r.at_real_ms with
          | Some v ->
              ( Printf.sprintf "%12.4f" v,
                Printf.sprintf "%12.2f" (v *. float_of_int r.at_count) )
          | None -> (Tablefmt.dash 12, Tablefmt.dash 12)
        in
        Printf.sprintf "%-10s  %-22s  %6d  %10.2f  %s  %s" r.at_lib r.at_op
          r.at_count r.at_virtual_ms real total)
      display
  in
  Tablefmt.buf_table title header rows

let render_table a =
  let title =
    Printf.sprintf "Profile: %d ops (seed %s)" (List.length a.pa_ops) a.pa_seed
  in
  let header =
    Printf.sprintf "%-28s  %10s  %10s  %10s  %10s  %12s" "op" "iters"
      "p50 ms" "p95 ms" "ci95 ms" "minor w/op"
  in
  let rows =
    List.map
      (fun m ->
        let d = m.p_time in
        Printf.sprintf "%-28s  %6dx%-3d  %10.4f  %10.4f  %10.4f  %12.0f"
          m.p_op.op_name m.p_op.op_samples m.p_op.op_batch d.Metrics.d_p50
          d.Metrics.d_p95
          (d.Metrics.d_ci_hi -. d.Metrics.d_ci_lo)
          m.p_gc.g_minor_words)
      a.pa_ops
  in
  Tablefmt.buf_table title header rows ^ "\n" ^ render_attribution a

let folded a =
  let buf = Trace.Buf.create ~label:"profile" () in
  let t = ref 0. in
  let span name t0 t1 =
    Trace.Buf.span buf ~track:"profile" ~cat:"profile" ~name t0 t1
  in
  List.iter
    (fun g ->
      match List.filter (fun m -> m.p_op.op_group = g) a.pa_ops with
      | [] -> ()
      | ops_g ->
          let g0 = !t in
          let algs =
            List.fold_left
              (fun acc m ->
                if List.mem m.p_op.op_alg acc then acc else acc @ [ m.p_op.op_alg ])
              [] ops_g
          in
          List.iter
            (fun alg ->
              let a0 = !t in
              List.iter
                (fun m ->
                  if m.p_op.op_alg = alg then begin
                    let d = m.p_time.Metrics.d_p50 /. 1000. in
                    span m.p_op.op_kind !t (!t +. d);
                    t := !t +. d
                  end)
                ops_g;
              (* parents emitted after children: on identical intervals
                 the folded exporter treats the later emission as outer *)
              span alg a0 !t)
            algs;
          span (group_name g) g0 !t)
    [ Ka; Sa; Kernel ];
  Trace.Export.folded [ buf ]

(* --- comparison --------------------------------------------------- *)

type p_op = {
  q_name : string;
  q_group : string;
  q_alg : string;
  q_kind : string;
  q_samples : int;
  q_batch : int;
  q_warmup : int;
  q_metrics : (string * float) list;
}

type p_artifact = { q_seed : string; q_ops : p_op list }

let of_json_string s =
  match Json.parse s with
  | Error e -> Error e
  | Ok j -> (
      match Json.to_str (Json.member "schema" j) with
      | Some v when v = schema_version ->
          let seed =
            Option.value ~default:"" (Json.to_str (Json.member "seed" j))
          in
          let parse_op o =
            let str k =
              Option.value ~default:"" (Json.to_str (Json.member k o))
            in
            let int k =
              Option.value ~default:0 (Json.to_int (Json.member k o))
            in
            let leaves prefix =
              match Json.to_obj (Json.member prefix o) with
              | None -> []
              | Some fields ->
                  List.filter_map
                    (fun (k, v) ->
                      Option.map
                        (fun f -> (prefix ^ "." ^ k, f))
                        (Json.to_float (Some v)))
                    fields
            in
            { q_name = str "name";
              q_group = str "group";
              q_alg = str "alg";
              q_kind = str "kind";
              q_samples = int "samples";
              q_batch = int "batch";
              q_warmup = int "warmup";
              q_metrics = leaves "time_ms" @ leaves "gc" }
          in
          let ops =
            Option.value ~default:[] (Json.to_list (Json.member "ops" j))
          in
          Ok { q_seed = seed; q_ops = List.map parse_op ops }
      | Some v ->
          Error
            (Printf.sprintf "unsupported schema %S (expected %S)" v
               schema_version)
      | None -> Error "missing schema field")

(* Of the measured leaves only the run-stable ones are judged: the
   median (robust to scheduler spikes, unlike mean/p99 over a handful of
   samples) and the minor allocation rate (a pure function of the code
   path, the most regression-sensitive signal here). *)
let judged = [ "time_ms.p50"; "gc.minor_words" ]

let diff ?(rel_tol = 0.25) a b =
  let issues = ref [] in
  let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  List.iter
    (fun qa ->
      match List.find_opt (fun qb -> qb.q_name = qa.q_name) b.q_ops with
      | None -> add "op %S missing from candidate" qa.q_name
      | Some qb ->
          if qa.q_group <> qb.q_group || qa.q_alg <> qb.q_alg
             || qa.q_kind <> qb.q_kind
          then add "op %S: identity changed" qa.q_name;
          if
            (qa.q_samples, qa.q_batch, qa.q_warmup)
            <> (qb.q_samples, qb.q_batch, qb.q_warmup)
          then
            add "op %S: iteration plan changed (%dx%d warmup %d -> %dx%d warmup %d)"
              qa.q_name qa.q_samples qa.q_batch qa.q_warmup qb.q_samples
              qb.q_batch qb.q_warmup;
          List.iter
            (fun key ->
              match
                ( List.assoc_opt key qa.q_metrics,
                  List.assoc_opt key qb.q_metrics )
              with
              | Some va, Some vb ->
                  let denom = Float.max (Float.abs va) (Float.abs vb) in
                  if denom > 0. && Float.abs (va -. vb) /. denom > rel_tol then
                    add "op %S: %s drifted %s -> %s (tol %.0f%%)" qa.q_name key
                      (Json.float_repr va) (Json.float_repr vb)
                      (rel_tol *. 100.)
              | _ -> add "op %S: metric %s missing" qa.q_name key)
            judged)
    a.q_ops;
  List.iter
    (fun qb ->
      if not (List.exists (fun qa -> qa.q_name = qb.q_name) a.q_ops) then
        add "op %S not in baseline" qb.q_name)
    b.q_ops;
  List.rev !issues
