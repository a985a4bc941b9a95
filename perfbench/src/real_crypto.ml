(* Real cryptography, one connection at a time: Tls.Handshake.run over an
   ideal Netsim link with real KEM/SA operations and real AEAD records,
   rotating through eight pairs that between them cover every kernel
   family. Exec, the result cache, Metrics and the mocks are bypassed. *)

open Common

type virt = {
  client_fin : float;
  server_fin : float;
  client_bytes : int;
  server_bytes : int;
  client_pkts : int;
  server_pkts : int;
}
(** What a handshake looks like in virtual time. *)

type handshake = {
  virt : virt;
  packets : int;  (** every packet the link tap saw, teardown included *)
  retransmissions : int;
  host_charges : int;
}

type pair = {
  names : string * string;
  real : Tls.Config.t;  (** wrapped real algorithms *)
  twin : Tls.Config.t;  (** mocked, unwrapped: the virtual reference *)
}

let label (k, s) = k ^ " x " ^ s
let request p index = Printf.sprintf "%s#%d" (label p.names) index

let prepare ~seed ~first =
  let pairs =
    List.map
      (fun (k, s) ->
        let kem = Pqc.Registry.find_kem k and sa = Pqc.Registry.find_sig s in
        { names = (k, s);
          real = Tls.Config.make (Wrap.kem kem) (Wrap.sigalg sa);
          twin = Tls.Config.mocked kem sa })
      (Grid.rotation seed)
  in
  let sas = List.map (fun p -> p.real.Tls.Config.sig_alg) pairs in
  (pairs, credentials ~first sas)

(* one connection on a fresh engine; [None] if it never finished *)
let handshake config ~seed =
  let rng = Crypto.Drbg.create ~seed in
  let engine = Netsim.Engine.create () in
  let packets = ref 0 in
  let link =
    Netsim.Link.create engine (Crypto.Drbg.fork rng "link") Netsim.Link.ideal
      ~tap:(fun _ _ -> incr packets)
  in
  let client_host = Netsim.Host.create engine ~name:"client" in
  let server_host = Netsim.Host.create engine ~name:"server" in
  let result = ref None in
  Span.with_ "tls.handshake_run" (fun () ->
      Tls.Handshake.run ~engine ~link ~tcp_config:Netsim.Tcp.default_config
        ~client_host ~server_host ~config ~rng
        ~on_done:(fun r ->
          let c = r.Tls.Handshake.client_tcp and s = r.Tls.Handshake.server_tcp in
          result :=
            Some
              ( { client_fin = r.Tls.Handshake.client_finished_at;
                  server_fin = r.Tls.Handshake.server_finished_at;
                  client_bytes = Netsim.Tcp.bytes_sent c;
                  server_bytes = Netsim.Tcp.bytes_sent s;
                  client_pkts = Netsim.Tcp.packets_sent c;
                  server_pkts = Netsim.Tcp.packets_sent s },
                Netsim.Tcp.retransmissions c + Netsim.Tcp.retransmissions s );
          Netsim.Tcp.close c;
          Netsim.Tcp.close s)
        ());
  Span.with_ "netsim.engine_run" (fun () ->
      Netsim.Engine.run engine ~until:60.);
  Option.map
    (fun (virt, retransmissions) ->
      { virt;
        packets = !packets;
        retransmissions;
        host_charges =
          Netsim.Host.charge_count client_host
          + Netsim.Host.charge_count server_host })
    !result

(* one rotation: every pair once, as handshake [index] of each *)
let rotation ~seed pairs index =
  List.map
    (fun p ->
      let hseed = Grid.handshake_seed seed p.names index in
      let t0 = now () in
      let h =
        Span.with_ ~request:(request p index) "handshake" (fun () ->
            handshake p.real ~seed:hseed)
      in
      (p, index, h, ms_since t0))
    pairs

let run ~seed ~seconds ~trace ~workdir:_ ~startup_s =
  let pairs, setup_s, cred_ms, setup_note = setup ~startup_s (prepare ~seed) in
  let t0 = now () in
  let done_ = ref [] in
  let rotation_walls =
    fill ~seconds ~since:t0 (fun () ->
        let t = now () in
        done_ := rotation ~seed pairs (List.length !done_) :: !done_;
        now () -. t)
  in
  let heap_mb = peak_heap_mb () in
  let rotations = List.length rotation_walls in
  let hss = List.concat (List.rev !done_) in
  let completed =
    List.filter_map
      (fun (p, i, h, ms) -> Option.map (fun h -> (p, i, h, ms)) h)
      hss
  in
  let failed = List.length hss - List.length completed in
  (* the mocked twins run outside every timed region *)
  let twins_agree =
    List.for_all
      (fun (p, i, h, _) ->
        match handshake p.twin ~seed:(Grid.handshake_seed seed p.names i) with
        | Some t -> compare t.virt h.virt = 0
        | None -> false)
      completed
  in
  let pair_medians =
    List.map
      (fun p ->
        ( p,
          match
            List.filter_map
              (fun (q, _, _, ms) -> if q == p then Some ms else None)
              completed
          with
          | [] -> nan
          | ms -> Stat.median ms ))
      pairs
  in
  let checks =
    [ ("every handshake completed", failed = 0);
      ("virtual results equal the mocked twins'", twins_agree) ]
  in
  (* a cell here is one rotation: each pair's handshake once *)
  let cell_ms = List.map (fun s -> s *. 1000.) rotation_walls in
  let n = List.length cell_ms in
  let end_to_end =
    if failed > 0 then []
    else
      [ { name = "setup_s"; value = setup_s; unit_ = "s" };
        { name = "hs_per_s";
          value =
            float_of_int (List.length completed)
            /. List.fold_left ( +. ) 0. rotation_walls;
          unit_ = "1/s" };
        { name = "cell_ms.p50"; value = Stat.median cell_ms; unit_ = "ms" };
        { name = "cell_ms.p90"; value = Stat.percentile 0.9 cell_ms; unit_ = "ms" };
        { name = "hs_ms.geomean";
          value = Stat.geomean (List.map snd pair_medians);
          unit_ = "ms" };
        { name = "peak_heap_mb"; value = heap_mb; unit_ = "MB" } ]
  in
  let notes =
    Printf.sprintf "real-crypto: %d rotations x %d pairs = %d handshakes"
      rotations (List.length pairs) (List.length hss)
    :: ("cell_ms (one rotation): " ^ Stat.tail_note n)
    :: setup_note
    :: List.map
         (fun (p, m) -> Printf.sprintf "  %-32s median %9.2f ms" (label p.names) m)
         pair_medians
  in
  let attempted = List.length hss in
  if not trace then
    { checks; attempted; failed; end_to_end; per_layer = []; notes; spans = [] }
  else begin
    (* the untraced reference for the overhead: the same work again,
       after the measured rotations warmed the process up and before the
       traced ones, whose spans then stay live on the heap *)
    let untraced_s =
      let t = now () in
      ignore (List.init rotations (rotation ~seed pairs));
      now () -. t
    in
    Span.start ();
    let t1 = now () in
    let traced = List.init rotations (rotation ~seed pairs) |> List.concat in
    let traced_s = now () -. t1 in
    let spans = Span.stop () in
    let tfailed = List.length (List.filter (fun (_, _, h, _) -> h = None) traced) in
    let same =
      List.length traced = List.length hss
      && List.for_all2
           (fun (_, _, a, _) (_, _, b, _) ->
             match (a, b) with
             | Some a, Some b -> compare a.virt b.virt = 0
             | _ -> false)
           traced hss
    in
    let sum f =
      List.fold_left
        (fun a (_, _, h, _) -> match h with Some h -> a + f h | None -> a)
        0 traced
    in
    let counts =
      { handshakes = List.length traced - tfailed;
        executed = 0; lookups = 0; stores = 0; records = 0; farm_records = 0;
        artifacts = 0;
        packets = sum (fun h -> h.packets);
        retransmissions = sum (fun h -> h.retransmissions);
        host_charges = sum (fun h -> h.host_charges);
        credentials_ms = cred_ms;
        cached_cells_per_s = 0.;
        retried = 0; exec_failed = 0;
        units_attempted = attempted; units_failed = failed;
        untraced_s; traced_s }
    in
    (* per pair: untraced median, then the traced mean split by pqc op,
       and what no wrapped closure accounts for *)
    let breakdown =
      let by_request = Hashtbl.create 64 in
      List.iter
        (fun (s : Span.t) ->
          let ops = Option.value ~default:[] (Hashtbl.find_opt by_request s.request) in
          Hashtbl.replace by_request s.request ((s.name, s.stop_s -. s.start_s) :: ops))
        spans;
      let header =
        Printf.sprintf "%-32s %9s %9s %9s %9s %9s %9s %9s %9s" "pair (ms)"
          "median" "traced" "keygen" "encaps" "decaps" "sign" "verify" "other"
      in
      header
      :: List.map
           (fun (p, median) ->
             let reqs =
               List.filter_map
                 (fun (q, i, _, _) ->
                   if q == p then Hashtbl.find_opt by_request (request p i)
                   else None)
                 traced
             in
             let k = float_of_int (max 1 (List.length reqs)) in
             let mean name =
               List.fold_left
                 (fun a ops ->
                   List.fold_left
                     (fun a (n, d) -> if n = name then a +. d else a)
                     a ops)
                 0. reqs
               *. 1000. /. k
             in
             let ops = List.map mean Wrap.ops in
             let total = mean "handshake" in
             Printf.sprintf "%-32s %9.2f %9.2f %s %9.2f" (label p.names) median
               total
               (String.concat " " (List.map (Printf.sprintf "%9.2f") ops))
               (total -. List.fold_left ( +. ) 0. ops))
           pair_medians
    in
    { checks = checks @ [ ("traced outcomes equal untraced outcomes", same) ];
      attempted = attempted + List.length traced;
      failed = failed + tfailed;
      end_to_end;
      per_layer = per_layer spans counts;
      notes = notes @ breakdown @ layer_summary spans ~traced_s ~untraced_s;
      spans }
  end
