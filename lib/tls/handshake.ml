module K = Key_schedule
module M = Messages

type result = {
  client_finished_at : float;
  server_finished_at : float;
  client_tcp : Netsim.Tcp.t;
  server_tcp : Netsim.Tcp.t;
  resumed : bool;
  early_data_bytes : int;
}

type session = {
  psk : string;  (* the resumption PSK (client side of section 4.6.1) *)
  ticket : string;  (* the opaque STEK-sealed server ticket *)
  age_add : int;
  max_early_data : int;
}

let charge host (op : Pqc.Costs.op) k =
  Netsim.Host.charge host ~op:op.Pqc.Costs.label ~ms:op.Pqc.Costs.ms
    ~lib:(Pqc.Costs.lib_name op.Pqc.Costs.lib) ~k

let charge_n host (op : Pqc.Costs.op) n k =
  Netsim.Host.charge host ~op:op.Pqc.Costs.label
    ~ms:(op.Pqc.Costs.ms *. float_of_int n)
    ~lib:(Pqc.Costs.lib_name op.Pqc.Costs.lib) ~k

let ccs_record = Wire.record Wire.Content_type.Change_cipher_spec "\x01"

let make_record cfg traffic_secret =
  if cfg.Config.null_records then Record.create_null ()
  else Record.create (K.traffic_keys traffic_secret)

(* ---- session tickets (stateless STEK sealing) --------------------------- *)

(* Tickets are sealed under a Session-Ticket-Encryption-Key the server
   never shares: the record machinery doubles as the AEAD so mocked runs
   keep exact ticket sizes (Record.create_null is size-preserving). The
   plaintext is the PSK plus fixed padding, so every ticket has the same
   realistic ~150 B wire footprint. *)
let ticket_padding = 96
let ticket_lifetime_s = 7200
let default_max_early_data = 16384
let early_data_size = 256

let stek_record ~config ~ticket_key =
  let secret = Crypto.Hkdf.extract K.hash ~salt:"pqtls stek" ~ikm:ticket_key in
  make_record config secret

let seal_ticket ~config ~ticket_key psk =
  Record.seal
    (stek_record ~config ~ticket_key)
    Wire.Content_type.Application_data
    (psk ^ String.make ticket_padding '\000')

let open_ticket ~config ~ticket_key ticket =
  if String.length ticket < 5 then raise (Wire.Decode_error "short ticket");
  let body = String.sub ticket 5 (String.length ticket - 5) in
  match
    (Record.open_ (stek_record ~config ~ticket_key) body
    [@lint.declassify
      "AEAD open on an attacker-supplied ticket: the success bit and \
       plaintext length are inherently wire-observable (the server \
       either resumes or falls back), the tag check inside Aes_gcm is \
       constant-time, and the failure arm raises a constant payload — \
       no key bytes leave this match"])
  with
  | Some (Wire.Content_type.Application_data, pt)
    when String.length pt >= K.hash.Crypto.Hmac.digest_size ->
    String.sub pt 0 K.hash.Crypto.Hmac.digest_size
  | _ -> raise (Wire.Decode_error "ticket decryption failed")

(* HelloRetryRequest: a ServerHello whose random is the RFC 8446 magic *)
let hrr_random =
  Crypto.Bytesx.of_hex
    "cf21ad74e59a6111be1d8c021e65b891c2a211167abb8c5e079e09e2c8a8339c"

let encode_hrr ~session_id ~group =
  M.encode_server_hello
    { M.sh_random = hrr_random; sh_session_id = session_id; sh_group = group;
      sh_key_share = ""; sh_psk_selected = false }

let is_hrr (sh : M.server_hello) =
  Crypto.Bytesx.equal_ct sh.M.sh_random hrr_random


(* ---- per-peer plumbing -------------------------------------------------- *)

type peer = {
  host : Netsim.Host.t;
  tcp : Netsim.Tcp.t;
  inbound : Codec.Inbound.t;
  mutable transcript : Transcript.t;
  mutable busy : bool;
  mutable done_ : bool;
  mutable dispatch : peer -> string -> unit;
  mutable on_app : peer -> string -> unit;
}

let rec make_peer host tcp =
  let p =
    { host; tcp; inbound = Codec.Inbound.create ();
      transcript = Transcript.create (); busy = false; done_ = false;
      dispatch = (fun _ _ -> ());
      on_app =
        (fun _ _ -> raise (Wire.Decode_error "unexpected application data")) }
  in
  Netsim.Tcp.on_receive tcp (fun bytes ->
      Codec.Inbound.feed p.inbound bytes;
      step p);
  p

and step p =
  if (not p.busy) && not p.done_ then begin
    match Codec.Inbound.next p.inbound with
    | Codec.Inbound.Need_more_data -> ()
    | Codec.Inbound.Change_cipher_spec -> step p
    | Codec.Inbound.Application_data frag ->
      (* 0-RTT early data: delivered through the same busy-gated CPS
         path as handshake messages so CPU serialization holds *)
      p.busy <- true;
      if Trace.Sink.enabled () then
        Trace.Sink.begin_span
          ~track:(Netsim.Host.name p.host)
          ~cat:"message" ~name:"0RTT"
          (Netsim.Host.now p.host);
      p.on_app p frag
    | Codec.Inbound.Handshake_message msg ->
      p.busy <- true;
      (* a "message" span covers the whole dispatch of one inbound
         handshake message, CPU charges included: it opens here and the
         matching [finish_step] closes it (the state machines are CPS,
         so dispatch completion is exactly the finish_step call) *)
      if Trace.Sink.enabled () then
        Trace.Sink.begin_span
          ~track:(Netsim.Host.name p.host)
          ~cat:"message"
          ~name:(Wire.Handshake_type.label (M.handshake_type msg))
          (Netsim.Host.now p.host);
      p.dispatch p msg
  end

let finish_step p =
  if Trace.Sink.enabled () then
    Trace.Sink.end_span
      ~track:(Netsim.Host.name p.host)
      (Netsim.Host.now p.host);
  p.busy <- false;
  step p

(* RFC 8446 4.4.1: after an HRR, CH1 is replaced in the transcript by a
   synthetic message_hash message *)
let restart_transcript_after_ch1 (p : peer) hrr_msg =
  let ch1_hash = Transcript.current p.transcript in
  let fresh = Transcript.create () in
  Transcript.add fresh ("\xfe\x00\x00" ^ String.make 1 (Char.chr 32) ^ ch1_hash);
  Transcript.add fresh hrr_msg;
  p.transcript <- fresh

(* ---- outgoing flight buffer (models the OpenSSL BIO buffer) ------------ *)

type flight = {
  cfg : Config.t;
  peer : peer;
  buf : Buffer.t;
  mutable fmarks : (int * string) list;
}

let make_flight cfg peer = { cfg; peer; buf = Buffer.create 4096; fmarks = [] }

let flight_flush f =
  if Buffer.length f.buf > 0 then begin
    Netsim.Tcp.write f.peer.tcp ~marks:(List.rev f.fmarks) (Buffer.contents f.buf);
    Buffer.clear f.buf;
    f.fmarks <- []
  end

let flight_append f ?label records =
  (match label with
  | Some l -> f.fmarks <- (Buffer.length f.buf, l) :: f.fmarks
  | None -> ());
  Buffer.add_string f.buf records

(* Default-buffered mode: adding data that would overflow the BIO buffer
   first flushes what is pending; oversized chunks then go straight out. *)
let flight_emit f ?label records =
  match f.cfg.Config.buffering with
  | Config.Optimized_push -> flight_append f ?label records
  | Config.Default_buffered ->
    let len = String.length records in
    if Buffer.length f.buf + len > f.cfg.Config.buffer_limit then flight_flush f;
    if len > f.cfg.Config.buffer_limit then
      Netsim.Tcp.write f.peer.tcp
        ~marks:(match label with Some l -> [ (0, l) ] | None -> [])
        records
    else flight_append f ?label records

(* flush point honoured only by the optimized server *)
let flight_push_point f =
  match f.cfg.Config.buffering with
  | Config.Optimized_push -> flight_flush f
  | Config.Default_buffered -> ()

(* ---- server ------------------------------------------------------------- *)

type server_ctx = {
  s_cfg : Config.t;
  s_creds : Credentials.t;
  s_rng : Crypto.Drbg.t;
  s_flight : flight;
  s_issue_ticket : bool;
  s_ticket_key : string;
  mutable s_secrets : K.secrets option;
  mutable s_write : Record.t option;
  mutable s_client_hs_secret : string;
  mutable s_sfin_hash : string;  (* transcript hash at the server Finished *)
  mutable s_early_bytes : int;
  mutable s_expect :
    [ `Client_hello | `End_of_early_data | `Client_finished ];
  s_on_done : unit -> unit;
}

let server_encrypt ctx msg =
  match ctx.s_write with
  | None -> Codec.fragment_plaintext msg
  | Some crypt -> Codec.fragment_encrypted crypt msg

let kem_costs cfg = Pqc.Costs.kem cfg.Config.kem.Pqc.Kem.name
let sig_costs cfg = Pqc.Costs.sig_ cfg.Config.sig_alg.Pqc.Sigalg.name

(* per-fragment AEAD cost, scaled to the fragment size *)
let aead_cost len =
  { Pqc.Costs.aead_per_kilobyte with
    Pqc.Costs.ms =
      Pqc.Costs.aead_per_kilobyte.Pqc.Costs.ms
      *. (float_of_int len /. 1024.) }

(* The psk_dhe_ke resumption flight (section 2.2): binder verification,
   then ServerHello/EncryptedExtensions/Finished — no Certificate, no
   CertificateVerify, no signature. *)
let server_on_resumption ctx (p : peer) msg (ch : M.client_hello) offer =
  let cfg = ctx.s_cfg in
  let psk = open_ticket ~config:cfg ~ticket_key:ctx.s_ticket_key
              offer.M.psk_identity in
  (* early secret + binder key + binder MAC *)
  charge_n p.host Pqc.Costs.key_schedule_derive 3 @@ fun () ->
  let early_secret = K.early_secret ~psk () in
  let binder_key = K.binder_key ~early_secret in
  let truncated_hash =
    K.hash.Crypto.Hmac.digest (M.truncated_client_hello ch)
  in
  let expected =
    K.binder_mac ~binder_key ~truncated_transcript_hash:truncated_hash
  in
  if not (Crypto.Bytesx.equal_ct offer.M.psk_binder expected) then
    raise (Wire.Decode_error "PSK binder mismatch");
  Transcript.add p.transcript msg;
  charge p.host (kem_costs cfg).Pqc.Costs.kem_encaps @@ fun () ->
  let ct, shared_secret =
    cfg.Config.kem.Pqc.Kem.encaps ctx.s_rng ch.M.key_share
  in
  let sh =
    M.encode_server_hello
      { M.sh_random = Crypto.Drbg.generate ctx.s_rng 32;
        sh_session_id = ch.M.session_id;
        sh_group = cfg.Config.kem.Pqc.Kem.name;
        sh_key_share = ct;
        sh_psk_selected = true }
  in
  Transcript.add p.transcript sh;
  charge p.host Pqc.Costs.build_server_flight @@ fun () ->
  charge_n p.host Pqc.Costs.key_schedule_derive 4 @@ fun () ->
  let secrets =
    K.handshake_secrets ~psk ~shared_secret
      ~hello_transcript_hash:(Transcript.current p.transcript) ()
  in
  ctx.s_secrets <- Some secrets;
  ctx.s_client_hs_secret <- secrets.K.client_handshake_traffic;
  flight_emit ctx.s_flight ~label:"SH" (Codec.fragment_plaintext sh);
  flight_emit ctx.s_flight ccs_record;
  ctx.s_write <- Some (make_record cfg secrets.K.server_handshake_traffic);
  flight_push_point ctx.s_flight;
  let ee = M.encode_encrypted_extensions ~early_data_accepted:ch.M.early_data () in
  Transcript.add p.transcript ee;
  flight_emit ctx.s_flight ~label:"EE" (server_encrypt ctx ee);
  charge p.host Pqc.Costs.key_schedule_derive @@ fun () ->
  let mac =
    K.finished_mac ~traffic_secret:secrets.K.server_handshake_traffic
      ~transcript_hash:(Transcript.current p.transcript)
  in
  let fin = M.encode_finished mac in
  Transcript.add p.transcript fin;
  ctx.s_sfin_hash <- Transcript.current p.transcript;
  flight_emit ctx.s_flight ~label:"FIN" (server_encrypt ctx fin);
  flight_flush ctx.s_flight;
  if ch.M.early_data then begin
    (* 0-RTT records arrive under the client early traffic keys; the
       client hello hash is the transcript at the CH alone *)
    charge p.host Pqc.Costs.key_schedule_derive @@ fun () ->
    let early_traffic =
      K.client_early_traffic ~early_secret
        ~client_hello_hash:(K.hash.Crypto.Hmac.digest msg)
    in
    Codec.Inbound.enable_decryption p.inbound (make_record cfg early_traffic);
    p.on_app <-
      (fun p frag ->
        charge p.host (aead_cost (String.length frag)) @@ fun () ->
        ctx.s_early_bytes <- ctx.s_early_bytes + String.length frag;
        finish_step p);
    ctx.s_expect <- `End_of_early_data;
    finish_step p
  end
  else begin
    Codec.Inbound.enable_decryption p.inbound
      (make_record cfg ctx.s_client_hs_secret);
    ctx.s_expect <- `Client_finished;
    finish_step p
  end

let server_on_client_hello ctx (p : peer) msg =
  let cfg = ctx.s_cfg in
  let parse_cost =
    { Pqc.Costs.parse_client_hello with
      Pqc.Costs.ms =
        Pqc.Costs.parse_client_hello.Pqc.Costs.ms
        +. (sig_costs cfg).Pqc.Costs.ch_overhead }
  in
  charge p.host parse_cost @@ fun () ->
  let ch = M.decode_client_hello msg in
  match ch.M.psk_offer with
  | Some offer -> server_on_resumption ctx p msg ch offer
  | None ->
  if ch.M.group <> cfg.Config.kem.Pqc.Kem.name then begin
    (* wrong key-share guess: answer with HelloRetryRequest (2-RTT path) *)
    Transcript.add p.transcript msg;
    let hrr = encode_hrr ~session_id:ch.M.session_id
                ~group:cfg.Config.kem.Pqc.Kem.name in
    restart_transcript_after_ch1 p hrr;
    charge p.host Pqc.Costs.build_server_flight @@ fun () ->
    Netsim.Tcp.write p.tcp ~marks:[ (0, "HRR") ] (Codec.fragment_plaintext hrr);
    finish_step p
  end
  else
  charge p.host (kem_costs cfg).Pqc.Costs.kem_encaps @@ fun () ->
  let ct, shared_secret = cfg.Config.kem.Pqc.Kem.encaps ctx.s_rng ch.M.key_share in
  Transcript.add p.transcript msg;
  let sh =
    M.encode_server_hello
      { M.sh_random = Crypto.Drbg.generate ctx.s_rng 32;
        sh_session_id = ch.M.session_id;
        sh_group = cfg.Config.kem.Pqc.Kem.name;
        sh_key_share = ct;
        sh_psk_selected = false }
  in
  Transcript.add p.transcript sh;
  charge p.host Pqc.Costs.build_server_flight @@ fun () ->
  charge_n p.host Pqc.Costs.key_schedule_derive 4 @@ fun () ->
  let hello_hash = Transcript.current p.transcript in
  let secrets =
    K.handshake_secrets ~shared_secret ~hello_transcript_hash:hello_hash ()
  in
  ctx.s_secrets <- Some secrets;
  ctx.s_client_hs_secret <- secrets.K.client_handshake_traffic;
  (* ServerHello and the compatibility CCS travel in the clear *)
  flight_emit ctx.s_flight ~label:"SH" (Codec.fragment_plaintext sh);
  flight_emit ctx.s_flight ccs_record;
  ctx.s_write <- Some (make_record cfg secrets.K.server_handshake_traffic);
  flight_push_point ctx.s_flight;
  (* EncryptedExtensions + Certificate do not wait for the signature *)
  let ee = M.encode_encrypted_extensions () in
  Transcript.add p.transcript ee;
  flight_emit ctx.s_flight ~label:"EE" (server_encrypt ctx ee);
  let cert_msg =
    M.encode_certificate_chain
      (Chain.wire_certs ctx.s_creds.Credentials.chain)
  in
  Transcript.add p.transcript cert_msg;
  flight_emit ctx.s_flight ~label:"CERT" (server_encrypt ctx cert_msg);
  flight_push_point ctx.s_flight;
  charge p.host (sig_costs cfg).Pqc.Costs.sign @@ fun () ->
  let cv_content =
    M.cv_signed_content ~transcript_hash:(Transcript.current p.transcript)
  in
  let signature =
    cfg.Config.sig_alg.Pqc.Sigalg.sign ctx.s_rng
      ~secret:ctx.s_creds.Credentials.server_key.Pqc.Sigalg.secret cv_content
  in
  let cv =
    M.encode_certificate_verify
      { M.cv_algorithm = cfg.Config.sig_alg.Pqc.Sigalg.name;
        cv_signature = signature }
  in
  Transcript.add p.transcript cv;
  flight_emit ctx.s_flight ~label:"CV" (server_encrypt ctx cv);
  charge p.host Pqc.Costs.key_schedule_derive @@ fun () ->
  let mac =
    K.finished_mac
      ~traffic_secret:(Option.get ctx.s_secrets).K.server_handshake_traffic
      ~transcript_hash:(Transcript.current p.transcript)
  in
  let fin = M.encode_finished mac in
  Transcript.add p.transcript fin;
  ctx.s_sfin_hash <- Transcript.current p.transcript;
  flight_emit ctx.s_flight ~label:"FIN" (server_encrypt ctx fin);
  flight_flush ctx.s_flight;
  ctx.s_expect <- `Client_finished;
  (* client Finished arrives under the client handshake traffic keys *)
  Codec.Inbound.enable_decryption p.inbound
    (make_record cfg ctx.s_client_hs_secret);
  finish_step p

let server_on_end_of_early_data ctx (p : peer) msg =
  Transcript.add p.transcript msg;
  (* the client switches to its handshake keys after EndOfEarlyData *)
  Codec.Inbound.enable_decryption p.inbound
    (make_record ctx.s_cfg ctx.s_client_hs_secret);
  ctx.s_expect <- `Client_finished;
  finish_step p

let server_on_client_finished ctx (p : peer) msg =
  charge p.host Pqc.Costs.key_schedule_derive @@ fun () ->
  let expected =
    K.finished_mac ~traffic_secret:ctx.s_client_hs_secret
      ~transcript_hash:(Transcript.current p.transcript)
  in
  if not (Crypto.Bytesx.equal_ct (M.decode_finished msg) expected) then
    raise (Wire.Decode_error "client Finished MAC mismatch");
  Transcript.add p.transcript msg;
  if ctx.s_issue_ticket then begin
    (* post-handshake NewSessionTicket under the server application
       traffic keys: res master covers the client Finished (section 7.1),
       the ticket PSK is HKDF-Expand-Label(res master, "resumption",
       nonce) and rides STEK-sealed so the server stays stateless *)
    charge_n p.host Pqc.Costs.key_schedule_derive 3 @@ fun () ->
    let secrets = Option.get ctx.s_secrets in
    let _c_app, s_app =
      K.application_secrets ~master:secrets.K.master
        ~finished_transcript_hash:ctx.s_sfin_hash
    in
    let res_master =
      K.resumption_master ~master:secrets.K.master
        ~finished_transcript_hash:(Transcript.current p.transcript)
    in
    let nonce = "\x00" in
    let psk = K.resumption_psk ~resumption_master:res_master ~ticket_nonce:nonce in
    let nst =
      M.encode_new_session_ticket
        { M.nst_lifetime = ticket_lifetime_s;
          nst_age_add =
            Crypto.Bytesx.get_u32_be (Crypto.Drbg.generate ctx.s_rng 4) 0;
          nst_nonce = nonce;
          nst_ticket =
            seal_ticket ~config:ctx.s_cfg ~ticket_key:ctx.s_ticket_key psk;
          nst_max_early_data = default_max_early_data }
    in
    let crypt = make_record ctx.s_cfg s_app in
    Netsim.Tcp.write p.tcp ~marks:[ (0, "NST") ]
      (Codec.fragment_encrypted crypt nst)
  end;
  p.done_ <- true;
  ctx.s_on_done ();
  finish_step p

let server_dispatch ctx p msg =
  match ctx.s_expect with
  | `Client_hello -> server_on_client_hello ctx p msg
  | `End_of_early_data ->
    if M.handshake_type msg <> Wire.Handshake_type.End_of_early_data then
      raise (Wire.Decode_error "expected EndOfEarlyData");
    server_on_end_of_early_data ctx p msg
  | `Client_finished -> server_on_client_finished ctx p msg

(* ---- client ------------------------------------------------------------- *)

type client_ctx = {
  c_cfg : Config.t;
  c_rng : Crypto.Drbg.t;
  c_creds : Credentials.t; (* for the trusted CA public key *)
  c_resume : session option;
  c_early_data : bool;
  c_expect_ticket : bool;
  c_on_ticket : session -> unit;
  mutable c_keypair : Pqc.Kem.keypair option;
  mutable c_session_id : string;
  mutable c_retried : bool;
  mutable c_secrets : K.secrets option;
  mutable c_early_write : Record.t option;  (* 0-RTT seal state, for EOED *)
  mutable c_sfin_hash : string;
  mutable c_expect :
    [ `Server_hello | `Encrypted_extensions | `Certificate | `Cert_verify
    | `Finished | `Ticket ];
  mutable c_server_cert : Certificate.t option;
  c_on_done : unit -> unit;
}

let client_dispatch ctx (p : peer) msg =
  let cfg = ctx.c_cfg in
  match (ctx.c_expect, M.handshake_type msg) with
  | `Server_hello, Wire.Handshake_type.Server_hello
    when is_hrr (M.decode_server_hello msg) ->
    if ctx.c_retried then raise (Wire.Decode_error "second HelloRetryRequest");
    ctx.c_retried <- true;
    charge p.host Pqc.Costs.parse_server_flight @@ fun () ->
    restart_transcript_after_ch1 p msg;
    (* now compute the share the server actually wants *)
    charge p.host (kem_costs cfg).Pqc.Costs.kem_keygen @@ fun () ->
    ctx.c_keypair <- Some (cfg.Config.kem.Pqc.Kem.keygen ctx.c_rng);
    let ch2 =
      M.encode_client_hello
        { M.random = Crypto.Drbg.generate ctx.c_rng 32;
          session_id = ctx.c_session_id;
          group = cfg.Config.kem.Pqc.Kem.name;
          key_share = (Option.get ctx.c_keypair).Pqc.Kem.public;
          sig_algs = [ cfg.Config.sig_alg.Pqc.Sigalg.name ];
          psk_offer = None;
          early_data = false }
    in
    Transcript.add p.transcript ch2;
    Netsim.Tcp.write p.tcp ~marks:[ (0, "CH2") ] (Codec.fragment_plaintext ch2);
    finish_step p
  | `Server_hello, Wire.Handshake_type.Server_hello ->
    charge p.host Pqc.Costs.parse_server_flight @@ fun () ->
    let sh = M.decode_server_hello msg in
    (if ctx.c_resume <> None && not sh.M.sh_psk_selected then
       (* a real client would fall back to a full handshake; our server
          always accepts a binder-valid offer, so this is fail-closed *)
       raise (Wire.Decode_error "server ignored the PSK offer"));
    charge p.host (kem_costs cfg).Pqc.Costs.kem_decaps @@ fun () ->
    let keypair = Option.get ctx.c_keypair in
    let shared_secret =
      cfg.Config.kem.Pqc.Kem.decaps keypair.Pqc.Kem.secret sh.M.sh_key_share
    in
    Transcript.add p.transcript msg;
    charge_n p.host Pqc.Costs.key_schedule_derive 4 @@ fun () ->
    let secrets =
      K.handshake_secrets
        ?psk:(Option.map (fun s -> s.psk) ctx.c_resume)
        ~shared_secret
        ~hello_transcript_hash:(Transcript.current p.transcript) ()
    in
    ctx.c_secrets <- Some secrets;
    Codec.Inbound.enable_decryption p.inbound
      (make_record cfg secrets.K.server_handshake_traffic);
    ctx.c_expect <- `Encrypted_extensions;
    finish_step p
  | `Encrypted_extensions, Wire.Handshake_type.Encrypted_extensions ->
    Transcript.add p.transcript msg;
    (if ctx.c_early_data && not (M.ee_early_data_accepted msg) then
       raise (Wire.Decode_error "server rejected early data"));
    (* a resumed server flight carries no Certificate/CertificateVerify *)
    ctx.c_expect <-
      (if ctx.c_resume <> None then `Finished else `Certificate);
    finish_step p
  | `Certificate, Wire.Handshake_type.Certificate ->
    let certs = M.decode_certificate_chain msg in
    let local = ctx.c_creds.Credentials.chain in
    (* PKI check: walk the received chain up to the trust anchor, one
       verification per level, each charged at its issuing SA's cost so
       the Table 3 ledger sees the per-level placement *)
    let rec charge_levels issuers k =
      match issuers with
      | [] -> k ()
      | (iss : Pqc.Sigalg.t) :: rest ->
        charge p.host (Pqc.Costs.sig_ iss.Pqc.Sigalg.name).Pqc.Costs.verify
        @@ fun () -> charge_levels rest k
    in
    charge_levels (Chain.issuer_algs local) @@ fun () ->
    if not (Chain.verify_against ~local certs) then
      raise (Wire.Decode_error "certificate chain verification failed");
    ctx.c_server_cert <- Some (List.hd certs);
    Transcript.add p.transcript msg;
    ctx.c_expect <- `Cert_verify;
    finish_step p
  | `Cert_verify, Wire.Handshake_type.Certificate_verify ->
    let cv = M.decode_certificate_verify msg in
    let content =
      M.cv_signed_content ~transcript_hash:(Transcript.current p.transcript)
    in
    charge p.host (sig_costs cfg).Pqc.Costs.verify @@ fun () ->
    let cert = Option.get ctx.c_server_cert in
    if
      not
        (cfg.Config.sig_alg.Pqc.Sigalg.verify ~public:cert.Certificate.public_key
           ~msg:content cv.M.cv_signature)
    then raise (Wire.Decode_error "CertificateVerify signature invalid");
    Transcript.add p.transcript msg;
    ctx.c_expect <- `Finished;
    finish_step p
  | `Finished, Wire.Handshake_type.Finished ->
    charge p.host Pqc.Costs.key_schedule_derive @@ fun () ->
    let secrets = Option.get ctx.c_secrets in
    let expected =
      K.finished_mac ~traffic_secret:secrets.K.server_handshake_traffic
        ~transcript_hash:(Transcript.current p.transcript)
    in
    if not (Crypto.Bytesx.equal_ct (M.decode_finished msg) expected) then
      raise (Wire.Decode_error "server Finished MAC mismatch");
    Transcript.add p.transcript msg;
    ctx.c_sfin_hash <- Transcript.current p.transcript;
    (* 0-RTT closes with EndOfEarlyData under the early keys, part of
       the transcript the client Finished covers (section 4.5) *)
    let eoed_records =
      match ctx.c_early_write with
      | Some crypt when ctx.c_early_data ->
        let eoed = M.encode_end_of_early_data () in
        Transcript.add p.transcript eoed;
        Codec.fragment_encrypted crypt eoed
      | _ -> ""
    in
    charge p.host Pqc.Costs.build_client_finished @@ fun () ->
    let mac =
      K.finished_mac ~traffic_secret:secrets.K.client_handshake_traffic
        ~transcript_hash:(Transcript.current p.transcript)
    in
    let fin = M.encode_finished mac in
    Transcript.add p.transcript fin;
    let crypt = make_record cfg secrets.K.client_handshake_traffic in
    let records =
      eoed_records ^ ccs_record ^ Codec.fragment_encrypted crypt fin
    in
    Netsim.Tcp.write p.tcp ~marks:[ (0, "FIN_C") ] records;
    (* application traffic secrets, as OpenSSL derives them eagerly *)
    charge_n p.host Pqc.Costs.key_schedule_derive 2 @@ fun () ->
    if ctx.c_expect_ticket then begin
      (* stay up for the post-handshake NewSessionTicket, which arrives
         under the server application traffic keys *)
      let _c_app, s_app =
        K.application_secrets ~master:secrets.K.master
          ~finished_transcript_hash:ctx.c_sfin_hash
      in
      Codec.Inbound.enable_decryption p.inbound (make_record cfg s_app);
      ctx.c_expect <- `Ticket;
      finish_step p
    end
    else begin
      ignore
        (K.application_secrets ~master:secrets.K.master
           ~finished_transcript_hash:(Transcript.current p.transcript));
      p.done_ <- true;
      ctx.c_on_done ();
      finish_step p
    end
  | `Ticket, Wire.Handshake_type.New_session_ticket ->
    charge_n p.host Pqc.Costs.key_schedule_derive 2 @@ fun () ->
    let secrets = Option.get ctx.c_secrets in
    let nst = M.decode_new_session_ticket msg in
    (* same derivation as the server: res master over the transcript
       including the client Finished, then the per-ticket PSK *)
    let res_master =
      K.resumption_master ~master:secrets.K.master
        ~finished_transcript_hash:(Transcript.current p.transcript)
    in
    let psk =
      K.resumption_psk ~resumption_master:res_master
        ~ticket_nonce:nst.M.nst_nonce
    in
    ctx.c_on_ticket
      { psk; ticket = nst.M.nst_ticket; age_add = nst.M.nst_age_add;
        max_early_data = nst.M.nst_max_early_data };
    p.done_ <- true;
    ctx.c_on_done ();
    finish_step p
  | _, ty ->
    raise
      (Wire.Decode_error
         (Printf.sprintf "unexpected %s" (Wire.Handshake_type.label ty)))

(* ---- driver ------------------------------------------------------------- *)

let run ?resume ?(early_data = false) ?(issue_ticket = false)
    ?(ticket_key = "stek") ?(on_ticket = fun _ -> ()) ~engine ~link
    ~tcp_config ~client_host ~server_host ~config ~rng ~on_done () =
  let client_tcp, server_tcp =
    Netsim.Tcp.create_pair engine link tcp_config ~client:client_host
      ~server:server_host
  in
  let client_peer = make_peer client_host client_tcp in
  let server_peer = make_peer server_host server_tcp in
  let creds =
    Credentials.get ~profile:config.Config.chain_profile config.Config.sig_alg
  in
  let client_done_at = ref nan and server_done_at = ref nan in
  let maybe_done_ref = ref (fun () -> ()) in
  let server_ctx =
    { s_cfg = config; s_creds = creds; s_rng = Crypto.Drbg.fork rng "server";
      s_flight = make_flight config server_peer;
      s_issue_ticket = issue_ticket; s_ticket_key = ticket_key;
      s_secrets = None; s_write = None; s_client_hs_secret = "";
      s_sfin_hash = ""; s_early_bytes = 0; s_expect = `Client_hello;
      s_on_done =
        (fun () ->
          server_done_at := Netsim.Engine.now engine;
          !maybe_done_ref ()) }
  in
  let maybe_done () =
    if not (Float.is_nan !client_done_at || Float.is_nan !server_done_at) then
      on_done
        { client_finished_at = !client_done_at;
          server_finished_at = !server_done_at;
          client_tcp;
          server_tcp;
          resumed = resume <> None;
          early_data_bytes = server_ctx.s_early_bytes }
  in
  maybe_done_ref := maybe_done;
  server_peer.dispatch <- (fun p msg -> server_dispatch server_ctx p msg);
  let client_ctx =
    { c_cfg = config; c_rng = Crypto.Drbg.fork rng "client"; c_creds = creds;
      c_resume = resume; c_early_data = early_data && resume <> None;
      c_expect_ticket = issue_ticket; c_on_ticket = on_ticket;
      c_keypair = None; c_session_id = ""; c_retried = false;
      c_secrets = None; c_early_write = None; c_sfin_hash = "";
      c_expect = `Server_hello; c_server_cert = None;
      c_on_done =
        (fun () ->
          client_done_at := Netsim.Engine.now engine;
          maybe_done ()) }
  in
  client_peer.dispatch <- (fun p msg -> client_dispatch client_ctx p msg);
  (* the client pre-computes its key share, then opens the connection;
     none of this is inside the measured phases (Fig. 1). With
     [wrong_first_key_share] it guesses a group the server will refuse. *)
  let guess_cost =
    if config.Config.wrong_first_key_share then
      (Pqc.Costs.kem "x25519").Pqc.Costs.kem_keygen
    else (kem_costs config).Pqc.Costs.kem_keygen
  in
  charge client_host guess_cost @@ fun () ->
  let first_group, first_share =
    if config.Config.wrong_first_key_share then
      ("wrong-guess", Crypto.Drbg.generate client_ctx.c_rng 32)
    else begin
      client_ctx.c_keypair <-
        Some (config.Config.kem.Pqc.Kem.keygen client_ctx.c_rng);
      ( config.Config.kem.Pqc.Kem.name,
        (Option.get client_ctx.c_keypair).Pqc.Kem.public )
    end
  in
  Netsim.Tcp.connect client_tcp ~on_established:(fun () ->
      charge client_host Pqc.Costs.build_client_finished @@ fun () ->
      client_ctx.c_session_id <- Crypto.Drbg.generate client_ctx.c_rng 32;
      let base =
        { M.random = Crypto.Drbg.generate client_ctx.c_rng 32;
          session_id = client_ctx.c_session_id;
          group = first_group;
          key_share = first_share;
          sig_algs = [ config.Config.sig_alg.Pqc.Sigalg.name ];
          psk_offer = None;
          early_data = false }
      in
      match resume with
      | None ->
        let ch = M.encode_client_hello base in
        Transcript.add client_peer.transcript ch;
        Netsim.Tcp.write client_tcp ~marks:[ (0, "CH") ]
          (Codec.fragment_plaintext ch)
      | Some s ->
        (* psk_dhe_ke offer: binder over the truncated CH (computed with
           a placeholder binder of the same length, section 4.2.11.2) *)
        charge_n client_host Pqc.Costs.key_schedule_derive 3 @@ fun () ->
        let offer binder =
          { base with
            M.psk_offer =
              Some
                { M.psk_identity = s.ticket;
                  psk_obfuscated_age = s.age_add;
                  psk_binder = binder };
            early_data = client_ctx.c_early_data }
        in
        let early_secret = K.early_secret ~psk:s.psk () in
        let binder_key = K.binder_key ~early_secret in
        let truncated_hash =
          K.hash.Crypto.Hmac.digest
            (M.truncated_client_hello (offer (String.make 32 '\000')))
        in
        let binder =
          K.binder_mac ~binder_key ~truncated_transcript_hash:truncated_hash
        in
        let ch = M.encode_client_hello (offer binder) in
        Transcript.add client_peer.transcript ch;
        Netsim.Tcp.write client_tcp ~marks:[ (0, "CH") ]
          (Codec.fragment_plaintext ch);
        if client_ctx.c_early_data then begin
          charge client_host Pqc.Costs.key_schedule_derive @@ fun () ->
          let early_traffic =
            K.client_early_traffic ~early_secret
              ~client_hello_hash:(K.hash.Crypto.Hmac.digest ch)
          in
          let crypt = make_record config early_traffic in
          client_ctx.c_early_write <- Some crypt;
          let payload =
            String.make (min early_data_size s.max_early_data) 'e'
          in
          charge client_host (aead_cost (String.length payload)) @@ fun () ->
          Netsim.Tcp.write client_tcp ~marks:[ (0, "0RTT") ]
            (Codec.fragment_app crypt payload)
        end)
