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

(* [n] back-to-back runs of [op], as one CPU charge *)
let charge ?(n = 1) host (op : Pqc.Costs.op) k =
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

(* ---- shared by both sides ----------------------------------------------- *)

let plaintext = Codec.fragment (Wire.record Wire.Content_type.Handshake)

let sealed crypt ty = Codec.fragment (Record.seal crypt ty)

let kem_costs cfg = Pqc.Costs.kem cfg.Config.kem.Pqc.Kem.name
let sig_costs cfg = Pqc.Costs.sig_ cfg.Config.sig_alg.Pqc.Sigalg.name

(* per-fragment AEAD cost, scaled to the fragment size *)
let aead_cost len =
  { Pqc.Costs.aead_per_kilobyte with
    Pqc.Costs.ms =
      Pqc.Costs.aead_per_kilobyte.Pqc.Costs.ms
      *. (float_of_int len /. 1024.) }

(* the PSK binder: a MAC over the ClientHello truncated before its
   binders list (section 4.2.11.2), so the binder bytes in [ch] do not
   matter *)
let binder ~psk ch =
  K.binder_mac
    ~binder_key:(K.binder_key ~early_secret:(K.early_secret ~psk ()))
    ~truncated_transcript_hash:
      (K.hash.Crypto.Hmac.digest (M.truncated_client_hello ch))

(* Finished over the transcript so far (section 4.4.4) *)
let finished_mac (p : peer) traffic_secret =
  K.finished_mac ~traffic_secret ~transcript_hash:(Transcript.current p.transcript)

let check_finished (p : peer) ~who traffic_secret msg =
  let expected = finished_mac p traffic_secret in
  if not (Crypto.Bytesx.equal_ct (M.decode_finished msg) expected) then
    raise (Wire.Decode_error (who ^ " Finished MAC mismatch"));
  Transcript.add p.transcript msg

(* the PSK one NewSessionTicket carries: res master over the transcript
   through the client Finished (section 7.1), expanded with the ticket
   nonce (section 4.6.1) *)
let resumption_psk (p : peer) (secrets : K.secrets) nonce =
  K.resumption_psk
    ~resumption_master:
      (K.resumption_master ~master:secrets.K.master
         ~finished_transcript_hash:(Transcript.current p.transcript))
    ~ticket_nonce:nonce

let handshake_done (p : peer) on_done =
  p.done_ <- true;
  on_done ();
  finish_step p

(* ---- server ------------------------------------------------------------- *)

(* what the server keeps between its flight and the client Finished *)
type hs = {
  secrets : K.secrets;
  sfin_hash : string;  (* transcript hash at the server Finished *)
}

type server_state =
  | Wait_client_hello
  | Wait_end_of_early_data of hs
  | Wait_client_finished of hs

type server = {
  s_cfg : Config.t;
  s_creds : Credentials.t;
  s_rng : Crypto.Drbg.t;
  s_flight : flight;
  s_issue_ticket : bool;
  s_ticket_key : string;
  s_early_bytes : int ref;
  mutable s_state : server_state;
  s_on_done : unit -> unit;
}

(* the client Finished arrives under the client handshake traffic keys *)
let await_client_finished ctx (p : peer) hs =
  Codec.Inbound.enable_decryption p.inbound
    (make_record ctx.s_cfg hs.secrets.K.client_handshake_traffic);
  ctx.s_state <- Wait_client_finished hs;
  finish_step p

(* The server flight after an accepted ClientHello: ServerHello and CCS
   in the clear, then EncryptedExtensions, Certificate, CertificateVerify
   and Finished under the handshake keys. A resumed flight (psk_dhe_ke,
   section 2.2: the ClientHello carries a PSK offer, and [?psk] is its
   binder-checked PSK) has no Certificate, no CertificateVerify and no
   signature. *)
let server_flight ?psk ctx (p : peer) msg (ch : M.client_hello) =
  let cfg = ctx.s_cfg and f = ctx.s_flight in
  let resumed = ch.M.psk_offer <> None in
  let early_data = resumed && ch.M.early_data in
  Transcript.add p.transcript msg;
  charge p.host (kem_costs cfg).Pqc.Costs.kem_encaps @@ fun () ->
  let ct, shared_secret = cfg.Config.kem.Pqc.Kem.encaps ctx.s_rng ch.M.key_share in
  let sh =
    M.encode_server_hello
      { M.sh_random = Crypto.Drbg.generate ctx.s_rng 32;
        sh_session_id = ch.M.session_id;
        sh_group = cfg.Config.kem.Pqc.Kem.name;
        sh_key_share = ct;
        sh_psk_selected = resumed }
  in
  Transcript.add p.transcript sh;
  charge p.host Pqc.Costs.build_server_flight @@ fun () ->
  charge ~n:4 p.host Pqc.Costs.key_schedule_derive @@ fun () ->
  let secrets =
    K.handshake_secrets ?psk ~shared_secret
      ~hello_transcript_hash:(Transcript.current p.transcript) ()
  in
  (* ServerHello and the compatibility CCS travel in the clear *)
  flight_emit f ~label:"SH" (plaintext sh);
  flight_emit f ccs_record;
  let crypt = make_record cfg secrets.K.server_handshake_traffic in
  let emit label msg =
    Transcript.add p.transcript msg;
    flight_emit f ~label (sealed crypt Wire.Content_type.Handshake msg)
  in
  flight_push_point f;
  emit "EE" (M.encode_encrypted_extensions ~early_data_accepted:early_data ());
  (* EncryptedExtensions + Certificate do not wait for the signature *)
  let authenticate k =
    if resumed then k ()
    else begin
      emit "CERT"
        (M.encode_certificate_chain
           (Chain.wire_certs ctx.s_creds.Credentials.chain));
      flight_push_point f;
      charge p.host (sig_costs cfg).Pqc.Costs.sign @@ fun () ->
      let signature =
        cfg.Config.sig_alg.Pqc.Sigalg.sign ctx.s_rng
          ~secret:ctx.s_creds.Credentials.server_key.Pqc.Sigalg.secret
          (M.cv_signed_content ~transcript_hash:(Transcript.current p.transcript))
      in
      emit "CV"
        (M.encode_certificate_verify
           { M.cv_algorithm = cfg.Config.sig_alg.Pqc.Sigalg.name;
             cv_signature = signature });
      k ()
    end
  in
  authenticate @@ fun () ->
  charge p.host Pqc.Costs.key_schedule_derive @@ fun () ->
  emit "FIN"
    (M.encode_finished (finished_mac p secrets.K.server_handshake_traffic));
  let hs = { secrets; sfin_hash = Transcript.current p.transcript } in
  flight_flush f;
  if early_data then begin
    (* 0-RTT records arrive under the client early traffic keys; the
       client hello hash is the transcript at the CH alone *)
    charge p.host Pqc.Costs.key_schedule_derive @@ fun () ->
    let early_traffic =
      K.client_early_traffic ~early_secret:(K.early_secret ?psk ())
        ~client_hello_hash:(K.hash.Crypto.Hmac.digest msg)
    in
    Codec.Inbound.enable_decryption p.inbound (make_record cfg early_traffic);
    p.on_app <-
      (fun p frag ->
        charge p.host (aead_cost (String.length frag)) @@ fun () ->
        ctx.s_early_bytes := !(ctx.s_early_bytes) + String.length frag;
        finish_step p);
    ctx.s_state <- Wait_end_of_early_data hs;
    finish_step p
  end
  else await_client_finished ctx p hs

let server_dispatch ctx (p : peer) msg =
  let cfg = ctx.s_cfg in
  match ctx.s_state with
  | Wait_client_hello -> (
    let parse_cost =
      { Pqc.Costs.parse_client_hello with
        Pqc.Costs.ms =
          Pqc.Costs.parse_client_hello.Pqc.Costs.ms
          +. (sig_costs cfg).Pqc.Costs.ch_overhead }
    in
    charge p.host parse_cost @@ fun () ->
    let ch = M.decode_client_hello msg in
    match ch.M.psk_offer with
    | Some offer ->
      let psk =
        open_ticket ~config:cfg ~ticket_key:ctx.s_ticket_key
          offer.M.psk_identity
      in
      (* early secret + binder key + binder MAC *)
      charge ~n:3 p.host Pqc.Costs.key_schedule_derive @@ fun () ->
      if not (Crypto.Bytesx.equal_ct offer.M.psk_binder (binder ~psk ch)) then
        raise (Wire.Decode_error "PSK binder mismatch");
      server_flight ~psk ctx p msg ch
    | None when ch.M.group <> cfg.Config.kem.Pqc.Kem.name ->
      (* wrong key-share guess: answer with HelloRetryRequest (2-RTT
         path) and keep waiting for the second ClientHello *)
      Transcript.add p.transcript msg;
      let hrr =
        encode_hrr ~session_id:ch.M.session_id
          ~group:cfg.Config.kem.Pqc.Kem.name
      in
      restart_transcript_after_ch1 p hrr;
      charge p.host Pqc.Costs.build_server_flight @@ fun () ->
      Netsim.Tcp.write p.tcp ~marks:[ (0, "HRR") ] (plaintext hrr);
      finish_step p
    | None -> server_flight ctx p msg ch)
  | Wait_end_of_early_data hs ->
    if M.handshake_type msg <> Wire.Handshake_type.End_of_early_data then
      raise (Wire.Decode_error "expected EndOfEarlyData");
    Transcript.add p.transcript msg;
    (* the client switches to its handshake keys after EndOfEarlyData *)
    await_client_finished ctx p hs
  | Wait_client_finished hs ->
    charge p.host Pqc.Costs.key_schedule_derive @@ fun () ->
    check_finished p ~who:"client" hs.secrets.K.client_handshake_traffic msg;
    if ctx.s_issue_ticket then begin
      (* post-handshake NewSessionTicket under the server application
         traffic keys; the ticket PSK rides STEK-sealed so the server
         stays stateless *)
      charge ~n:3 p.host Pqc.Costs.key_schedule_derive @@ fun () ->
      let _c_app, s_app =
        K.application_secrets ~master:hs.secrets.K.master
          ~finished_transcript_hash:hs.sfin_hash
      in
      let nonce = "\x00" in
      let nst =
        M.encode_new_session_ticket
          { M.nst_lifetime = ticket_lifetime_s;
            nst_age_add =
              Crypto.Bytesx.get_u32_be (Crypto.Drbg.generate ctx.s_rng 4) 0;
            nst_nonce = nonce;
            nst_ticket =
              seal_ticket ~config:cfg ~ticket_key:ctx.s_ticket_key
                (resumption_psk p hs.secrets nonce);
            nst_max_early_data = default_max_early_data }
      in
      Netsim.Tcp.write p.tcp ~marks:[ (0, "NST") ]
        (sealed (make_record cfg s_app) Wire.Content_type.Handshake nst)
    end;
    handshake_done p ctx.s_on_done

(* ---- client ------------------------------------------------------------- *)

type client_state =
  | Wait_server_hello of {
      keypair : Pqc.Kem.keypair;  (* for the share offered in [group] *)
      group : string;
      session_id : string;
      retried : bool;  (* a HelloRetryRequest was answered *)
    }
  | Wait_encrypted_extensions of K.secrets
  | Wait_certificate of K.secrets
  | Wait_cert_verify of K.secrets * Certificate.t  (* the server leaf *)
  | Wait_finished of K.secrets
  | Wait_ticket of { secrets : K.secrets; on_ticket : session -> unit }

type client = {
  c_cfg : Config.t;
  c_rng : Crypto.Drbg.t;
  c_creds : Credentials.t; (* for the trusted CA public key *)
  c_resume : session option;
  c_early_write : Record.t option;  (* 0-RTT seal state, for EOED *)
  c_on_ticket : (session -> unit) option;
  mutable c_state : client_state;
  c_on_done : unit -> unit;
}

let client_hello cfg rng ~session_id ~group ~key_share =
  { M.random = Crypto.Drbg.generate rng 32;
    session_id;
    group;
    key_share;
    sig_algs = [ cfg.Config.sig_alg.Pqc.Sigalg.name ];
    psk_offer = None;
    early_data = false }

let send_client_hello (p : peer) label ch =
  let msg = M.encode_client_hello ch in
  Transcript.add p.transcript msg;
  Netsim.Tcp.write p.tcp ~marks:[ (0, label) ] (plaintext msg);
  msg

let client_dispatch ctx (p : peer) msg =
  let cfg = ctx.c_cfg in
  let next state =
    ctx.c_state <- state;
    finish_step p
  in
  match (ctx.c_state, M.handshake_type msg) with
  | Wait_server_hello { keypair; group; session_id; retried },
    Wire.Handshake_type.Server_hello ->
    let sh = M.decode_server_hello msg in
    if is_hrr sh then begin
      if retried then raise (Wire.Decode_error "second HelloRetryRequest");
      (* RFC 8446 4.1.4: the requested group must be one the client
         supports and not the one it already sent a share for *)
      if sh.M.sh_group <> cfg.Config.kem.Pqc.Kem.name || sh.M.sh_group = group
      then raise (Wire.Decode_error "HelloRetryRequest group not acceptable");
      charge p.host Pqc.Costs.parse_server_flight @@ fun () ->
      restart_transcript_after_ch1 p msg;
      (* now compute the share the server actually wants *)
      charge p.host (kem_costs cfg).Pqc.Costs.kem_keygen @@ fun () ->
      let keypair = cfg.Config.kem.Pqc.Kem.keygen ctx.c_rng in
      let group = sh.M.sh_group in
      ignore
        (send_client_hello p "CH2"
           (client_hello cfg ctx.c_rng ~session_id ~group
              ~key_share:keypair.Pqc.Kem.public));
      next (Wait_server_hello { keypair; group; session_id; retried = true })
    end
    else begin
      charge p.host Pqc.Costs.parse_server_flight @@ fun () ->
      (* the server must select the group of the share sent (section
         4.1.4); the configured group is the only one this client can
         complete *)
      if sh.M.sh_group <> group || group <> cfg.Config.kem.Pqc.Kem.name then
        raise (Wire.Decode_error "ServerHello group was not offered");
      (if ctx.c_resume <> None && not sh.M.sh_psk_selected then
         (* a real client would fall back to a full handshake; our server
            always accepts a binder-valid offer, so this is fail-closed *)
         raise (Wire.Decode_error "server ignored the PSK offer"));
      charge p.host (kem_costs cfg).Pqc.Costs.kem_decaps @@ fun () ->
      let shared_secret =
        cfg.Config.kem.Pqc.Kem.decaps keypair.Pqc.Kem.secret sh.M.sh_key_share
      in
      Transcript.add p.transcript msg;
      charge ~n:4 p.host Pqc.Costs.key_schedule_derive @@ fun () ->
      let secrets =
        K.handshake_secrets
          ?psk:(Option.map (fun s -> s.psk) ctx.c_resume)
          ~shared_secret
          ~hello_transcript_hash:(Transcript.current p.transcript) ()
      in
      Codec.Inbound.enable_decryption p.inbound
        (make_record cfg secrets.K.server_handshake_traffic);
      next (Wait_encrypted_extensions secrets)
    end
  | Wait_encrypted_extensions secrets, Wire.Handshake_type.Encrypted_extensions
    ->
    Transcript.add p.transcript msg;
    (if ctx.c_early_write <> None && not (M.ee_early_data_accepted msg) then
       raise (Wire.Decode_error "server rejected early data"));
    (* a resumed server flight carries no Certificate/CertificateVerify *)
    next
      (if ctx.c_resume <> None then Wait_finished secrets
       else Wait_certificate secrets)
  | Wait_certificate secrets, Wire.Handshake_type.Certificate -> (
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
    match certs with
    | leaf :: _ when Chain.verify_against ~local certs ->
      Transcript.add p.transcript msg;
      next (Wait_cert_verify (secrets, leaf))
    | _ -> raise (Wire.Decode_error "certificate chain verification failed"))
  | Wait_cert_verify (secrets, cert), Wire.Handshake_type.Certificate_verify ->
    let cv = M.decode_certificate_verify msg in
    let content =
      M.cv_signed_content ~transcript_hash:(Transcript.current p.transcript)
    in
    charge p.host (sig_costs cfg).Pqc.Costs.verify @@ fun () ->
    if
      not
        (cfg.Config.sig_alg.Pqc.Sigalg.verify
           ~public:cert.Certificate.public_key ~msg:content cv.M.cv_signature)
    then raise (Wire.Decode_error "CertificateVerify signature invalid");
    Transcript.add p.transcript msg;
    next (Wait_finished secrets)
  | Wait_finished secrets, Wire.Handshake_type.Finished -> (
    charge p.host Pqc.Costs.key_schedule_derive @@ fun () ->
    check_finished p ~who:"server" secrets.K.server_handshake_traffic msg;
    let sfin_hash = Transcript.current p.transcript in
    (* 0-RTT closes with EndOfEarlyData under the early keys, part of
       the transcript the client Finished covers (section 4.5) *)
    let eoed_records =
      match ctx.c_early_write with
      | Some crypt ->
        let eoed = M.encode_end_of_early_data () in
        Transcript.add p.transcript eoed;
        sealed crypt Wire.Content_type.Handshake eoed
      | None -> ""
    in
    charge p.host Pqc.Costs.build_client_finished @@ fun () ->
    let fin =
      M.encode_finished (finished_mac p secrets.K.client_handshake_traffic)
    in
    Transcript.add p.transcript fin;
    let crypt = make_record cfg secrets.K.client_handshake_traffic in
    Netsim.Tcp.write p.tcp ~marks:[ (0, "FIN_C") ]
      (eoed_records ^ ccs_record ^ sealed crypt Wire.Content_type.Handshake fin);
    (* application traffic secrets, as OpenSSL derives them eagerly *)
    charge ~n:2 p.host Pqc.Costs.key_schedule_derive @@ fun () ->
    let _c_app, s_app =
      K.application_secrets ~master:secrets.K.master
        ~finished_transcript_hash:sfin_hash
    in
    match ctx.c_on_ticket with
    | Some on_ticket ->
      (* stay up for the post-handshake NewSessionTicket, which arrives
         under the server application traffic keys *)
      Codec.Inbound.enable_decryption p.inbound (make_record cfg s_app);
      next (Wait_ticket { secrets; on_ticket })
    | None -> handshake_done p ctx.c_on_done)
  | Wait_ticket { secrets; on_ticket }, Wire.Handshake_type.New_session_ticket
    ->
    charge ~n:2 p.host Pqc.Costs.key_schedule_derive @@ fun () ->
    let nst = M.decode_new_session_ticket msg in
    on_ticket
      { psk = resumption_psk p secrets nst.M.nst_nonce;
        ticket = nst.M.nst_ticket; age_add = nst.M.nst_age_add;
        max_early_data = nst.M.nst_max_early_data };
    handshake_done p ctx.c_on_done
  | _, ty ->
    raise
      (Wire.Decode_error
         (Printf.sprintf "unexpected %s" (Wire.Handshake_type.label ty)))

(* ---- driver ------------------------------------------------------------- *)

let run ?resume ?(early_data = false) ?(ticket_key = "stek") ?on_ticket
    ~engine ~link ~tcp_config ~client_host ~server_host ~config ~rng ~on_done
    () =
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
  let early_bytes = ref 0 in
  let done_at side () =
    side := Netsim.Engine.now engine;
    if not (Float.is_nan !client_done_at || Float.is_nan !server_done_at) then
      on_done
        { client_finished_at = !client_done_at;
          server_finished_at = !server_done_at;
          client_tcp;
          server_tcp;
          resumed = resume <> None;
          early_data_bytes = !early_bytes }
  in
  let server =
    { s_cfg = config; s_creds = creds; s_rng = Crypto.Drbg.fork rng "server";
      s_flight = make_flight config server_peer;
      s_issue_ticket = on_ticket <> None; s_ticket_key = ticket_key;
      s_early_bytes = early_bytes; s_state = Wait_client_hello;
      s_on_done = done_at server_done_at }
  in
  server_peer.dispatch <- server_dispatch server;
  let c_rng = Crypto.Drbg.fork rng "client" in
  (* the client holds its state from the moment the ClientHello is out *)
  let start_client ~c_early_write state =
    client_peer.dispatch <-
      client_dispatch
        { c_cfg = config; c_rng; c_creds = creds;
          c_resume = resume; c_early_write;
          c_on_ticket = on_ticket; c_state = state;
          c_on_done = done_at client_done_at }
  in
  (* the client pre-computes its key share, then opens the connection;
     none of this is inside the measured phases (Fig. 1). With
     [wrong_first_key_share] it guesses a group the server will refuse,
     with a share it holds no secret for. *)
  let wrong = config.Config.wrong_first_key_share in
  let guess = if wrong then Pqc.Costs.kem "x25519" else kem_costs config in
  charge client_host guess.Pqc.Costs.kem_keygen @@ fun () ->
  let group, keypair =
    if wrong then
      ( "wrong-guess",
        { Pqc.Kem.public = Crypto.Drbg.generate c_rng 32; secret = "" } )
    else (config.Config.kem.Pqc.Kem.name, config.Config.kem.Pqc.Kem.keygen c_rng)
  in
  Netsim.Tcp.connect client_tcp ~on_established:(fun () ->
      charge client_host Pqc.Costs.build_client_finished @@ fun () ->
      let session_id = Crypto.Drbg.generate c_rng 32 in
      let ch =
        client_hello config c_rng ~session_id ~group
          ~key_share:keypair.Pqc.Kem.public
      in
      let state = Wait_server_hello { keypair; group; session_id; retried = false } in
      match resume with
      | None ->
        ignore (send_client_hello client_peer "CH" ch);
        start_client ~c_early_write:None state
      | Some s ->
        (* psk_dhe_ke offer: binder over the truncated CH (computed with
           a placeholder binder of the same length, section 4.2.11.2) *)
        charge ~n:3 client_host Pqc.Costs.key_schedule_derive @@ fun () ->
        let offer psk_binder =
          { ch with
            M.psk_offer =
              Some
                { M.psk_identity = s.ticket; psk_obfuscated_age = s.age_add;
                  psk_binder };
            early_data }
        in
        let msg =
          send_client_hello client_peer "CH"
            (offer (binder ~psk:s.psk (offer (String.make 32 '\000'))))
        in
        if not early_data then start_client ~c_early_write:None state
        else begin
          let crypt =
            make_record config
              (K.client_early_traffic ~early_secret:(K.early_secret ~psk:s.psk ())
                 ~client_hello_hash:(K.hash.Crypto.Hmac.digest msg))
          in
          start_client ~c_early_write:(Some crypt) state;
          charge client_host Pqc.Costs.key_schedule_derive @@ fun () ->
          let payload = String.make (min early_data_size s.max_early_data) 'e' in
          charge client_host (aead_cost (String.length payload)) @@ fun () ->
          Netsim.Tcp.write client_tcp ~marks:[ (0, "0RTT") ]
            (sealed crypt Wire.Content_type.Application_data payload)
        end)
