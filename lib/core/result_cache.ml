(* Disk memoization of completed experiment cells. Only successful
   outcomes are stored (Exec never caches failures), so an entry's
   presence means the cell genuinely finished under this binary.

   One file per cell under the cache directory, named by the SHA-256 of
   the cell's full parameter fingerprint plus a fingerprint of the
   running executable — so a rebuild that changes *any* code invalidates
   everything, which is the only safe default for Marshal-ed payloads.

   An entry is its kind's magic line, the SHA-256 of the payload, then
   the Marshal-ed payload. Unmarshalling corrupt bytes is undefined
   behaviour, so the digest is checked first: a torn, flipped or alien
   file reads as a miss and is overwritten.

   Writes go through a unique temp file followed by [Sys.rename], so
   concurrent domains (or concurrent processes sharing a cache
   directory) never observe a torn entry. *)

(* Marshal is untyped, so each cell kind has its own magic and file
   extension: the outcome types of two kinds sharing a directory can
   never read each other's files. The ['outcome] parameter is phantom;
   it ties a kind's reads to the type its writes stored. *)
type ('spec, 'outcome) kind = {
  magic : string;
  ext : string;
  fingerprint : 'spec -> string;
}

let standard =
  { magic = "pqtls-cache-2";
    ext = ".outcome";
    fingerprint = Experiment.spec_fingerprint }

let farm =
  { magic = "pqtls-farm-cache-2";
    ext = ".farm";
    fingerprint = Experiment.farm_spec_fingerprint }

type t = {
  dir : string;
  code_fingerprint : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let create ~dir =
  mkdir_p dir;
  let code_fingerprint =
    try Digest.to_hex (Digest.file Sys.executable_name)
    with Sys_error _ -> "no-executable"
  in
  { dir;
    code_fingerprint;
    hits = Atomic.make 0;
    misses = Atomic.make 0 }

let key_for t kind spec =
  hex
    (Crypto.Sha256.digest
       (kind.fingerprint spec ^ "|code=" ^ t.code_fingerprint))

let path t kind k = Filename.concat t.dir (k ^ kind.ext)

let digest_bytes = 32

let read t kind k =
  let decode s =
    let header = kind.magic ^ "\n" in
    let h = String.length header in
    let p = h + digest_bytes in
    if String.length s < p || not (String.starts_with ~prefix:header s) then
      None
    else
      let payload = String.sub s p (String.length s - p) in
      if Crypto.Sha256.digest payload <> String.sub s h digest_bytes then None
      else Some (Marshal.from_string payload 0)
  in
  let r =
    match In_channel.with_open_bin (path t kind k) In_channel.input_all with
    | s -> decode s
    | exception Sys_error _ -> None
  in
  Atomic.incr (if Option.is_some r then t.hits else t.misses);
  r

let write t kind k o =
  let payload = Marshal.to_string o [] in
  let final = path t kind k in
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" final (Unix.getpid ())
      (Domain.self () :> int)
  in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc (kind.magic ^ "\n");
      output_string oc (Crypto.Sha256.digest payload);
      output_string oc payload);
  Sys.rename tmp final

let key t spec = key_for t standard spec
let find t k : Experiment.outcome option = read t standard k
let store t k (o : Experiment.outcome) = write t standard k o

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
