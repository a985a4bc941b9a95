let pad16 s =
  let r = String.length s mod 16 in
  if r = 0 then "" else String.make (16 - r) '\000'

let le64 n = Bytesx.u64_be (Int64.of_int n) |> fun s ->
  String.init 8 (fun i -> s.[7 - i])

let compute_tag ~key ~nonce ~ad c =
  let otk = String.sub (Chacha20.block ~key ~counter:0 ~nonce) 0 32 in
  let data =
    ad ^ pad16 ad ^ c ^ pad16 c ^ le64 (String.length ad)
    ^ le64 (String.length c)
  in
  Poly1305.mac ~key:otk data

let seal ~key ~nonce ~ad pt =
  let c = Chacha20.encrypt ~key ~counter:1 ~nonce pt in
  c ^ compute_tag ~key ~nonce ~ad c

let open_ ~key ~nonce ~ad sealed =
  let tag_size = 16 and n = String.length sealed in
  if n < tag_size then None
  else begin
    let c = String.sub sealed 0 (n - tag_size) in
    let tag = String.sub sealed (n - tag_size) tag_size in
    if Bytesx.equal_ct tag (compute_tag ~key ~nonce ~ad c) then
      Some (Chacha20.encrypt ~key ~counter:1 ~nonce c)
    else None
  end
[@@lint.allow "R1" "oracle for the crypto test: chacha20poly1305 \
                    roundtrip random"]
