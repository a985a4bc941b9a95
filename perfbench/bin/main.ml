(* perfbench: host-time benchmark of the reproduction.

     main.exe --workload campaign|real-crypto|farm --seed N --seconds S
              --trace 0|1

   Prints a human-readable report, then, as the last line of stdout, one
   JSON object: {"correct", "attempted", "failed", "metrics"}. The
   metrics are the end-to-end ones untraced and the per-layer ones with
   --trace 1. Exits 1 when a correctness check fails. Run from the root
   of the repository: scratch files go to .perfbench-work/, the traced
   spans to .perfbench-out/. *)

(* read first, so module initialisation counts as process start-up *)
let entered = Core.Clock.now_s ()

let workloads =
  [ ("campaign", Perfbench.Campaign.run);
    ("real-crypto", Perfbench.Real_crypto.run);
    ("farm", Perfbench.Farm.run) ]

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let mkdir_p path =
  List.fold_left
    (fun acc part ->
      let dir = if acc = "" then part else Filename.concat acc part in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      dir)
    "" (String.split_on_char '/' path)
  |> ignore

(* one TSV, written once: requests first, then every span in opening
   order with times in ms from the first span *)
let write_spans path (spans : Perfbench.Span.t list) =
  let oc = open_out path in
  let t0 = match spans with s :: _ -> s.start_s | [] -> 0. in
  let ids = Hashtbl.create 256 in
  let requests = ref [] in
  List.iter
    (fun (s : Perfbench.Span.t) ->
      if not (Hashtbl.mem ids s.request) then begin
        Hashtbl.add ids s.request (Hashtbl.length ids);
        requests := s.request :: !requests
      end)
    spans;
  List.iteri
    (fun i r -> Printf.fprintf oc "#request\t%d\t%s\n" i r)
    (List.rev !requests);
  output_string oc "#id\tparent\tname\trequest\tstart_ms\tend_ms\tminor_words\n";
  List.iter
    (fun (s : Perfbench.Span.t) ->
      Printf.fprintf oc "%d\t%d\t%s\t%d\t%.4f\t%.4f\t%.0f\n" s.id s.parent
        s.name (Hashtbl.find ids s.request)
        ((s.start_s -. t0) *. 1000.)
        ((s.stop_s -. t0) *. 1000.)
        s.minor_words)
    spans;
  close_out oc

let () =
  let workload = ref "" and seed = ref Perfbench.Grid.default_seed in
  let seconds = ref 10 and trace = ref 0 in
  let spawned_at () =
    Option.bind (Sys.getenv_opt "PERFBENCH_SPAWN_T") float_of_string_opt
  in
  let probe () =
    (* process start-up alone: exec, runtime and module initialisation *)
    (match spawned_at () with
    | Some t -> Printf.printf "%.9f\n" (entered -. t)
    | None -> prerr_endline "--startup-probe needs PERFBENCH_SPAWN_T");
    exit 0
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " campaign, real-crypto or farm");
      ( "--startup-probe",
        Arg.Unit probe,
        " print seconds from PERFBENCH_SPAWN_T to program entry and exit" );
      ("--seed", Arg.Set_int seed, " input seed (default 0)");
      ("--seconds", Arg.Set_int seconds, " measured seconds (default 10)");
      ("--trace", Arg.Set_int trace, " 1 for the traced, per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      prerr_endline
        ("unknown workload " ^ !workload ^ "; expected one of "
        ^ String.concat ", " (List.map fst workloads));
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be at least 1 and --trace 0 or 1";
    exit 2
  end;
  (* the median start-up of several probes when the launcher measured
     them, else this process's own when it knows its spawn time *)
  let startup_s =
    match Option.bind (Sys.getenv_opt "PERFBENCH_STARTUP_S") float_of_string_opt with
    | Some s -> s
    | None -> (
      match spawned_at () with Some t -> Float.max 0. (entered -. t) | None -> 0.)
  in
  let workdir =
    Filename.concat ".perfbench-work" (string_of_int (Unix.getpid ()))
  in
  rm_rf workdir;
  mkdir_p workdir;
  let r =
    Fun.protect
      ~finally:(fun () ->
        rm_rf workdir;
        (* left in place while another run still uses it *)
        try Sys.rmdir ".perfbench-work" with Sys_error _ -> ())
      (fun () ->
        run ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1)
          ~workdir ~startup_s)
  in
  List.iter print_endline r.Perfbench.Common.notes;
  List.iter
    (fun (name, ok) -> Printf.printf "check %-52s %s\n" name (if ok then "ok" else "FAILED"))
    r.checks;
  let metrics = if !trace = 1 then r.per_layer else r.end_to_end in
  List.iter
    (fun (m : Perfbench.Common.metric) ->
      Printf.printf "%-34s %14.4f %s\n" m.name m.value m.unit_)
    metrics;
  if r.spans <> [] then begin
    mkdir_p ".perfbench-out";
    let path =
      Printf.sprintf ".perfbench-out/spans-%s-seed%d.tsv" !workload !seed
    in
    write_spans path r.spans;
    Printf.printf "wrote %s (%d spans)\n" path (List.length r.spans)
  end;
  let finite =
    List.for_all (fun (m : Perfbench.Common.metric) -> Float.is_finite m.value) metrics
  in
  let correct =
    List.for_all snd r.checks && r.failed = 0 && finite && metrics <> []
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (m : Perfbench.Common.metric) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
              (if Float.is_finite m.value then Core.Json.float_repr m.value
               else "null")
              m.unit_)
          metrics));
  if not correct then exit 1
