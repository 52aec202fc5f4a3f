(* Served-traffic benchmark: one workload per invocation, through the
   real in-process server (fsync'd WAL, a session attached over a
   socketpair, SQL text on the wire), every reply checked against
   reference answers.  See README.md for the workloads and metrics.

     dune exec --root . --display quiet ./servebench/main.exe -- \
       --workload point --seed 1 --seconds 15 --trace 0

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  With --trace 0 the metrics
   are the end-to-end ones, measured over [rounds] fresh round
   processes; with --trace 1 they are the per-layer ones of a separate
   traced round.  When a self-check fails nothing is printed on that
   line, the reason goes to standard error and the exit code is
   non-zero. *)

let rounds = 3

(* Set-up-only processes run before each round (none in --smoke).  With
   the rounds' own set-ups, setup_s is the median of
   rounds * (1 + this) set-ups. *)
let setups_per_round = 2

(* Reported on every workload with --trace 0.  p50_ms is printed but not
   reported: on a host that switches speed states mid-run the median
   jumps between the states' latencies, while the mean — ops_per_s, for
   one closed-loop connection — and p95 move smoothly. *)
let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("p95_ms", "ms"); ("peak_rss_mb", "MB") ]

type run = {
  w : Workload.t;
  seed : int;
  seconds : float;
  smoke : bool;
  work : string;  (** scratch directory of this invocation *)
  trace_out : string;
}

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

(* A self-check that depends on timings: fatal, except in --smoke. *)
let timing_check r ok fmt =
  Printf.ksprintf
    (fun m ->
      if not ok then
        if r.smoke then Printf.printf "warning: %s\n" m else raise (Invalid m))
    fmt

(* Nearest-rank percentile of a sorted array, and how many samples lie
   beyond it. *)
let percentile sorted p =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
  (sorted.(min (n - 1) (rank - 1)), n - rank)

let print_table metrics =
  Printf.printf "%-34s %14s  %-6s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun (name, v, unit, note) ->
      Printf.printf "%-34s %14.6g  %-6s %s\n" name v unit note)
    metrics

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit, _) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
          metrics))

let print_host r =
  let cpus =
    In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.starts_with ~prefix:"processor" l)
    |> List.length
  in
  Printf.printf
    "servebench %s seed=%d seconds=%g\n\
     host: cpus=%d recommended_domain_count=%d ocaml=%s fsync=on data=%s\n%!"
    (Workload.name r.w) r.seed r.seconds cpus
    (Domain.recommended_domain_count ())
    Sys.ocaml_version r.work

(* Run this executable again as a child process (a fresh heap and a fresh
   VmHWM each) and wait for it. *)
let spawn r args =
  let args =
    [
      "--workload"; Workload.name r.w; "--seed"; string_of_int r.seed;
      "--work"; r.work; "--trace-out"; r.trace_out;
    ]
    @ args
  in
  let argv = Array.of_list (Sys.executable_name :: args) in
  let pid =
    Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr
      Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith ("child process failed: " ^ String.concat " " args)

(* The ERR and wrong-answer counts, and the first five of each on
   standard error, where a failed smoke test shows them. *)
let print_failures verdicts =
  let errs = List.filter_map (function Workload.Err m -> Some m | _ -> None) verdicts in
  let wrong = List.filter_map (function Workload.Wrong m -> Some m | _ -> None) verdicts in
  let attempted = List.length verdicts in
  Printf.printf "attempted=%d failed=%d (err=%d wrong=%d) fail_ratio=%.6f\n" attempted
    (List.length errs + List.length wrong)
    (List.length errs) (List.length wrong)
    (float_of_int (List.length errs + List.length wrong) /. float_of_int (max 1 attempted));
  let first what l =
    List.iteri (fun i m -> if i < 5 then Printf.eprintf "  %s %d: %s\n%!" what (i + 1) m) l
  in
  first "error" errs;
  first "wrong answer" wrong;
  (attempted, List.length errs + List.length wrong)

(* --- end-to-end rounds (--trace 0) --------------------------------- *)

(* Sorted latencies (ms) of the timed [key]-class samples.  A failed or
   wrong reply misses every latency limit: it enters as +infinity. *)
let key_latencies key samples =
  let lat =
    Array.of_list
      (List.filter_map
         (fun (s : Served.sample) ->
           if s.Served.at < 0. || s.Served.cls <> key then None
           else if s.Served.verdict = Workload.Fine then Some s.Served.ms
           else Some Float.infinity)
         samples)
  in
  Array.sort compare lat;
  lat

let measured r =
  let n = if r.smoke then 1 else rounds in
  let setups = ref [] in
  let results =
    List.init n (fun i ->
        let round = i + 1 in
        for k = 1 to if r.smoke then 0 else setups_per_round do
          let tag = Printf.sprintf "%d-%d" round k in
          spawn r [ "--child"; "setup"; "--round"; tag ];
          setups :=
            Served.input_marshal (Filename.concat r.work ("setup-" ^ tag ^ ".bin"))
            :: !setups
        done;
        spawn r
          [
            "--child"; "round"; "--round"; string_of_int round;
            "--seconds"; Printf.sprintf "%.17g" (r.seconds /. float_of_int n);
          ];
        let (res : Served.result) =
          Served.input_marshal
            (Filename.concat r.work (Printf.sprintf "round-%d.bin" round))
        in
        setups := res.Served.setup_s :: !setups;
        res)
  in
  let key = Workload.key r.w in
  let cls = Workload.cls_name key in
  let timed_count (res : Served.result) =
    Array.fold_left (fun a (s : Served.sample) -> if s.Served.at >= 0. then a + 1 else a) 0
      res.Served.samples
  in
  Printf.printf "set-ups (s): %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !setups));
  List.iteri
    (fun i (res : Served.result) ->
      let lat = key_latencies key (Array.to_list res.Served.samples) in
      let p q = if lat = [||] then Float.nan else fst (percentile lat q) in
      Printf.printf
        "round %d: setup_s=%.4f ops_per_s=%.2f %s_p50_ms=%.4f %s_p95_ms=%.4f peak_rss_mb=%.1f\n"
        (i + 1) res.Served.setup_s
        (float_of_int (timed_count res) /. res.Served.window_s)
        cls (p 0.50) cls (p 0.95) res.Served.rss_mb)
    results;
  let samples =
    List.concat_map (fun (res : Served.result) -> Array.to_list res.Served.samples) results
  in
  let lat = key_latencies key samples in
  if lat = [||] then invalid "no %s samples" cls;
  let pct name q =
    let v, beyond = percentile lat q in
    timing_check r (beyond >= 10) "%s has only %d samples beyond it (need 10)" name beyond;
    (name, v, "ms", Printf.sprintf "%s, n=%d, %d beyond" cls (Array.length lat) beyond)
  in
  let statements = List.fold_left (fun a res -> a + timed_count res) 0 results in
  let window =
    List.fold_left (fun a (res : Served.result) -> a +. res.Served.window_s) 0. results
  in
  let metrics =
    [
      ( "setup_s", Served.median !setups, "s",
        Printf.sprintf "median of %d set-ups" (List.length !setups) );
      ( "ops_per_s", float_of_int statements /. window, "1/s",
        Printf.sprintf "%d statements in %.2f s" statements window );
      (let name, v, unit, note = pct "p50_ms" 0.50 in
       (name, v, unit, note ^ "; printed, not reported"));
      pct "p95_ms" 0.95;
      ( "peak_rss_mb", Served.median (List.map (fun res -> res.Served.rss_mb) results), "MB",
        Printf.sprintf "median VmHWM of %d round processes" n );
    ]
  in
  print_table metrics;
  let checked, mismatched =
    List.fold_left
      (fun (c, m) (res : Served.result) ->
        (c + fst res.Served.closing, m + snd res.Served.closing))
      (0, 0) results
  in
  if checked > 0 then
    Printf.printf "closing check: %d of %d pairs exact against a native BFS\n"
      (checked - mismatched) checked;
  let attempted, failed =
    print_failures (List.map (fun (s : Served.sample) -> s.Served.verdict) samples)
  in
  (failed = 0 && mismatched = 0, attempted, failed, metrics)

(* --- per-layer round (--trace 1) ----------------------------------- *)

let traced r =
  spawn r [ "--child"; "traced"; "--seconds"; Printf.sprintf "%.17g" r.seconds ];
  let (res : Traced.result) = Served.input_marshal (Filename.concat r.work "traced.bin") in
  print_table res.Traced.metrics;
  Printf.printf "trace: %s\n" r.trace_out;
  let attempted, failed = print_failures res.Traced.verdicts in
  List.iter
    (fun (name, v, _, _) ->
      if name = "trace.unattributed_pct" then
        timing_check r (v <= 10.) "trace.unattributed_pct = %.2f > 10" v)
    res.Traced.metrics;
  (failed = 0, attempted, failed, res.Traced.metrics)

(* --- entry --------------------------------------------------------- *)

let main r ~trace =
  print_host r;
  Served.rm_rf r.work;
  Sys.mkdir r.work 0o755;
  Fun.protect
    ~finally:(fun () -> Served.rm_rf r.work)
    (fun () ->
      let refs = Prep.run ~seed:r.seed ~dir:(Filename.concat r.work "template") in
      Served.output_marshal (Filename.concat r.work "refs.bin") refs;
      let correct, attempted, failed, metrics =
        if trace then traced r else measured r
      in
      let reported =
        List.map
          (fun (name, unit) ->
            match List.find_opt (fun (n, _, _, _) -> n = name) metrics with
            | Some ((_, v, u, _) as m) when u = unit && Float.is_finite v -> m
            | Some _ -> invalid "metric %s has no finite value in %s" name unit
            | None -> invalid "metric %s is missing" name)
          (if trace then Traced.per_layer else end_to_end)
      in
      (* a smoke run is a test: a wrong or failed reply fails it *)
      if r.smoke && not correct then invalid "%d of %d replies failed or were wrong" failed attempted;
      print_result ~correct ~attempted ~failed reported)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref None in
  let trace = ref 0 and smoke = ref false in
  let trace_out = ref "" and child = ref "" and work = ref "" and round = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME point | weighted | batch | edge-writes");
      ("--seed", Arg.Set_int seed, "N workload seed (data and traffic)");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S measured seconds (default 10, 2 with --smoke)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer round (1)");
      ("--smoke", Arg.Set smoke, " one short round; fails on a wrong reply, only warns on timings");
      ("--trace-out", Arg.Set_string trace_out, "FILE Chrome trace of the traced round");
      ("--child", Arg.Set_string child, "KIND (internal) run one set-up, round or traced process");
      ("--work", Arg.Set_string work, "DIR (internal) scratch directory");
      ("--round", Arg.Set_string round, "TAG (internal) round or set-up tag");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Workload.of_name !workload with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
    prerr_endline "--trace takes 0 or 1";
    exit 2
  | Some w -> (
    let seconds =
      match !seconds with Some s -> s | None -> if !smoke then 2. else 10.
    in
    let r =
      {
        w;
        seed = !seed;
        seconds;
        smoke = !smoke;
        work =
          (if !work <> "" then !work
           else Filename.concat ".servebench" (Printf.sprintf "run-%d" (Unix.getpid ())));
        trace_out =
          (if !trace_out <> "" then !trace_out
           else
             Filename.concat ".servebench"
               (Printf.sprintf "trace-%s-%d.json" !workload !seed));
      }
    in
    match !child with
    | "setup" -> Served.setup_child ~work:r.work ~tag:!round
    | "round" ->
      Served.child ~work:r.work ~w ~seed:r.seed ~seconds:r.seconds
        ~round:(int_of_string !round)
    | "traced" -> Traced.child ~work:r.work ~w ~seed:r.seed ~seconds:r.seconds ~trace_out:r.trace_out
    | _ -> (
      if not (Sys.file_exists ".servebench") then Sys.mkdir ".servebench" 0o755;
      try main r ~trace:(!trace = 1) with
      | Invalid m ->
        Printf.eprintf "self-check failed: %s\n%!" m;
        exit 1
      | e ->
        Printf.eprintf "benchmark failed: %s\n%!" (Printexc.to_string e);
        exit 1))
