(* json_lint — artifact validator used by check.sh and the CLI tests.

   Modes:
     json_lint FILE
       FILE must be one valid JSON document.
     json_lint --ndjson FILE
       Every non-empty line of FILE must be a valid JSON document; at
       least one line required.
     json_lint --metrics FILE
       FILE must be a sqlgraph-metrics-v1 document (the CLI's
       --json-metrics dump) whose "stats" object holds every counter of
       Executor.Interp.counters at its declared key path: an integer for
       a count or peak, a number for seconds, a number or null for a
       gauge.
     json_lint --bench-pairs FILE
       FILE must be a bench `pairs` document.  Traversal counters
       (waves, dir_switches, steals, tasks) must be null on the scalar
       baseline entry — a scalar run has no batched waves, so 0 would
       claim a measurement that never happened — and integers on every
       batched entry.  The document records the host's cores
       (host_cores) and every entry the workers that actually ran:
       integers with 1 <= workers <= min(domains, host_cores).
     json_lint --bench-repl FILE
       FILE must be a bench `repl` document: catch-up bandwidth
       (catchup_mb_per_sec) strictly positive, steady-state lag fields
       (steady_lag_bytes_mean/max) present and non-negative, and the
       drain time bounded — a replica that never drains is not a
       standby.
     json_lint --catapult FILE [--require NAME]... [--min-tracks N]
       FILE must be a Chrome trace-event (catapult) dump: an object with
       a "traceEvents" array holding > 0 complete spans (every "B" event
       matched by an "E" on the same tid, innermost-first), each required
       NAME present among completed span names, and at least N distinct
       tids among span events.

   Exit status 0 on success; 1 with a diagnostic on stderr otherwise. *)

open Sqlgraph

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("json_lint: " ^ m);
      exit 1)
    fmt

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error m -> fail "%s" m

let parse_doc path s =
  match Testjson.Json_support.parse_result s with
  | Ok j -> j
  | Error m -> fail "%s: %s" path m

let lint_plain path = ignore (parse_doc path (read_file path))

let lint_ndjson path =
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> String.trim l <> "")
  in
  if lines = [] then fail "%s: no records" path;
  List.iteri
    (fun i line ->
      match Testjson.Json_support.parse_result line with
      | Ok _ -> ()
      | Error m -> fail "%s line %d: %s" path (i + 1) m)
    lines;
  Printf.printf "%s: %d NDJSON records ok\n" path (List.length lines)

let lint_metrics path =
  let open Testjson.Json_support in
  let doc = parse_doc path (read_file path) in
  (match member "schema" doc with
  | Some (Metrics.String "sqlgraph-metrics-v1") -> ()
  | _ -> fail "%s: schema is not sqlgraph-metrics-v1" path);
  let stats =
    match member "stats" doc with
    | Some (Metrics.Obj _ as stats) -> stats
    | _ -> fail "%s: no stats object" path
  in
  List.iter
    (fun (c : Executor.Interp.counter) ->
      let key = String.concat "." c.json in
      let v =
        List.fold_left (fun j k -> Option.bind j (member k)) (Some stats) c.json
      in
      match c.kind, v with
      | (Executor.Interp.Count | Executor.Interp.Peak), Some (Metrics.Int _)
      | Executor.Interp.Seconds, Some (Metrics.Float _ | Metrics.Int _)
      | Executor.Interp.Gauge, Some (Metrics.Float _ | Metrics.Int _ | Metrics.Null)
        ->
        ()
      | _, None -> fail "%s: stats.%s missing" path key
      | _, Some _ -> fail "%s: stats.%s has the wrong type" path key)
    Executor.Interp.counters;
  Printf.printf "%s: %d declared counters ok\n" path
    (List.length Executor.Interp.counters)

let counter_fields = [ "waves"; "dir_switches"; "steals"; "tasks" ]

let lint_bench_pairs path =
  let open Testjson.Json_support in
  let doc = parse_doc path (read_file path) in
  (match member "suite" doc with
  | Some (Metrics.String "pairs") -> ()
  | _ -> fail "%s: not a bench pairs document (suite != \"pairs\")" path);
  let results =
    match member "results" doc with
    | Some (Metrics.List rs) -> rs
    | _ -> fail "%s: no results array" path
  in
  if results = [] then fail "%s: empty results array" path;
  let int_field obj where field =
    match member field obj with
    | Some (Metrics.Int i) -> i
    | Some _ -> fail "%s: %s: %s must be an integer" path where field
    | None -> fail "%s: %s: missing field %s" path where field
  in
  let host_cores = int_field doc "document" "host_cores" in
  if host_cores < 1 then fail "%s: host_cores must be >= 1" path;
  let n_scalar = ref 0 in
  List.iter
    (fun entry ->
      let name =
        match to_string_opt (member "name" entry) with
        | Some n -> n
        | None -> fail "%s: result entry without name" path
      in
      let scalar = name = "pairs/scalar-per-source" in
      if scalar then incr n_scalar;
      let workers = int_field entry name "workers" in
      let domains = int_field entry name "domains" in
      if workers < 1 || workers > min domains host_cores then
        fail "%s: %s: workers %d outside 1..min(domains %d, host_cores %d)"
          path name workers domains host_cores;
      List.iter
        (fun field ->
          match (member field entry, scalar) with
          | Some Metrics.Null, true -> ()
          | Some (Metrics.Int _), false -> ()
          | Some Metrics.Null, false ->
            fail "%s: %s: batched entry has null %s" path name field
          | Some _, true ->
            fail
              "%s: %s: scalar entry must have null %s (no batched \
               traversal ran; 0 would claim one did)"
              path name field
          | Some _, false ->
            fail "%s: %s: %s must be an integer" path name field
          | None, _ -> fail "%s: %s: missing field %s" path name field)
        counter_fields)
    results;
  if !n_scalar = 0 then
    fail "%s: no pairs/scalar-per-source entry" path;
  Printf.printf "%s: %d pairs entries ok\n" path (List.length results)

let lint_bench_repl path =
  let open Testjson.Json_support in
  let doc = parse_doc path (read_file path) in
  (match member "suite" doc with
  | Some (Metrics.String "repl") -> ()
  | _ -> fail "%s: not a bench repl document (suite != \"repl\")" path);
  let to_num_opt = function
    | Some (Metrics.Float f) -> Some f
    | Some (Metrics.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  let num field =
    match to_num_opt (member field doc) with
    | Some f -> f
    | None -> fail "%s: missing or non-numeric %s" path field
  in
  let mbps = num "catchup_mb_per_sec" in
  if mbps <= 0. then
    fail "%s: catchup_mb_per_sec must be > 0 (got %g)" path mbps;
  if num "catchup_bytes" <= 0. then fail "%s: catchup_bytes must be > 0" path;
  let mean = num "steady_lag_bytes_mean" in
  if mean < 0. then fail "%s: steady_lag_bytes_mean must be >= 0" path;
  let lag_max = num "steady_lag_bytes_max" in
  if lag_max < 0. then fail "%s: steady_lag_bytes_max must be >= 0" path;
  if mean > lag_max then
    fail "%s: steady_lag_bytes_mean %g exceeds max %g" path mean lag_max;
  let drain = num "drain_seconds" in
  if drain < 0. || drain > 30. then
    fail "%s: drain_seconds out of range: %g" path drain;
  Printf.printf "%s: repl bench ok (catch-up %.2f MB/s, lag mean %.0f B, max \
                 %.0f B)\n"
    path mbps mean lag_max

let lint_catapult path requires min_tracks =
  let open Testjson.Json_support in
  let doc = parse_doc path (read_file path) in
  let events =
    match member "traceEvents" doc with
    | Some (Metrics.List es) -> es
    | _ -> fail "%s: no traceEvents array" path
  in
  (* Replay per-tid span stacks: a "B" pushes its name, an "E" pops.  The
     writer emits well-nested events, so mismatches mean a corrupt dump. *)
  let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let tids = Hashtbl.create 8 in
  let completed = Hashtbl.create 16 in
  let n_complete = ref 0 in
  List.iteri
    (fun i ev ->
      let field name = member name ev in
      match to_string_opt (field "ph") with
      | Some "B" ->
        let tid =
          match to_int_opt (field "tid") with
          | Some t -> t
          | None -> fail "%s: event %d: B without integer tid" path i
        in
        let name =
          match to_string_opt (field "name") with
          | Some n -> n
          | None -> fail "%s: event %d: B without name" path i
        in
        Hashtbl.replace tids tid ();
        let stack =
          match Hashtbl.find_opt stacks tid with
          | Some s -> s
          | None ->
            let s = ref [] in
            Hashtbl.add stacks tid s;
            s
        in
        stack := name :: !stack
      | Some "E" ->
        let tid =
          match to_int_opt (field "tid") with
          | Some t -> t
          | None -> fail "%s: event %d: E without integer tid" path i
        in
        (match Hashtbl.find_opt stacks tid with
        | Some ({ contents = name :: rest } as stack) ->
          stack := rest;
          incr n_complete;
          Hashtbl.replace completed name ()
        | _ -> fail "%s: event %d: E with no open span on tid %d" path i tid)
      | Some "i" | Some _ -> ()
      | None -> fail "%s: event %d: missing ph" path i)
    events;
  Hashtbl.iter
    (fun tid stack ->
      match !stack with
      | [] -> ()
      | name :: _ ->
        fail "%s: unclosed span %S on tid %d" path name tid)
    stacks;
  if !n_complete = 0 then fail "%s: no complete spans" path;
  List.iter
    (fun name ->
      if not (Hashtbl.mem completed name) then
        fail "%s: required span %S not found (have: %s)" path name
          (Hashtbl.fold (fun k () acc -> k :: acc) completed []
          |> List.sort String.compare |> String.concat ", "))
    requires;
  let n_tracks = Hashtbl.length tids in
  if n_tracks < min_tracks then
    fail "%s: %d track(s), need >= %d" path n_tracks min_tracks;
  Printf.printf "%s: %d events, %d complete spans, %d tracks ok\n" path
    (List.length events) !n_complete n_tracks

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go mode requires min_tracks file = function
    | [] -> (mode, List.rev requires, min_tracks, file)
    | "--catapult" :: rest -> go `Catapult requires min_tracks file rest
    | "--ndjson" :: rest -> go `Ndjson requires min_tracks file rest
    | "--metrics" :: rest -> go `Metrics requires min_tracks file rest
    | "--bench-pairs" :: rest -> go `Bench_pairs requires min_tracks file rest
    | "--bench-repl" :: rest -> go `Bench_repl requires min_tracks file rest
    | "--require" :: name :: rest ->
      go mode (name :: requires) min_tracks file rest
    | "--min-tracks" :: n :: rest ->
      let n =
        match int_of_string_opt n with
        | Some n -> n
        | None -> fail "--min-tracks: not a number: %s" n
      in
      go mode requires n file rest
    | arg :: rest when String.length arg > 0 && arg.[0] <> '-' ->
      go mode requires min_tracks (Some arg) rest
    | arg :: _ -> fail "unknown argument %s" arg
  in
  let mode, requires, min_tracks, file = go `Plain [] 1 None args in
  let file =
    match file with
    | Some f -> f
    | None ->
      fail
        "usage: json_lint \
         [--catapult|--ndjson|--metrics|--bench-pairs|--bench-repl] FILE \
         [--require NAME]... [--min-tracks N]"
  in
  match mode with
  | `Plain -> lint_plain file
  | `Ndjson -> lint_ndjson file
  | `Metrics -> lint_metrics file
  | `Bench_pairs -> lint_bench_pairs file
  | `Bench_repl -> lint_bench_repl file
  | `Catapult -> lint_catapult file requires min_tracks
