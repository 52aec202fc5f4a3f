(* sqlgraph command-line shell.

   Subcommands:
     repl              interactive SQL shell (statements end with ';')
     run FILE          execute a ';'-separated SQL script
     demo              load a small synthetic social network and open a repl
     serve             multi-session server over a Unix socket and/or TCP
                       (snapshot-isolated reads, group-committed writes,
                       admission control; SIGTERM/SIGINT drain gracefully)
     client            line-protocol client for a running serve instance

   Resource limits (all optional; a statement that exhausts one fails
   with "resource error: ..." and the session keeps running):
     --timeout MS      per-statement wall-clock budget
     --max-rows N      per-statement result-row budget
     --domains N       traversal parallelism (SET parallelism = N)

   Durability:
     --data-dir DIR    open DIR as a crash-safe data directory: recover
                       (checkpoint + WAL replay) on start, write-ahead
                       log every committed DML statement
     --no-fsync        keep logging but skip fsync (throughput mode;
                       crash safety then depends on the OS page cache)
     --readonly        open --data-dir for inspection only: recover, then
                       refuse every DML/DDL statement and never write the
                       WAL — safe to point at a directory another process
                       is serving from

   Interrupts: in the repl, Ctrl-C cancels the statement in flight via
   the governor's cooperative checkpoints (the statement fails with a
   resource error, the session survives); Ctrl-C at the prompt exits.

   Observability:
     --json-metrics F         dump the last statement's execution counters
                              to F as JSON (schema sqlgraph-metrics-v1)
                              after each statement; one-shot — each
                              statement overwrites F (last writer wins)
     --json-metrics-append F  append one compact JSON line per statement
                              (NDJSON) so scripted workloads keep every
                              statement's counters
     --metrics-out F          after each statement, write the session's
                              cumulative metrics registry to F in
                              Prometheus text exposition format v0.0.4
     --trace-out F            enable span tracing; on exit, dump the ring
                              buffer to F as Chrome trace-event JSON
                              (chrome://tracing / Perfetto)
     --slow-query-ms N        log statements slower than N ms to the
                              slow-query log (NDJSON); 0 logs everything
     --slow-query-log F       slow-query log destination
                              (default sqlgraph-slow.ndjson)

   The repl understands a few meta-commands:
     \e SQL;                 EXPLAIN the (rewritten) plan of a SELECT
     \d;                     list tables
     \d NAME;                describe one table
     \i FILE TABLE;          import a CSV (header row names the columns,
                             all typed VARCHAR; CAST as needed)
     \save DIR;              persist every table as CSV + manifest
     \load DIR;              replace the session with a saved database
                             (refused under --data-dir)
     \checkpoint;            (--data-dir) write an atomic checkpoint and
                             rotate the WAL
     \timeout MS;            set the per-statement timeout (0 or off: none)
     \limit ROWS;            set the per-statement row limit (0 or off: none)
     \timing;                toggle per-statement wall-clock timing
     \stats;                 execution counters of the last query
     \stat;                  top statement fingerprints by total latency
                             (SQL view: SELECT ... FROM
                             sqlgraph_stat_statements)
     \stat reset;            zero the fingerprint store (the metrics
                             registry is untouched)
     \replica status;        replication role, peers, offsets and lag
                             (SQL view: SELECT ... FROM
                             sqlgraph_stat_replication)
     \promote;               pointer only — promotion acts on a running
                             standby server (sqlgraph promote)
     \metrics;               cumulative session metrics (counters +
                             p50/p90/p99/max latency histograms)
     \trace on|off;          toggle span tracing
     \trace dump FILE;       write the span ring buffer as catapult JSON
     \q                      quit

   SQLGRAPH_FAULT=after=N | site=S arms the deterministic fault-injection
   harness (one-shot; see lib/core/fault.mli) for end-to-end testing. *)

let print_outcome = function
  | Sqlgraph.Db.Created -> print_endline "CREATE TABLE"
  | Sqlgraph.Db.Dropped -> print_endline "DROP TABLE"
  | Sqlgraph.Db.Inserted n -> Printf.printf "INSERT %d\n" n
  | Sqlgraph.Db.Updated n -> Printf.printf "UPDATE %d\n" n
  | Sqlgraph.Db.Deleted n -> Printf.printf "DELETE %d\n" n
  | Sqlgraph.Db.Selected r -> print_string (Sqlgraph.Resultset.to_string r)
  | Sqlgraph.Db.Explained plan -> print_string plan
  | Sqlgraph.Db.Option_set (name, value) -> Printf.printf "SET %s = %d\n" name value
  | Sqlgraph.Db.Began -> print_endline "BEGIN"
  | Sqlgraph.Db.Committed -> print_endline "COMMIT"
  | Sqlgraph.Db.Rolled_back -> print_endline "ROLLBACK"

let timing = ref false

(* Session resource limits, set by --timeout/--max-rows and adjustable
   from the repl with \timeout and \limit. Applied per statement. *)
let timeout_ms : float option ref = ref None
let max_rows : int option ref = ref None

(* --json-metrics FILE: after every statement, the last query's counters
   are rewritten to FILE.  One-shot by design: each statement truncates
   and overwrites, so after a script only the final query's counters
   survive (use --json-metrics-append to keep them all). *)
let json_metrics : string option ref = ref None

(* --metrics-out FILE: cumulative session registry, Prometheus text
   exposition v0.0.4, rewritten after each statement. *)
let metrics_out : string option ref = ref None

(* --trace-out FILE: dump the span ring buffer as catapult JSON on
   exit. *)
let trace_out : string option ref = ref None

(* --domains, --slow-query-ms and the statement logs Db.exec_parsed
   writes (--json-metrics-append, --slow-query-log): applied to a Db once
   it has recovered, so replayed statements are not logged again. *)
let session_options : (Sqlgraph.Db.t -> unit) ref = ref ignore

(* --data-dir: the open WAL store, if this session is durable. *)
let data_store : Sqlgraph.Wal.t option ref = ref None

let close_store () =
  match !data_store with
  | None -> ()
  | Some store ->
    Sqlgraph.Wal.close store;
    data_store := None

let current_budget () =
  Sqlgraph.Governor.budget ?timeout_ms:!timeout_ms ?max_rows:!max_rows ()

(* Ctrl-C: cancel the in-flight statement's governor — the statement
   unwinds at its next cooperative checkpoint with a resource error and
   the session survives.  With no statement running (at the prompt, or
   after a first Ctrl-C already cancelled one) SIGINT exits.  The
   handler only flips the token; Governor.cancel is documented safe
   from a signal handler. *)
let current_gov : Sqlgraph.Governor.t option ref = ref None

let install_repl_sigint () =
  if Sys.os_type = "Unix" then
    Sys.set_signal Sys.sigint
      (Sys.Signal_handle
         (fun _ ->
           match !current_gov with
           | Some g -> Sqlgraph.Governor.cancel g
           | None -> exit 130))

let metrics_doc db =
  Sqlgraph.Metrics.Obj
    [
      ("schema", Sqlgraph.Metrics.String "sqlgraph-metrics-v1");
      ("parallelism", Sqlgraph.Metrics.Int (Sqlgraph.Db.parallelism db));
      ( "stats",
        match Sqlgraph.Db.last_stats db with
        | Some s -> Sqlgraph.Metrics.stats_json s
        | None -> Sqlgraph.Metrics.Null );
      ("session", Sqlgraph.Metrics.registry_json (Sqlgraph.Db.registry db));
    ]

let dump_metrics db =
  match !json_metrics with
  | None -> ()
  | Some path -> (
    match Sqlgraph.Db.last_stats db with
    | None -> ()
    | Some _ -> Sqlgraph.Metrics.write_file ~path (metrics_doc db))

let write_prometheus db =
  match !metrics_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc
          (Telemetry.Registry.to_prometheus (Sqlgraph.Db.registry db)))

let dump_trace () =
  match !trace_out with
  | None -> ()
  | Some path -> Telemetry.Trace.write_catapult ~path

(* One line per declared [\stats] label, in declaration order:
   "label: v key=v ...". A NaN gauge (no timeout) is left out. *)
let print_stats db =
  match Sqlgraph.Db.last_stats db with
  | None -> print_endline "no query statistics yet"
  | Some s ->
    let item (c : Executor.Interp.counter) key =
      let v =
        match c.kind, c.get s with
        | _, Executor.Interp.Int n -> Some (string_of_int n)
        | Executor.Interp.Gauge, Executor.Interp.Float f ->
          if Float.is_nan f then None else Some (Printf.sprintf "%.1fms" f)
        | _, Executor.Interp.Float f ->
          Some (Printf.sprintf "%.3fms" (f *. 1000.))
      in
      Option.map (fun v -> if key = "" then v else key ^ "=" ^ v) v
    in
    let items =
      List.filter_map
        (fun (c : Executor.Interp.counter) ->
          Option.map (fun (label, key) -> (label, item c key)) c.line)
        Executor.Interp.counters
    in
    List.fold_left
      (fun seen (label, _) -> if List.mem label seen then seen else label :: seen)
      [] items
    |> List.rev
    |> List.iter (fun label ->
           List.filter_map (fun (l, i) -> if l = label then i else None) items
           |> String.concat " "
           |> Printf.printf "%s: %s\n" label)

(* The whole-file dumps of the session's state, after each statement;
   the per-statement records are Db.exec_parsed's own. *)
let statement_sinks db =
  dump_metrics db;
  write_prometheus db

let execute db sql =
  let t0 = Unix.gettimeofday () in
  let gov = Sqlgraph.Governor.start (current_budget ()) in
  current_gov := Some gov;
  let result = Sqlgraph.Db.exec db ~governor:gov sql in
  current_gov := None;
  let dt = Unix.gettimeofday () -. t0 in
  (match result with
  | Ok outcome -> print_outcome outcome
  | Error e -> Printf.printf "error: %s\n" (Sqlgraph.Error.to_string e));
  statement_sinks db;
  if !timing then Printf.printf "time: %.3fs\n" dt

let describe db name =
  match Storage.Catalog.find (Sqlgraph.Db.catalog db) name with
  | None -> Printf.printf "no table named %s\n" name
  | Some t ->
    Printf.printf "%s (%d rows)\n" name (Storage.Table.nrows t);
    List.iter
      (fun (f : Storage.Schema.field) ->
        Printf.printf "  %-24s %s\n" f.Storage.Schema.name
          (Storage.Dtype.name f.Storage.Schema.ty))
      (Storage.Schema.fields (Storage.Table.schema t))

let list_tables db =
  match Storage.Catalog.names (Sqlgraph.Db.catalog db) with
  | [] -> print_endline "no tables"
  | names -> List.iter (describe db) names

(* Bulk loads (\i, the demo tables) bypass the statement path and thus
   the WAL, so in a durable session they are immediately captured by a
   checkpoint — otherwise a crash would silently drop them. *)
let checkpoint_if_durable db ~why =
  match !data_store with
  | None -> ()
  | Some store -> (
    match Sqlgraph.Wal.checkpoint store db with
    | Ok () ->
      Printf.printf "checkpoint: generation %d (%s)\n"
        (Sqlgraph.Wal.gen store) why
    | Error e -> Printf.printf "error: %s\n" (Sqlgraph.Error.to_string e))

let import_csv db path table =
  (* header-driven: every column VARCHAR; refine with CAST in queries.
     Routed through Db.protect (inside import_untyped) so a bad file
     reports an error like a failing statement instead of crashing. *)
  match Sqlgraph.Csv.import_untyped db ~path ~table with
  | Ok n ->
    Printf.printf "loaded %d rows into %s\n" n table;
    checkpoint_if_durable db ~why:"import"
  | Error e -> Printf.printf "error: %s\n" (Sqlgraph.Error.to_string e)

let explain db sql =
  match Sqlgraph.Db.explain db sql with
  | Ok plan -> print_string plan
  | Error e -> Printf.printf "error: %s\n" (Sqlgraph.Error.to_string e)

(* \timeout MS; and \limit ROWS; — "0" and "off" clear the limit. *)
let set_limit ~what ~render cell raw parse =
  match String.lowercase_ascii (String.trim raw) with
  | "0" | "off" | "none" ->
    cell := None;
    Printf.printf "%s off\n" what
  | s -> (
    match parse s with
    | Some v ->
      cell := Some v;
      Printf.printf "%s %s\n" what (render v)
    | None -> Printf.printf "error: \\%s expects a positive number or off\n" what)

let set_timeout raw =
  set_limit ~what:"timeout"
    ~render:(fun ms -> Printf.sprintf "%gms" ms)
    timeout_ms raw
    (fun s ->
      match float_of_string_opt s with
      | Some ms when ms > 0. -> Some ms
      | _ -> None)

let set_max_rows raw =
  set_limit ~what:"limit" ~render:string_of_int max_rows raw (fun s ->
      match int_of_string_opt s with
      | Some n when n > 0 -> Some n
      | _ -> None)

(* Read statements terminated by ';' (possibly spanning lines). [db] is a
   ref so \load can swap in a freshly loaded database. *)
(* A Ctrl-C mid-read interrupts the blocking read; after the handler
   runs the line read must resume, not kill the repl. *)
let rec input_line_retry ic =
  match In_channel.input_line ic with
  | l -> l
  | exception Sys_error msg
    when Astring.String.is_infix ~affix:"Interrupted" msg ->
    input_line_retry ic

let repl db =
  let db = ref db in
  install_repl_sigint ();
  print_endline
    "sqlgraph shell - SQL with REACHES / CHEAPEST SUM / UNNEST.";
  print_endline "End statements with ';'.  \\e SQL; explains.  \\q quits.";
  let buf = Buffer.create 256 in
  let rec prompt () =
    print_string (if Buffer.length buf = 0 then "sql> " else "...> ");
    flush stdout;
    match input_line_retry stdin with
    | None -> print_newline ()
    | Some line ->
      let trimmed = String.trim line in
      if Buffer.length buf = 0 && trimmed = "\\q" then ()
      else begin
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        let text = Buffer.contents buf in
        if String.contains trimmed ';' || String.contains text ';' then begin
          let stmt = String.trim text in
          Buffer.clear buf;
          let stmt =
            if String.length stmt > 0 && stmt.[String.length stmt - 1] = ';'
            then String.sub stmt 0 (String.length stmt - 1)
            else stmt
          in
          (let words =
             String.split_on_char ' ' stmt |> List.filter (( <> ) "")
           in
           match words with
           | "\\e" :: _ ->
             explain !db (String.sub stmt 2 (String.length stmt - 2))
           | [ "\\d" ] -> list_tables !db
           | [ "\\d"; name ] -> describe !db name
           | [ "\\i"; path; table ] -> import_csv !db path table
           | [ "\\save"; dir ] -> (
             match Sqlgraph.Persist.save !db ~dir with
             | Ok () -> Printf.printf "saved to %s\n" dir
             | Error e -> Printf.printf "error: %s\n" (Sqlgraph.Error.to_string e))
           | [ "\\load"; _ ] when !data_store <> None ->
             (* swapping the session out from under the WAL would let
                acknowledged statements vanish; recovery owns the state *)
             print_endline
               "error: \\load is not available under --data-dir (the data \
                directory owns the session state)"
           | [ "\\load"; dir ] -> (
             match Sqlgraph.Persist.load ~dir with
             | Ok fresh ->
               (* session options survive the swap *)
               !session_options fresh;
               Sqlgraph.Db.set_parallelism fresh (Sqlgraph.Db.parallelism !db);
               db := fresh;
               Printf.printf "loaded %s\n" dir
             | Error e -> Printf.printf "error: %s\n" (Sqlgraph.Error.to_string e))
           | [ "\\checkpoint" ] -> (
             match !data_store with
             | None ->
               print_endline
                 "error: \\checkpoint needs a durable session (start with \
                  --data-dir DIR)"
             | Some store -> (
               match Sqlgraph.Wal.checkpoint store !db with
               | Ok () ->
                 Printf.printf "checkpoint: generation %d\n"
                   (Sqlgraph.Wal.gen store)
               | Error e ->
                 Printf.printf "error: %s\n" (Sqlgraph.Error.to_string e)))
           | [ "\\timeout"; ms ] -> set_timeout ms
           | [ "\\limit"; rows ] -> set_max_rows rows
           | [ "\\stats" ] -> print_stats !db
           | [ "\\stat" ] ->
             (* top fingerprints by cumulative latency; the SQL view of
                the same data is SELECT ... FROM sqlgraph_stat_statements *)
             let entries = Sqlgraph.Stat_store.entries (Sqlgraph.Db.stat_store !db) in
             if entries = [] then print_endline "no statements observed yet"
             else begin
               Printf.printf "%-16s %8s %10s %9s  %s\n" "fingerprint" "calls"
                 "total_ms" "mean_ms" "query";
               List.iteri
                 (fun i (e : Sqlgraph.Stat_store.entry) ->
                   if i < 10 then
                     Printf.printf "%-16s %8d %10.2f %9.2f  %s\n"
                       (Sql.Fingerprint.to_hex e.fingerprint)
                       e.calls e.total_ms
                       (e.total_ms /. float_of_int (max 1 e.calls))
                       e.query)
                 entries;
               if List.length entries > 10 then
                 Printf.printf "(%d more; query sqlgraph_stat_statements)\n"
                   (List.length entries - 10)
             end
           | [ "\\stat"; "reset" ] ->
             (* zero the fingerprint store only; the metrics registry
                keeps accumulating (uptime, histograms) *)
             Sqlgraph.Db.reset_statement_stats !db;
             print_endline "statement statistics reset"
           | [ "\\metrics" ] ->
             print_string
               (Telemetry.Registry.to_table (Sqlgraph.Db.registry !db))
           | [ "\\trace"; "on" ] ->
             Telemetry.Trace.set_enabled true;
             print_endline "trace on"
           | [ "\\trace"; "off" ] ->
             Telemetry.Trace.set_enabled false;
             print_endline "trace off"
           | [ "\\trace"; "dump"; file ] -> (
             match
               Sqlgraph.Db.protect (fun () ->
                   Telemetry.Trace.write_catapult ~path:file)
             with
             | Ok () -> Printf.printf "trace written to %s\n" file
             | Error e ->
               Printf.printf "error: %s\n" (Sqlgraph.Error.to_string e))
           | [ "\\replica"; "status" ] ->
             (* the virtual table answers in any session; an embedded
                repl just shows the default idle row *)
             execute !db "SELECT * FROM sqlgraph_stat_replication"
           | [ "\\promote" ] ->
             print_endline
               "error: \\promote acts on a running standby server — use \
                'sqlgraph promote --socket PATH' (or send PROMOTE over a \
                client connection)"
           | [ "\\timing" ] ->
             timing := not !timing;
             Printf.printf "timing %s\n" (if !timing then "on" else "off")
           | _ -> if String.trim stmt <> "" then execute !db stmt);
          prompt ()
        end
        else prompt ()
      end
  in
  prompt ();
  close_store ();
  dump_trace ()

let run_file db path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m ->
    Printf.eprintf "cannot read %s: %s\n" path m;
    exit 1
  | source -> (
    (* Statement-at-a-time so the metrics files show each statement as
       it runs, not just a script-final summary. *)
    match
      Sqlgraph.Db.exec_script_each db ~budget:(current_budget ()) source
        ~f:(fun result ->
          Result.iter print_outcome result;
          statement_sinks db)
    with
    | Ok () ->
      close_store ();
      dump_trace ()
    | Error e ->
      Printf.eprintf "error: %s\n" (Sqlgraph.Error.to_string e);
      close_store ();
      dump_trace ();
      exit 1)

let load_demo db =
  let graph = Datagen.Snb.generate ~scale_factor:1 ~ratio:0.1 ~seed:42 () in
  Sqlgraph.Db.load_table db ~name:"persons" graph.Datagen.Snb.persons;
  Sqlgraph.Db.load_table db ~name:"friends" graph.Datagen.Snb.friends;
  Printf.printf
    "loaded demo social network: persons(%d rows), friends(%d rows)\n"
    (Storage.Table.nrows graph.Datagen.Snb.persons)
    (Storage.Table.nrows graph.Datagen.Snb.friends);
  print_endline
    "try: SELECT CHEAPEST SUM(1) WHERE 7 REACHES 137 OVER friends EDGE (src, dst);"

open Cmdliner

let apply_limits t r d j (ja, mo, tr, sq, sl) =
  timeout_ms := t;
  max_rows := r;
  json_metrics := j;
  let logs =
    Sqlgraph.Db.create_logs
      ~slow_log:(Option.value sl ~default:"sqlgraph-slow.ndjson")
      ?firehose:ja ()
  in
  (session_options :=
     fun db ->
       Option.iter (Sqlgraph.Db.set_parallelism db) d;
       Sqlgraph.Db.set_slow_query_ms db sq;
       Sqlgraph.Db.set_logs db logs);
  metrics_out := mo;
  trace_out := tr;
  (* --trace-out enables tracing for the whole session; --slow-query-ms
     too, so slow records carry their top-spans breakdown. *)
  if tr <> None || sq <> None then Telemetry.Trace.set_enabled true

(* A session database honouring the session options and --data-dir.  A
   durable session recovers on open: checkpoint load plus WAL replay,
   reporting a torn tail (bytes truncated) when the previous process
   died mid-record. *)
let make_db (data_dir, no_fsync, readonly) =
  if readonly && data_dir = None then begin
    Printf.eprintf "error: --readonly needs --data-dir DIR\n";
    exit 2
  end;
  let db =
    match data_dir with
    | None -> Sqlgraph.Db.create ()
    | Some dir -> (
      match Sqlgraph.Wal.open_dir ~fsync:(not no_fsync) ~readonly dir with
      | Error e ->
        Printf.eprintf "error: cannot open data directory %s: %s\n" dir
          (Sqlgraph.Error.to_string e);
        exit 1
      | Ok (store, db, r) ->
        data_store := Some store;
        if r.Sqlgraph.Wal.rec_truncated_bytes > 0 then
          Printf.eprintf
            "warning: %s: torn or corrupt WAL tail — %d bytes truncated, \
             recovered to the last intact record\n\
             %!"
            dir r.Sqlgraph.Wal.rec_truncated_bytes;
        if
          r.Sqlgraph.Wal.rec_replayed > 0
          || r.Sqlgraph.Wal.rec_skipped > 0
          || r.Sqlgraph.Wal.rec_gen > 0
        then
          Printf.eprintf
            "recovered %s: generation %d, %d statements replayed, %d skipped\n%!"
            dir r.Sqlgraph.Wal.rec_gen r.Sqlgraph.Wal.rec_replayed
            r.Sqlgraph.Wal.rec_skipped;
        db)
  in
  !session_options db;
  db

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"MS"
        ~doc:"Per-statement wall-clock budget in milliseconds.")

let max_rows_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-rows" ] ~docv:"N" ~doc:"Per-statement result-row budget.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Traversal parallelism: domains per shortest-path batch \
           (equivalent to SET parallelism = N).")

let json_metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json-metrics" ] ~docv:"FILE"
        ~doc:
          "After each statement, dump the last query's execution counters \
           to FILE as JSON (schema sqlgraph-metrics-v1). One-shot: each \
           statement overwrites FILE, so a script keeps only its final \
           query (use $(b,--json-metrics-append) to keep them all).")

let json_metrics_append_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json-metrics-append" ] ~docv:"FILE"
        ~doc:
          "Append one compact JSON object per statement to FILE (NDJSON): \
           sql, fingerprint, query id, duration, outcome and execution \
           counters. Under $(b,serve), every session appends to the one \
           FILE, one whole line per statement.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "After each statement, write the session's cumulative metrics \
           registry to FILE in Prometheus text exposition format v0.0.4.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Enable span tracing and, on exit, dump the ring buffer to FILE \
           as Chrome trace-event JSON (chrome://tracing, Perfetto).")

let slow_query_ms_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "slow-query-ms" ] ~docv:"MS"
        ~doc:
          "Append statements that take MS milliseconds or more to the \
           slow-query log as NDJSON (0 logs every statement). Equivalent to \
           SET slow_query_ms = MS; under $(b,serve) it is every session's \
           starting threshold.")

let slow_query_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "slow-query-log" ] ~docv:"FILE"
        ~doc:
          "Slow-query log destination (default sqlgraph-slow.ndjson). Under \
           $(b,serve), every session appends to the one FILE.")

let data_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "data-dir" ] ~docv:"DIR"
        ~doc:
          "Open DIR as a crash-safe data directory (created if missing): \
           recover checkpoint + write-ahead log on start, then log every \
           committed DML statement before acknowledging it. Use \
           $(b,\\\\checkpoint) to compact the log.")

let no_fsync_arg =
  Arg.(
    value & flag
    & info [ "no-fsync" ]
        ~doc:
          "With $(b,--data-dir): keep write-ahead logging but skip every \
           fsync. Much faster; crash safety then depends on the OS page \
           cache surviving the crash (fine for benchmarks, not for data \
           you love).")

(* The observability flags travel as one tuple so each subcommand's term
   stays readable. *)
let obs_args =
  Term.(
    const (fun ja mo tr sq sl -> (ja, mo, tr, sq, sl))
    $ json_metrics_append_arg $ metrics_out_arg $ trace_out_arg
    $ slow_query_ms_arg $ slow_query_log_arg)

let readonly_arg =
  Arg.(
    value & flag
    & info [ "readonly" ]
        ~doc:
          "With $(b,--data-dir): open the directory for inspection only — \
           recover (checkpoint + WAL replay), then refuse every DML/DDL \
           statement and never write the WAL or CURRENT pointer. Safe to \
           point at a directory another process is actively serving from.")

(* Durability flags, same pattern. *)
let dur_args =
  Term.(
    const (fun dd nf ro -> (dd, nf, ro))
    $ data_dir_arg $ no_fsync_arg $ readonly_arg)

let repl_main t r d j obs dur =
  apply_limits t r d j obs;
  repl (make_db dur)

let repl_cmd =
  Cmd.v (Cmd.info "repl" ~doc:"Interactive SQL shell.")
    Term.(
      const repl_main $ timeout_arg $ max_rows_arg $ domains_arg
      $ json_metrics_arg $ obs_args $ dur_args)

let run_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"SQL script")
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a SQL script file.")
    Term.(
      const (fun t r d j obs dur f ->
          apply_limits t r d j obs;
          run_file (make_db dur) f)
      $ timeout_arg $ max_rows_arg $ domains_arg $ json_metrics_arg
      $ obs_args $ dur_args $ file)

let demo_cmd =
  Cmd.v
    (Cmd.info "demo"
       ~doc:"Open a shell with a synthetic social network preloaded.")
    Term.(
      const (fun t r d j obs dur ->
          apply_limits t r d j obs;
          let db = make_db dur in
          load_demo db;
          (* capture the bulk-loaded demo tables before the first DML *)
          checkpoint_if_durable db ~why:"demo load";
          repl db)
      $ timeout_arg $ max_rows_arg $ domains_arg $ json_metrics_arg
      $ obs_args $ dur_args)

(* --- serve: the multi-session server ------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Serve a Unix-domain socket at PATH.")

let host_arg =
  Arg.(
    value & opt string ""
    & info [ "host" ] ~docv:"ADDR"
        ~doc:"Bind address for $(b,--port) (default loopback).")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"N" ~doc:"Serve TCP on port N (0 = ephemeral).")

let max_sessions_arg =
  Arg.(
    value & opt int 32
    & info [ "max-sessions" ] ~docv:"N"
        ~doc:
          "Session cap; further connections are refused with ERR busy. \
           Clamped to 900: session I/O uses select(2), which cannot handle \
           file descriptors at or above FD_SETSIZE (1024).")

let idle_timeout_arg =
  Arg.(
    value & opt int 30_000
    & info [ "idle-timeout-ms" ] ~docv:"MS"
        ~doc:"Close sessions idle longer than MS milliseconds.")

(* Parse a --warm-index spec "table:src:dst" and enable that graph
   index, so the standby's apply loop keeps it warm.  A fresh standby
   receives its schema over the stream, so in [defer] mode the enable
   retries in the background until the table lands (a final failure is
   a warning, not a fatal error — the server is already serving). *)
let enable_warm_index ?(defer = false) db spec =
  match String.split_on_char ':' spec with
  | [ table; src; dst ] ->
    let enable () = Sqlgraph.Db.create_graph_index db ~table ~src ~dst in
    if not defer then (
      match enable () with
      | Ok () -> ()
      | Error e ->
        Printf.eprintf "error: --warm-index %s: %s\n" spec
          (Sqlgraph.Error.to_string e);
        exit 2)
    else
      ignore
        (Thread.create
           (fun () ->
             let deadline = Unix.gettimeofday () +. 60. in
             let rec go () =
               match enable () with
               | Ok () -> ()
               | Error e ->
                 if Unix.gettimeofday () < deadline then begin
                   Unix.sleepf 0.25;
                   go ()
                 end
                 else
                   Printf.eprintf "warning: --warm-index %s: %s\n%!" spec
                     (Sqlgraph.Error.to_string e)
             in
             go ())
           ())
  | _ ->
    Printf.eprintf "error: --warm-index expects TABLE:SRC:DST, got %s\n" spec;
    exit 2

let serve_main t r d obs (dd, nf, ro) socket host port max_sessions idle_ms
    replica_of warm_indexes =
  apply_limits t r d None obs;
  if socket = None && port = None then begin
    Printf.eprintf "error: serve needs --socket PATH and/or --port N\n";
    exit 2
  end;
  let standby_of = ref None in
  let db, store =
    match replica_of with
    | Some ep_str -> (
      (* hot standby (DESIGN.md §15): open the data dir in replica mode
         and stream the primary's WAL into it *)
      let primary =
        try Sqlgraph_server.Client.parse_endpoint ep_str
        with Invalid_argument msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 2
      in
      let dir =
        match dd with
        | Some dir -> dir
        | None ->
          Printf.eprintf "error: --replica-of needs --data-dir DIR\n";
          exit 2
      in
      if ro then begin
        Printf.eprintf "error: --replica-of and --readonly conflict\n";
        exit 2
      end;
      match Sqlgraph.Wal.open_replica ~fsync:(not nf) dir with
      | Error e ->
        Printf.eprintf "error: %s\n" (Sqlgraph.Error.to_string e);
        exit 2
      | Ok (store, db, r) ->
        data_store := Some store;
        standby_of := Some primary;
        Printf.printf
          "standby of %s: generation %d, %d records replayed%s\n%!" ep_str
          r.Sqlgraph.Wal.rec_gen r.Sqlgraph.Wal.rec_replayed
          (if r.Sqlgraph.Wal.rec_truncated_bytes > 0 then
             Printf.sprintf " (%d torn bytes truncated)"
               r.Sqlgraph.Wal.rec_truncated_bytes
           else "");
        !session_options db;
        (db, Some store))
    | None ->
      let db = make_db (dd, nf, ro) in
      (* a read-only server never writes, so it gets no store: group
         commit and the shutdown checkpoint would be refused anyway *)
      (db, if ro then None else !data_store)
  in
  List.iter (enable_warm_index ~defer:(!standby_of <> None) db) warm_indexes;
  let config =
    {
      Sqlgraph_server.Scheduler.default_config with
      max_sessions;
      idle_timeout_ms = idle_ms;
      budget = current_budget ();
    }
  in
  let srv = Sqlgraph_server.Server.create ~config ~db ~store () in
  let sched = Sqlgraph_server.Server.scheduler srv in
  (* replication role: a durable primary hosts the hub (standbys may
     attach any time); --replica-of starts the streaming standby *)
  let repl_hub, standby =
    match (!standby_of, store) with
    | Some primary, Some st ->
      ( None,
        Some
          (Sqlgraph_server.Replication.Standby.create ~sched ~store:st ~db
             ~primary ()) )
    | None, Some st ->
      ( Some (Sqlgraph_server.Replication.Hub.create ~sched ~store:st ~db ()),
        None )
    | _ -> (None, None)
  in
  (match socket with
  | Some path ->
    Sqlgraph_server.Server.listen_unix srv path;
    Printf.printf "listening on unix:%s\n%!" path
  | None -> ());
  (match port with
  | Some p -> (
    Sqlgraph_server.Server.listen_tcp srv host p;
    match Sqlgraph_server.Server.bound_port srv with
    | Some bp ->
      Printf.printf "listening on %s:%d\n%!"
        (if host = "" then "127.0.0.1" else host)
        bp
    | None -> ())
  | None -> ());
  (* SIGTERM / first SIGINT: graceful drain (flag checked by the main
     loop).  A second signal force-exits a wedged drain. *)
  let stop_signals = ref 0 in
  let on_signal _ =
    incr stop_signals;
    if !stop_signals > 1 then exit 130
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  while !stop_signals = 0 do
    Unix.sleepf 0.1
  done;
  print_endline "shutting down: draining sessions...";
  Option.iter Sqlgraph_server.Replication.Standby.stop standby;
  Option.iter Sqlgraph_server.Replication.Hub.stop repl_hub;
  Sqlgraph_server.Server.shutdown srv;
  write_prometheus db;
  close_store ();
  dump_trace ();
  print_endline "bye"

let replica_of_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replica-of" ] ~docv:"ENDPOINT"
        ~doc:
          "Run as a hot standby of the primary at ENDPOINT (unix:/path or \
           host:port): stream its WAL into --data-dir, serve read-only \
           snapshot queries, and accept $(b,sqlgraph promote) to take over \
           writes after a primary failure.")

let warm_index_arg =
  Arg.(
    value & opt_all string []
    & info [ "warm-index" ] ~docv:"TABLE:SRC:DST"
        ~doc:
          "Enable a graph index on TABLE(SRC, DST) at startup (repeatable). \
           On a standby the apply loop rebuilds it after every applied \
           batch, so the first path query after promotion hits a warm \
           cache.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the database to many concurrent sessions (snapshot-isolated \
          reads, group-committed writes, admission control, WAL-streaming \
          replication).")
    Term.(
      const serve_main $ timeout_arg $ max_rows_arg $ domains_arg $ obs_args
      $ dur_args $ socket_arg $ host_arg $ port_arg $ max_sessions_arg
      $ idle_timeout_arg $ replica_of_arg $ warm_index_arg)

(* --- client: line-protocol client for serve ------------------------ *)

(* Resolve the endpoint list a client (or promote) command targets:
   --endpoints wins, else --socket / --port. *)
let client_endpoints socket host port endpoints =
  let module C = Sqlgraph_server.Client in
  match endpoints with
  | Some list -> (
    match
      String.split_on_char ',' list
      |> List.map String.trim
      |> List.filter (( <> ) "")
      |> List.map C.parse_endpoint
    with
    | [] ->
      Printf.eprintf "error: --endpoints is empty\n";
      exit 2
    | eps -> eps
    | exception Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2)
  | None -> (
    match (socket, port) with
    | Some path, _ -> [ C.Unix_ep path ]
    | None, Some p -> [ C.Tcp_ep ((if host = "" then "127.0.0.1" else host), p) ]
    | None, None ->
      Printf.eprintf
        "error: client needs --socket PATH, --port N or --endpoints LIST\n";
      exit 2)

let client_main socket host port endpoints retries backoff_ms exec_sql =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let module C = Sqlgraph_server.Client in
  let eps = client_endpoints socket host port endpoints in
  let pool = C.Pool.create ~retries ~backoff_ms eps in
  let failed = ref false in
  let round sql =
    match C.Pool.request pool sql with
    | lines -> (
      List.iter print_endline lines;
      if not (C.is_ok lines) then failed := true;
      (* BYE means the server is done with us *)
      match Sqlgraph_server.Protocol.decode_reply (C.terminal lines) with
      | Some (Sqlgraph_server.Protocol.Bye _) -> true
      | _ -> false)
    | exception Invalid_argument msg ->
      (* a statement with a line break: refused, nothing was sent *)
      Printf.eprintf "error: %s\n" msg;
      failed := true;
      false
    | exception C.Pool.Exhausted msg ->
      Printf.eprintf "error: %s\n" msg;
      C.Pool.close pool;
      exit 2
  in
  (match exec_sql with
  | Some script ->
    let stmts =
      String.split_on_char ';' script
      |> List.map String.trim
      |> List.filter (( <> ) "")
    in
    ignore (List.exists round stmts)
  | None ->
    (* pipe mode: one statement per stdin line *)
    let rec go () =
      match In_channel.input_line stdin with
      | None -> ()
      | Some line when String.trim line = "" -> go ()
      | Some line -> if round line then () else go ()
    in
    go ());
  C.Pool.close pool;
  exit (if !failed then 1 else 0)

let endpoints_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "endpoints" ] ~docv:"LIST"
        ~doc:
          "Comma-separated server endpoints (unix:/path or host:port), tried \
           in order with failover: on connection loss, busy rejection or a \
           standby's read-only refusal the client rotates to the next one \
           with bounded exponential backoff.")

let retries_arg =
  Arg.(
    value & opt int 4
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry budget per statement across busy hints, reconnects and \
           failover; the exit status is nonzero only once it is exhausted.")

let backoff_arg =
  Arg.(
    value & opt int 25
    & info [ "backoff-ms" ] ~docv:"MS"
        ~doc:
          "Initial retry backoff, doubled per attempt up to a 2 s cap; an \
           $(b,ERR busy retry_ms=n) hint raises a single sleep to n.")

let client_cmd =
  let exec_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "e"; "execute" ] ~docv:"SQL"
          ~doc:
            "Execute a ';'-separated statement list and exit (otherwise \
             statements are read from stdin, one per line). Exit status: 0 \
             all OK, 1 a statement failed, 2 connection error / retries \
             exhausted.")
  in
  Cmd.v
    (Cmd.info "client" ~doc:"Connect to a running $(b,sqlgraph serve).")
    Term.(
      const client_main $ socket_arg $ host_arg $ port_arg $ endpoints_arg
      $ retries_arg $ backoff_arg $ exec_arg)

(* --- promote: turn a standby into the primary ---------------------- *)

let promote_main socket host port endpoints =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let module C = Sqlgraph_server.Client in
  let eps = client_endpoints socket host port endpoints in
  let ep = List.hd eps in
  match C.connect_endpoint ep with
  | exception e ->
    Printf.eprintf "error: cannot connect to %s: %s\n" (C.endpoint_name ep)
      (Printexc.to_string e);
    exit 2
  | c ->
    let lines = C.request ~timeout_ms:30_000 c Sqlgraph_server.Protocol.promote in
    List.iter print_endline lines;
    C.close c;
    exit (if C.is_ok lines then 0 else 1)

let promote_cmd =
  Cmd.v
    (Cmd.info "promote"
       ~doc:
         "Promote the standby at --socket/--port (or the first of \
          --endpoints) to primary: fence the replication stream, checkpoint \
          the applied state into a fresh generation, and start accepting \
          writes.")
    Term.(
      const promote_main $ socket_arg $ host_arg $ port_arg $ endpoints_arg)

(* ---- stress: the discrete-event workload simulator ---- *)

let stress_main tier backend seed statements clients domains json =
  let cfg = Sim.Driver.config_of_tier ~backend ~seed ~domains tier in
  let cfg =
    {
      cfg with
      Sim.Driver.statements =
        Option.value ~default:cfg.Sim.Driver.statements statements;
      clients = Option.value ~default:cfg.Sim.Driver.clients clients;
    }
  in
  let report = Sim.Driver.run cfg in
  Sim.Driver.print_report report;
  Option.iter
    (fun path -> Sqlgraph.Metrics.write_file ~path (Sim.Driver.json_report cfg report))
    json;
  exit (if report.Sim.Driver.violation_count > 0 then 1 else 0)

let stress_cmd =
  let tier_arg =
    let tier =
      Arg.enum
        [
          ("small", Sim.Driver.Small);
          ("medium", Sim.Driver.Medium);
          ("large", Sim.Driver.Large);
        ]
    in
    Arg.(
      value
      & opt tier Sim.Driver.Small
      & info [ "tier" ]
          ~doc:
            "Workload tier: $(b,small) (~50k statements), $(b,medium) (1M), \
             $(b,large) (2M over an SF100-class graph).")
  in
  let backend_arg =
    let backend =
      Arg.enum
        [ ("inproc", Sim.Driver.Inproc); ("server", Sim.Driver.Server_sessions) ]
    in
    Arg.(
      value
      & opt backend Sim.Driver.Inproc
      & info [ "backend" ]
          ~doc:
            "$(b,inproc) drives a WAL-backed database (supports \
             kill-and-recover); $(b,server) drives the multi-session server \
             over socketpairs (reconnect churn, snapshot monotonicity).")
  in
  let seed_arg =
    Arg.(
      value & opt int 20170519
      & info [ "seed" ] ~doc:"Simulation seed; same seed, same trace digest.")
  in
  let statements_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "statements" ] ~doc:"Override the tier's statement count.")
  in
  let clients_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "clients" ] ~doc:"Override the tier's simulated client count.")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ]
          ~doc:
            "Traversal parallelism: SET parallelism applied to every backend \
             db (re-applied after kill-and-recover).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the report as JSON (schema sqlgraph-bench-v1).")
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:
         "Run the deterministic workload simulator: seeded statement mixes, \
          invariant checks, kill-and-recover, latency percentiles. Exit \
          status: 0 clean, 1 invariant violations.")
    Term.(
      const stress_main $ tier_arg $ backend_arg $ seed_arg $ statements_arg
      $ clients_arg $ domains_arg $ json_arg)

let () =
  Sqlgraph.Fault.arm_from_env ();
  let info =
    Cmd.info "sqlgraph"
      ~doc:"A SQL engine with the REACHES / CHEAPEST SUM shortest-path extension."
  in
  let default =
    Term.(
      const repl_main $ timeout_arg $ max_rows_arg $ domains_arg
      $ json_metrics_arg $ obs_args $ dur_args)
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            repl_cmd;
            run_cmd;
            demo_cmd;
            serve_cmd;
            client_cmd;
            promote_cmd;
            stress_cmd;
          ]))
