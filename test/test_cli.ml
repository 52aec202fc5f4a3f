(* Integration tests driving the real sqlgraph_cli binary (built as a
   dependency of this test; see test/dune). Each case feeds a script or
   stdin and asserts on captured output. *)

open Testjson.Support

let cli_path = "../bin/sqlgraph_cli.exe"

let read_file path = In_channel.with_open_text path In_channel.input_all

let with_temp_file contents f =
  let path = Filename.temp_file "sqlgraph_cli_test" ".sql" in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* Run the CLI with [args]; optionally feed [stdin]; return (exit, output). *)
let run_cli ?stdin args =
  let out = Filename.temp_file "sqlgraph_cli_out" ".txt" in
  let redirect_in =
    match stdin with
    | None -> "< /dev/null"
    | Some path -> Printf.sprintf "< %s" (Filename.quote path)
  in
  let cmd =
    Printf.sprintf "%s %s %s > %s 2>&1" cli_path args redirect_in
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let text = read_file out in
  Sys.remove out;
  (code, text)


let test_run_script () =
  with_temp_file
    "CREATE TABLE e (a INTEGER, b INTEGER);\n\
     INSERT INTO e VALUES (1, 2), (2, 3);\n\
     SELECT CHEAPEST SUM(1) AS d WHERE 1 REACHES 3 OVER e EDGE (a, b);\n"
    (fun script ->
      let code, out = run_cli ("run " ^ Filename.quote script) in
      check tbool "exit 0" true (code = 0);
      check tbool "create echoed" true (contains out "CREATE TABLE");
      check tbool "insert echoed" true (contains out "INSERT 2");
      check tbool "distance" true (contains out "| 2"))

let test_run_script_with_update_delete () =
  with_temp_file
    "CREATE TABLE t (x INTEGER);\n\
     INSERT INTO t VALUES (1), (2), (3);\n\
     UPDATE t SET x = x * 10 WHERE x > 1;\n\
     DELETE FROM t WHERE x = 1;\n\
     SELECT x FROM t ORDER BY x;\n"
    (fun script ->
      let code, out = run_cli ("run " ^ Filename.quote script) in
      check tbool "exit 0" true (code = 0);
      check tbool "update count" true (contains out "UPDATE 2");
      check tbool "delete count" true (contains out "DELETE 1");
      check tbool "rows" true (contains out "| 20" && contains out "| 30"))

let test_run_script_error_exit () =
  with_temp_file "SELECT FROM nope;\n" (fun script ->
      let code, out = run_cli ("run " ^ Filename.quote script) in
      check tbool "nonzero exit" true (code <> 0);
      check tbool "error message" true (contains out "error"))

let test_repl_session () =
  with_temp_file
    "CREATE TABLE t (x INTEGER);\n\
     INSERT INTO t VALUES (7);\n\
     \\d;\n\
     \\timing;\n\
     SELECT x + 1 FROM t;\n\
     \\e SELECT x FROM t WHERE x > 0;\n\
     \\q\n"
    (fun input ->
      let code, out = run_cli ~stdin:input "repl" in
      check tbool "exit 0" true (code = 0);
      check tbool "describe shows table" true (contains out "t (1 rows)");
      check tbool "timing toggled" true (contains out "timing on");
      check tbool "query result" true (contains out "| 8");
      check tbool "explain output" true (contains out "Filter"))

let test_repl_csv_import () =
  let csv = Filename.temp_file "sqlgraph_cli_test" ".csv" in
  Out_channel.with_open_text csv (fun oc ->
      Out_channel.output_string oc "name,age\nann,31\nbob,29\n");
  Fun.protect
    ~finally:(fun () -> Sys.remove csv)
    (fun () ->
      with_temp_file
        (Printf.sprintf
           "\\i %s people;\nSELECT name FROM people WHERE CAST(age AS INTEGER) > 30;\n\\q\n"
           csv)
        (fun input ->
          let code, out = run_cli ~stdin:input "repl" in
          check tbool "exit 0" true (code = 0);
          check tbool "loaded" true (contains out "loaded 2 rows into people");
          check tbool "query over import" true (contains out "| ann")))

let test_repl_save_load () =
  let dir = Filename.temp_file "sqlgraph_cli_persist" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      with_temp_file
        (Printf.sprintf
           "CREATE TABLE t (x INTEGER);\nINSERT INTO t VALUES (5);\n\\save %s;\n\\q\n"
           dir)
        (fun input ->
          let code, out = run_cli ~stdin:input "repl" in
          check tbool "save exit 0" true (code = 0);
          check tbool "saved" true (contains out "saved to"));
      with_temp_file
        (Printf.sprintf "\\load %s;\nSELECT x FROM t;\n\\q\n" dir)
        (fun input ->
          let code, out = run_cli ~stdin:input "repl" in
          check tbool "load exit 0" true (code = 0);
          check tbool "loaded" true (contains out "loaded");
          check tbool "data survived" true (contains out "| 5")))

let test_bad_subcommand () =
  let code, _ = run_cli "definitely-not-a-command" in
  check tbool "nonzero exit" true (code <> 0)

(* ------------------------------------------------------------------ *)
(* Resource limits and fault injection, end to end                     *)
(* ------------------------------------------------------------------ *)

let test_run_max_rows_flag () =
  with_temp_file
    "CREATE TABLE t (x INTEGER);\n\
     INSERT INTO t VALUES (1), (2), (3), (4);\n\
     SELECT x FROM t;\n"
    (fun script ->
      let code, out = run_cli ("run --max-rows 2 " ^ Filename.quote script) in
      check tbool "nonzero exit" true (code <> 0);
      check tbool "rows budget reported" true
        (contains out "resource error" && contains out "rows budget"))

let test_repl_timeout_and_limit_meta () =
  with_temp_file
    "CREATE TABLE e (src INTEGER, dst INTEGER);\n\
     INSERT INTO e VALUES (1, 2), (2, 3), (3, 4);\n\
     \\limit 2;\n\
     SELECT * FROM e;\n\
     \\limit off;\n\
     SELECT * FROM e;\n\
     \\timeout 0.0001;\n\
     SELECT CHEAPEST SUM(1) WHERE 1 REACHES 4 OVER e EDGE (src, dst);\n\
     \\timeout off;\n\
     SELECT CHEAPEST SUM(1) WHERE 1 REACHES 4 OVER e EDGE (src, dst);\n\
     \\q\n"
    (fun input ->
      let code, out = run_cli ~stdin:input "repl" in
      check tbool "exit 0" true (code = 0);
      check tbool "limit set" true (contains out "limit 2");
      check tbool "rows budget trips" true (contains out "rows budget exceeded");
      check tbool "limit cleared" true (contains out "limit off");
      check tbool "timeout trips" true (contains out "timeout exceeded");
      check tbool "query works after clearing" true (contains out "| 3"))

let test_fault_env_var () =
  (* SQLGRAPH_FAULT is read by the CLI at startup; the armed fault kills
     the first statement that reaches a BFS checkpoint, then disarms, so
     the session keeps working. *)
  with_temp_file
    "CREATE TABLE e (src INTEGER, dst INTEGER);\n\
     INSERT INTO e VALUES (1, 2), (2, 3);\n\
     SELECT CHEAPEST SUM(1) WHERE 1 REACHES 3 OVER e EDGE (src, dst);\n\
     SELECT CHEAPEST SUM(1) WHERE 1 REACHES 3 OVER e EDGE (src, dst);\n\
     \\q\n"
    (fun input ->
      let out_f = Filename.temp_file "sqlgraph_cli_out" ".txt" in
      let cmd =
        Printf.sprintf "SQLGRAPH_FAULT=site=bfs %s repl < %s > %s 2>&1"
          cli_path (Filename.quote input) (Filename.quote out_f)
      in
      let code = Sys.command cmd in
      let out = read_file out_f in
      Sys.remove out_f;
      check tbool "repl exit 0" true (code = 0);
      check tbool "fault surfaced" true (contains out "injected fault at bfs");
      check tbool "one-shot: second query answers" true (contains out "| 2"))

(* --- observability sinks ------------------------------------------- *)

let with_temp_out f =
  let path = Filename.temp_file "sqlgraph_obs" ".out" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let obs_script =
  "CREATE TABLE e (src INTEGER, dst INTEGER);\n\
   INSERT INTO e VALUES (1, 2), (2, 3), (3, 4);\n\
   SELECT CHEAPEST SUM(1) AS d WHERE 1 REACHES 4 OVER e EDGE (src, dst);\n"

let ndjson_lines path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")

let parse_json what s =
  match Testjson.Json_support.parse_result s with
  | Ok j -> j
  | Error m -> Alcotest.failf "%s: invalid JSON: %s (%s)" what m s

let test_json_metrics_append () =
  with_temp_file obs_script (fun script ->
      with_temp_out (fun metrics ->
          let code, _ =
            run_cli
              (Printf.sprintf "run %s --json-metrics-append %s"
                 (Filename.quote script) (Filename.quote metrics))
          in
          check tbool "exit 0" true (code = 0);
          let lines = ndjson_lines metrics in
          check Alcotest.int "one record per statement" 3 (List.length lines);
          List.iter
            (fun line ->
              let j = parse_json "metrics record" line in
              let open Testjson.Json_support in
              check (Alcotest.option Alcotest.string) "schema tag"
                (Some "sqlgraph-metrics-v1")
                (to_string_opt (member "schema" j));
              check tbool "has sql" true (member "sql" j <> None);
              check tbool "has ms" true (member "ms" j <> None))
            lines))

let test_metrics_meta_and_trace_dump () =
  with_temp_out (fun trace ->
      with_temp_file
        (obs_script ^ "\\metrics;\n\\trace dump " ^ trace ^ ";\n\\q\n")
        (fun input ->
          let code, out = run_cli ~stdin:input "repl --trace-out /dev/null" in
          check tbool "exit 0" true (code = 0);
          check tbool "\\metrics lists statement histogram" true
            (contains out "sqlgraph_statement_seconds");
          check tbool "\\metrics shows quantiles" true (contains out "p50");
          check tbool "\\metrics counts statements" true
            (contains out "sqlgraph_statements_total");
          let doc = parse_json "trace dump" (read_file trace) in
          match Testjson.Json_support.member "traceEvents" doc with
          | Some (Sqlgraph.Metrics.List evs) ->
            check tbool "trace has events" true (List.length evs > 0)
          | _ -> Alcotest.fail "no traceEvents in \\trace dump"))

let test_trace_on_off_meta () =
  with_temp_out (fun trace ->
      with_temp_file
        ("CREATE TABLE t (x INTEGER);\n\\trace on;\nSELECT 1 AS one;\n\
          \\trace dump " ^ trace ^ ";\n\\trace off;\n\\q\n")
        (fun input ->
          let code, out = run_cli ~stdin:input "repl" in
          check tbool "exit 0" true (code = 0);
          check tbool "trace acknowledged" true (contains out "trace on");
          let doc = parse_json "trace dump" (read_file trace) in
          check tbool "dump parses to an object" true
            (Testjson.Json_support.member "traceEvents" doc <> None)))

let test_metrics_out_prometheus () =
  with_temp_file obs_script (fun script ->
      with_temp_out (fun prom ->
          let code, _ =
            run_cli
              (Printf.sprintf "run %s --metrics-out %s" (Filename.quote script)
                 (Filename.quote prom))
          in
          check tbool "exit 0" true (code = 0);
          let out = read_file prom in
          check tbool "HELP/TYPE pairs" true
            (contains out "# TYPE sqlgraph_statements_total counter");
          check tbool "histogram buckets" true
            (contains out "sqlgraph_statement_seconds_bucket{le=\"+Inf\"}");
          check tbool "histogram sum" true
            (contains out "sqlgraph_statement_seconds_sum")))

let test_slow_query_log () =
  with_temp_file obs_script (fun script ->
      (* Threshold 0: every statement is slow; each record is one JSON
         object naming its top spans. *)
      with_temp_out (fun log ->
          let code, _ =
            run_cli
              (Printf.sprintf "run %s --slow-query-ms 0 --slow-query-log %s"
                 (Filename.quote script) (Filename.quote log))
          in
          check tbool "exit 0" true (code = 0);
          let lines = ndjson_lines log in
          check Alcotest.int "every statement logged" 3 (List.length lines);
          List.iter
            (fun line ->
              let j = parse_json "slow-query record" line in
              let open Testjson.Json_support in
              check tbool "has query text" true (member "query" j <> None);
              check (Alcotest.option Alcotest.string) "verdict ok" (Some "ok")
                (to_string_opt (member "verdict" j));
              check tbool "has spans" true (member "spans" j <> None))
            lines);
      (* A huge threshold never fires. *)
      with_temp_out (fun log ->
          let code, _ =
            run_cli
              (Printf.sprintf
                 "run %s --slow-query-ms 100000 --slow-query-log %s"
                 (Filename.quote script) (Filename.quote log))
          in
          check tbool "exit 0" true (code = 0);
          check Alcotest.int "log stays empty" 0
            (List.length (ndjson_lines log))))

let test_set_slow_query_ms_repl () =
  with_temp_out (fun log ->
      with_temp_file
        (obs_script ^ "SET slow_query_ms = 0;\n\
          SELECT CHEAPEST SUM(1) AS d WHERE 1 REACHES 4 OVER e EDGE (src, dst);\n\
          \\q\n")
        (fun input ->
          let code, out =
            run_cli ~stdin:input
              (Printf.sprintf "repl --slow-query-log %s" (Filename.quote log))
          in
          check tbool "exit 0" true (code = 0);
          check tbool "SET acknowledged" true (contains out "slow_query_ms = 0");
          (* Only statements after the SET are logged. *)
          let lines = ndjson_lines log in
          check tbool "the query after SET landed in the log" true
            (List.length lines >= 1);
          List.iter (fun l -> ignore (parse_json "slow record" l)) lines))

(* ------------------------------------------------------------------ *)
(* Durability: --data-dir, \checkpoint, recovery messages *)

let test_data_dir_recovers () =
  with_temp_dir (fun dir ->
      let ddir = Filename.quote dir in
      with_temp_file
        "CREATE TABLE t (a INTEGER);\n\
         INSERT INTO t VALUES (1), (2);\n\
         INSERT INTO t VALUES (3);\n"
        (fun script ->
          let code, _ =
            run_cli (Printf.sprintf "run %s --data-dir %s" (Filename.quote script) ddir)
          in
          check tbool "first run exit 0" true (code = 0));
      with_temp_file "SELECT COUNT(*) FROM t;\n" (fun script ->
          let code, out =
            run_cli
              (Printf.sprintf "run %s --data-dir %s" (Filename.quote script) ddir)
          in
          check tbool "reopen exit 0" true (code = 0);
          check tbool "recovery message" true (contains out "recovered");
          check tbool "statements replayed" true
            (contains out "3 statements replayed");
          check tbool "rows survived" true (contains out "| 3")))

(* Recovery replays the first run's statements without logging them
   again: each log holds one record per statement either run executed. *)
let test_recovery_writes_no_records () =
  with_temp_dir (fun dir ->
      with_temp_out (fun fire ->
          with_temp_out (fun slow ->
              let run sql =
                with_temp_file sql (fun script ->
                    let code, _ =
                      run_cli
                        (Printf.sprintf
                           "run %s --data-dir %s --json-metrics-append %s \
                            --slow-query-ms 0 --slow-query-log %s"
                           (Filename.quote script) (Filename.quote dir)
                           (Filename.quote fire) (Filename.quote slow))
                    in
                    check tbool "exit 0" true (code = 0))
              in
              run "CREATE TABLE t (a INTEGER);\nINSERT INTO t VALUES (1), (2);\n";
              run "SELECT COUNT(*) FROM t;\n";
              List.iter
                (fun (what, path, key) ->
                  let texts =
                    List.map
                      (fun l ->
                        Testjson.Json_support.to_string_opt
                          (Testjson.Json_support.member key
                             (parse_json what l)))
                      (ndjson_lines path)
                  in
                  check
                    (Alcotest.list (Alcotest.option Alcotest.string))
                    (what ^ ": one record per executed statement")
                    [
                      Some "CREATE TABLE t (a INTEGER)";
                      Some "INSERT INTO t VALUES (1), (2)";
                      Some "SELECT COUNT(*) FROM t";
                    ]
                    texts)
                [ ("firehose", fire, "sql"); ("slow log", slow, "query") ])))

let test_data_dir_checkpoint_meta () =
  with_temp_dir (fun dir ->
      let ddir = Filename.quote dir in
      with_temp_file
        "CREATE TABLE t (a INTEGER);\nINSERT INTO t VALUES (1);\n\\checkpoint;\n"
        (fun input ->
          let code, out =
            run_cli ~stdin:input (Printf.sprintf "repl --data-dir %s" ddir)
          in
          check tbool "exit 0" true (code = 0);
          check tbool "checkpoint reported" true
            (contains out "checkpoint: generation 1"));
      check tbool "checkpoint dir on disk" true
        (Sys.file_exists (Filename.concat dir "checkpoint-000001"));
      check tbool "old wal rotated away" false
        (Sys.file_exists (Filename.concat dir "wal-000000.log"));
      (* after a checkpoint the fresh log replays nothing *)
      with_temp_file "SELECT COUNT(*) FROM t;\n" (fun script ->
          let _, out =
            run_cli
              (Printf.sprintf "run %s --data-dir %s" (Filename.quote script) ddir)
          in
          check tbool "loads from checkpoint" true (contains out "| 1")))

let test_data_dir_torn_tail_warning () =
  with_temp_dir (fun dir ->
      let ddir = Filename.quote dir in
      with_temp_file
        "CREATE TABLE t (a INTEGER);\n\
         INSERT INTO t VALUES (1);\n\
         INSERT INTO t VALUES (2);\n"
        (fun script ->
          ignore
            (run_cli
               (Printf.sprintf "run %s --data-dir %s" (Filename.quote script) ddir)));
      (* tear a few bytes off the live log *)
      let wal = Filename.concat dir "wal-000000.log" in
      let size = (Unix.stat wal).Unix.st_size in
      let fd = Unix.openfile wal [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (size - 4);
      Unix.close fd;
      with_temp_file "SELECT COUNT(*) FROM t;\n" (fun script ->
          let code, out =
            run_cli
              (Printf.sprintf "run %s --data-dir %s" (Filename.quote script) ddir)
          in
          check tbool "still opens" true (code = 0);
          check tbool "torn warning" true (contains out "torn or corrupt");
          check tbool "prefix recovered" true (contains out "| 1")))

let test_data_dir_refuses_load_meta () =
  with_temp_dir (fun dir ->
      let ddir = Filename.quote dir in
      with_temp_file "\\load /nonexistent;\nSELECT 1;\n" (fun input ->
          let _, out =
            run_cli ~stdin:input (Printf.sprintf "repl --data-dir %s" ddir)
          in
          check tbool "load refused under --data-dir" true
            (contains out "not available under --data-dir")))

let () =
  Alcotest.run "cli"
    [
      ( "script",
        [
          Alcotest.test_case "run a script" `Quick test_run_script;
          Alcotest.test_case "update and delete" `Quick
            test_run_script_with_update_delete;
          Alcotest.test_case "errors exit nonzero" `Quick test_run_script_error_exit;
        ] );
      ( "repl",
        [
          Alcotest.test_case "interactive session" `Quick test_repl_session;
          Alcotest.test_case "csv import" `Quick test_repl_csv_import;
          Alcotest.test_case "save and load" `Quick test_repl_save_load;
        ] );
      ( "cli",
        [ Alcotest.test_case "bad subcommand" `Quick test_bad_subcommand ] );
      ( "governor",
        [
          Alcotest.test_case "--max-rows on run" `Quick test_run_max_rows_flag;
          Alcotest.test_case "\\timeout and \\limit meta-commands" `Quick
            test_repl_timeout_and_limit_meta;
          Alcotest.test_case "SQLGRAPH_FAULT env" `Quick test_fault_env_var;
        ] );
      ( "durability",
        [
          Alcotest.test_case "--data-dir recovers" `Quick test_data_dir_recovers;
          Alcotest.test_case "recovery writes no log records" `Quick
            test_recovery_writes_no_records;
          Alcotest.test_case "\\checkpoint meta-command" `Quick
            test_data_dir_checkpoint_meta;
          Alcotest.test_case "torn tail warning" `Quick
            test_data_dir_torn_tail_warning;
          Alcotest.test_case "\\load refused under --data-dir" `Quick
            test_data_dir_refuses_load_meta;
        ] );
      ( "observability",
        [
          Alcotest.test_case "--json-metrics-append NDJSON" `Quick
            test_json_metrics_append;
          Alcotest.test_case "\\metrics and \\trace dump" `Quick
            test_metrics_meta_and_trace_dump;
          Alcotest.test_case "\\trace on/off" `Quick test_trace_on_off_meta;
          Alcotest.test_case "--metrics-out Prometheus" `Quick
            test_metrics_out_prometheus;
          Alcotest.test_case "slow-query log thresholds" `Quick
            test_slow_query_log;
          Alcotest.test_case "SET slow_query_ms in repl" `Quick
            test_set_slow_query_ms_repl;
        ] );
    ]
