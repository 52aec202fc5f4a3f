(* Introspection (DESIGN.md §14): the statement-fingerprint normalizer
   (qcheck properties plus a unit table), the bounded per-session stats
   store, and the sqlgraph_stat_* system tables in-process — their
   composition with ordinary SQL and their exclusion from DML,
   snapshots and persistence. The wire-level half (query ids on OK
   lines, sqlgraph_stat_sessions) lives in test_server.ml. *)

module Db = Sqlgraph.Db
module V = Storage.Value
module Fp = Sql.Fingerprint
module Store = Sqlgraph.Stat_store
module Reg = Telemetry.Registry

open Testjson.Support

(* The fingerprint half of the last statement's query id. *)
let last_fingerprint db =
  Option.map
    (fun q -> String.sub q 0 (String.index q ':'))
    (Db.last_query_id db)

(* ------------------------------------------------------------------ *)
(* Normalizer: qcheck properties *)

(* Statement templates over random literals: every pair drawn from one
   template must share a fingerprint; distinct templates must not. *)
let gen_lit =
  QCheck.Gen.(
    oneof
      [
        map string_of_int (int_range 0 1_000_000);
        map
          (fun s -> "'" ^ s ^ "'")
          (string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
        map (fun f -> Printf.sprintf "%.3f" f) (float_bound_inclusive 1000.);
      ])

let templates =
  [|
    (fun l -> Printf.sprintf "SELECT a FROM t WHERE b = %s" l);
    (fun l -> Printf.sprintf "SELECT a, b FROM t WHERE b < %s ORDER BY a" l);
    (fun l -> Printf.sprintf "INSERT INTO t VALUES (%s, 2)" l);
    (fun l -> Printf.sprintf "UPDATE t SET a = %s WHERE b = %s" l l);
    (fun l -> Printf.sprintf "DELETE FROM t WHERE a = %s" l);
    (fun l ->
      Printf.sprintf
        "SELECT CHEAPEST SUM(1) WHERE 1 REACHES %s OVER e EDGE (src, dst)" l);
  |]

let gen_stmt =
  QCheck.Gen.(
    map2 (fun i l -> templates.(i mod Array.length templates) l)
      (int_range 0 (Array.length templates - 1))
      gen_lit)

let prop_idempotent =
  QCheck.Test.make ~count:500 ~name:"normalize is idempotent (parsed SQL)"
    (QCheck.make gen_stmt) (fun sql ->
      let n = Fp.normalize sql in
      Fp.normalize n = n)

let prop_idempotent_garbage =
  (* unparseable text exercises the token-level and raw fallbacks *)
  QCheck.Test.make ~count:500 ~name:"normalize is idempotent (arbitrary text)"
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 64) QCheck.Gen.printable)
    (fun s ->
      let n = Fp.normalize s in
      Fp.normalize n = n)

let prop_literal_insensitive =
  QCheck.Test.make ~count:500
    ~name:"same template, different literals -> same fingerprint"
    (QCheck.make
       QCheck.Gen.(
         map3
           (fun i a b -> (templates.(i mod Array.length templates), a, b))
           (int_range 0 (Array.length templates - 1))
           gen_lit gen_lit))
    (fun (tpl, a, b) -> Fp.hash (tpl a) = Fp.hash (tpl b))

let prop_pretty_stable =
  (* exec (raw text) and exec_script_each (pretty-printed text) must
     land on the same fingerprint: normalize must be a fixpoint of the
     parse -> pretty-print round trip *)
  QCheck.Test.make ~count:500 ~name:"normalize (pretty (parse sql)) = normalize sql"
    (QCheck.make gen_stmt) (fun sql ->
      match Sql.Parser.parse_stmt sql with
      | stmt -> Fp.normalize (Sql.Pretty.stmt_to_string stmt) = Fp.normalize sql
      | exception _ -> QCheck.assume_fail ())

let prop_of_stmt =
  (* Db fingerprints the AST it executes; text-only callers use of_sql:
     both must give the same key *)
  QCheck.Test.make ~count:500 ~name:"of_stmt (parse sql) = of_sql sql"
    (QCheck.make gen_stmt) (fun sql ->
      Fp.of_stmt (Sql.Parser.parse_stmt sql) = Fp.of_sql sql)

(* ------------------------------------------------------------------ *)
(* Normalizer: unit table *)

let test_normalizer_units () =
  let same a b =
    check tbool (Printf.sprintf "%s ~ %s" a b) true (Fp.hash a = Fp.hash b)
  in
  let diff a b =
    check tbool (Printf.sprintf "%s !~ %s" a b) false (Fp.hash a = Fp.hash b)
  in
  same "SELECT a FROM t WHERE b = 1" "select  A from T where B=99";
  same "SELECT a FROM t WHERE b = 'x'" "SELECT a FROM t WHERE b = 'else'";
  (* host parameters and literals share a shape *)
  same "SELECT a FROM t WHERE b = ?" "SELECT a FROM t WHERE b = 5";
  (* bulk INSERTs of any row count collapse to one shape *)
  same "INSERT INTO t VALUES (1, 2)" "INSERT INTO t VALUES (3, 4), (5, 6)";
  diff "SELECT a FROM t" "SELECT b FROM t";
  diff "SELECT a FROM t" "SELECT a FROM u";
  (* LIMIT is part of the shape (top-5 vs top-10 are different plans) *)
  diff "SELECT a FROM t LIMIT 5" "SELECT a FROM t LIMIT 10";
  (* text the parser rejects normalizes to a fixpoint: line comments in
     text that does not lex, repeated trailing semicolons *)
  List.iter
    (fun sql ->
      let n = Fp.normalize sql in
      check tstr (Printf.sprintf "%S is a fixpoint" sql) n (Fp.normalize n))
    [ "--\naa@aa"; ";;" ];
  check tint "hex is 16 chars" 16 (String.length (Fp.to_hex (Fp.hash "SELECT 1")));
  check tstr "hash_text agrees with hash"
    (Fp.to_hex (Fp.hash "SELECT a FROM t"))
    (Fp.to_hex (Fp.hash_text (Fp.normalize "SELECT a FROM t")))

(* ------------------------------------------------------------------ *)
(* Stat store: bound, eviction, reset *)

let record store ~fp ~calls =
  for _ = 1 to calls do
    Store.record store ~fingerprint:(Int64.of_int fp)
      ~query:(Printf.sprintf "q%d" fp) ~ms:1.0 ~rows:1 ~failed:false
      ~gov_abort:false ~counters:[| 0; 0; 0; 0 |]
  done

let test_store_bound () =
  let store = Store.create ~bound:4 () in
  List.iteri (fun i calls -> record store ~fp:i ~calls)
    [ 10; 1; 8; 6; 4 ];
  (* five fingerprints into a bound of four: the least-called (fp 1,
     1 call) is evicted *)
  check tint "size at bound" 4 (Store.size store);
  check tint "one eviction" 1 (Store.evicted store);
  check tbool "least-called entry evicted" true
    (Store.find store (Int64.of_int 1) = None);
  check tbool "hottest entry survives" true
    (Store.find store (Int64.of_int 0) <> None);
  Store.reset store;
  check tint "reset empties" 0 (Store.size store);
  check tint "reset clears evictions" 0 (Store.evicted store)

(* ------------------------------------------------------------------ *)
(* System tables in-process *)

let fresh_db () =
  let db = Db.create () in
  exec_exn db "CREATE TABLE t (a INTEGER, b INTEGER)";
  exec_exn db "INSERT INTO t VALUES (1, 2), (3, 4), (5, 6)";
  db

let test_stat_statements_select () =
  let db = fresh_db () in
  for i = 1 to 20 do
    ignore (rows db (Printf.sprintf "SELECT a FROM t WHERE b = %d" i))
  done;
  (* composes with WHERE / ORDER BY / LIMIT like any table *)
  let top =
    rows db
      "SELECT fingerprint, calls FROM sqlgraph_stat_statements WHERE calls \
       >= 20 ORDER BY total_ms DESC LIMIT 5"
  in
  let expected = Fp.to_hex (Fp.hash "SELECT a FROM t WHERE b = 1") in
  (match top with
  | [ V.Str fp; V.Int calls ] :: _ ->
    check tint "literal-insensitive calls" 20 calls;
    check tstr "fingerprint matches the normalizer" expected fp
  | _ -> Alcotest.fail "no row with calls >= 20");
  (* a script statement (the parsed AST, pretty-printed for the WAL)
     lands on the same fingerprint as the raw text through exec *)
  (match
     Db.exec_script_each db "select A from T where B = 7;" ~f:ignore
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "script: %s" (Sqlgraph.Error.to_string e));
  check (Alcotest.option tstr) "script fingerprint matches exec" (Some expected)
    (last_fingerprint db);
  (* the db-level query id joins back to exactly one row *)
  (match Db.last_query_id db with
  | None -> Alcotest.fail "no last_query_id"
  | Some qid ->
    let fp = String.sub qid 0 (String.index qid ':') in
    let n =
      List.length
        (List.filter
           (function V.Str f :: _ -> f = fp | _ -> false)
           (rows db "SELECT fingerprint FROM sqlgraph_stat_statements"))
    in
    check tint "last_query_id fingerprint resolves to one row" 1 n)

let expect_reserved db sql =
  match Db.exec db sql with
  | Ok _ -> Alcotest.failf "%s: unexpectedly succeeded" sql
  | Error (Sqlgraph.Error.Bind_error m) ->
    check tbool (sql ^ ": mentions reserved") true
      (Astring.String.is_infix ~affix:"reserved" m)
  | Error e ->
    Alcotest.failf "%s: wrong error class: %s" sql
      (Sqlgraph.Error.to_string e)

let test_reserved_namespace () =
  let db = fresh_db () in
  List.iter (expect_reserved db)
    [
      "CREATE TABLE sqlgraph_mine (a INTEGER)";
      "CREATE TABLE SQLGRAPH_CASE (a INTEGER)";
      "CREATE TABLE sqlgraph_copy AS SELECT * FROM t";
      "DROP TABLE sqlgraph_stat_statements";
      "INSERT INTO sqlgraph_stat_statements VALUES (1)";
      "UPDATE sqlgraph_stat_statements SET calls = 0";
      "DELETE FROM sqlgraph_stat_statements";
    ]

let test_snapshot_and_persist_exclusion () =
  let db = fresh_db () in
  (* BEGIN snapshots the base catalog only: the transaction machinery
     must not try to copy (or restore) a virtual table *)
  exec_exn db "BEGIN";
  exec_exn db "INSERT INTO t VALUES (7, 8)";
  ignore (rows db "SELECT calls FROM sqlgraph_stat_statements LIMIT 1");
  exec_exn db "ROLLBACK";
  check tint "rollback kept base state" 3
    (match rows db "SELECT COUNT(*) FROM t" with
    | [ [ V.Int n ] ] -> n
    | _ -> -1);
  with_temp_dir (fun dir ->
      (match Sqlgraph.Persist.save db ~dir with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save: %s" (Sqlgraph.Error.to_string e));
      Array.iter
        (fun f ->
          check tbool (f ^ " is not a system-table artifact") false
            (Astring.String.is_prefix ~affix:"sqlgraph_" f))
        (Sys.readdir dir);
      match Sqlgraph.Persist.load ~dir with
      | Error e -> Alcotest.failf "load: %s" (Sqlgraph.Error.to_string e)
      | Ok db2 ->
        (* the loaded session has fresh system tables and equal data *)
        check tint "base data round-trips" 3
          (match rows db2 "SELECT COUNT(*) FROM t" with
          | [ [ V.Int n ] ] -> n
          | _ -> -1);
        check tbool "loaded session answers stat queries" true
          (rows db2 "SELECT calls FROM sqlgraph_stat_statements" <> []);
        (* the same workload fingerprints identically on both sessions *)
        let fps d =
          ignore (rows d "SELECT a FROM t WHERE b = 42");
          last_fingerprint d
        in
        check
          (Alcotest.option tstr)
          "fingerprints stable across save/load" (fps db) (fps db2))

let test_reconciliation () =
  (* calls x mean_ms must reconcile with the registry's statement
     histogram: the store records the same dt the histogram observes.
     No reset here — both sides must cover the same statement set. *)
  let db = fresh_db () in
  for i = 1 to 200 do
    ignore (rows db (Printf.sprintf "SELECT a FROM t WHERE b = %d" (i mod 7)))
  done;
  let store_ms = Store.total_ms (Db.stat_store db) in
  match Reg.percentiles (Db.registry db) "sqlgraph_statement_seconds" with
  | None -> Alcotest.fail "no statement histogram"
  | Some p ->
    let hist_ms = p.Reg.sum *. 1000. in
    check tbool
      (Printf.sprintf "store %.3fms vs histogram %.3fms within 1%%" store_ms
         hist_ms)
      true
      (Float.abs (store_ms -. hist_ms) <= 0.01 *. Float.max store_ms hist_ms)

let test_metrics_table_and_reset () =
  let db = fresh_db () in
  ignore (rows db "SELECT a FROM t");
  let metric_rows = rows db "SELECT name, field, value FROM sqlgraph_metrics" in
  check tbool "uptime gauge is a row" true
    (List.exists
       (function
         | V.Str "sqlgraph_uptime_seconds" :: _ -> true
         | _ -> false)
       metric_rows);
  check tbool "statement histogram percentile rows exist" true
    (List.exists
       (function
         | [ V.Str "sqlgraph_statement_seconds"; V.Str "p99"; _ ] -> true
         | _ -> false)
       metric_rows);
  (* \stat reset: the fingerprint store zeroes, the registry does not *)
  check tbool "store populated" true (Store.size (Db.stat_store db) > 0);
  Db.reset_statement_stats db;
  check tint "store reset" 0 (Store.size (Db.stat_store db));
  check tbool "registry survives reset" true
    (Reg.percentiles (Db.registry db) "sqlgraph_statement_seconds" <> None);
  check tbool "stat_statements now empty" true
    (rows db "SELECT calls FROM sqlgraph_stat_statements LIMIT 1"
     |> List.filter (function [ V.Int _ ] -> true | _ -> false)
     = [])

let test_failures_and_gov_aborts () =
  let db = fresh_db () in
  Db.reset_statement_stats db;
  (match Db.exec db "SELECT nope FROM t" with
  | Ok _ -> Alcotest.fail "bad column unexpectedly bound"
  | Error _ -> ());
  (match Db.exec db "SELECT nope FROM t" with Ok _ | Error _ -> ());
  let r =
    rows db
      "SELECT calls, failures FROM sqlgraph_stat_statements ORDER BY calls \
       DESC LIMIT 1"
  in
  match r with
  | [ [ V.Int calls; V.Int failures ] ] ->
    check tint "failed statements are fingerprinted" 2 calls;
    check tint "failures counted" 2 failures
  | _ -> Alcotest.fail "unexpected stat row shape"

let test_stat_wal_table () =
  with_temp_dir (fun dir ->
      match Sqlgraph.Wal.open_dir dir with
      | Error e -> Alcotest.failf "open_dir: %s" (Sqlgraph.Error.to_string e)
      | Ok (store, db, _rec) ->
        Fun.protect
          ~finally:(fun () -> Sqlgraph.Wal.close store)
          (fun () ->
            exec_exn db "CREATE TABLE t (a INTEGER)";
            exec_exn db "INSERT INTO t VALUES (1)";
            match
              rows db
                "SELECT dir, generation, readonly FROM sqlgraph_stat_wal"
            with
            | [ [ V.Str d; V.Int gen; V.Bool ro ] ] ->
              check tstr "dir" dir d;
              check tbool "generation >= 0" true (gen >= 0);
              check tbool "not readonly" false ro
            | _ -> Alcotest.fail "unexpected sqlgraph_stat_wal shape"))

let () =
  Alcotest.run "introspection"
    [
      ( "normalizer",
        [
          QCheck_alcotest.to_alcotest prop_idempotent;
          QCheck_alcotest.to_alcotest prop_idempotent_garbage;
          QCheck_alcotest.to_alcotest prop_literal_insensitive;
          QCheck_alcotest.to_alcotest prop_pretty_stable;
          QCheck_alcotest.to_alcotest prop_of_stmt;
          Alcotest.test_case "unit table" `Quick test_normalizer_units;
        ] );
      ( "store",
        [ Alcotest.test_case "bound and eviction" `Quick test_store_bound ] );
      ( "system tables",
        [
          Alcotest.test_case "stat_statements SELECT" `Quick
            test_stat_statements_select;
          Alcotest.test_case "reserved namespace" `Quick
            test_reserved_namespace;
          Alcotest.test_case "snapshot + persist exclusion" `Quick
            test_snapshot_and_persist_exclusion;
          Alcotest.test_case "latency reconciliation" `Quick
            test_reconciliation;
          Alcotest.test_case "metrics table + reset" `Quick
            test_metrics_table_and_reset;
          Alcotest.test_case "failures fingerprinted" `Quick
            test_failures_and_gov_aborts;
          Alcotest.test_case "stat_wal" `Quick test_stat_wal_table;
        ] );
    ]
