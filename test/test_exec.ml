(* Executor tests: every physical operator, driven through the SQL API so
   the whole pipeline (parse -> bind -> rewrite -> execute) is exercised. *)

module V = Storage.Value

open Testjson.Support

let fresh_db () =
  let db = Sqlgraph.Db.create () in
  Sqlgraph.Db.exec_exn db
    "CREATE TABLE nums (n INTEGER, grp VARCHAR, f DOUBLE)"
  |> ignore;
  Sqlgraph.Db.exec_exn db
    "INSERT INTO nums VALUES \
     (1, 'a', 0.5), (2, 'a', 1.5), (3, 'b', 2.5), (4, 'b', 3.5), \
     (5, 'c', NULL), (NULL, 'c', 4.5)"
  |> ignore;
  db


(* ------------------------------------------------------------------ *)
(* Scan / filter / project                                             *)
(* ------------------------------------------------------------------ *)

let test_filter_basic () =
  let db = fresh_db () in
  check tbool "gt" true (int_rows db "SELECT n FROM nums WHERE n > 3" = [ [ 4 ]; [ 5 ] ]);
  (* NULL never passes a filter *)
  check tint "null row dropped" 5
    (List.length (rows db "SELECT n FROM nums WHERE n IS NOT NULL"));
  check tint "null filter" 1
    (List.length (rows db "SELECT grp FROM nums WHERE n IS NULL"))

let test_projection_expressions () =
  let db = fresh_db () in
  check tbool "arith" true
    (int_rows db "SELECT n * 10 + 1 FROM nums WHERE n = 2" = [ [ 21 ] ]);
  check tbool "case" true
    (int_rows db
       "SELECT CASE WHEN n < 3 THEN 0 ELSE 1 END FROM nums WHERE n IS NOT NULL ORDER BY n"
    = [ [ 0 ]; [ 0 ]; [ 1 ]; [ 1 ]; [ 1 ] ]);
  let r = rows db "SELECT grp || '-' || n FROM nums WHERE n = 1" in
  check tbool "concat" true (r = [ [ V.Str "a-1" ] ])

let test_fromless_select () =
  let db = fresh_db () in
  check tbool "constant" true (int_rows db "SELECT 1 + 1" = [ [ 2 ] ]);
  check tbool "several items" true (int_rows db "SELECT 1, 2, 3" = [ [ 1; 2; 3 ] ])

(* ------------------------------------------------------------------ *)
(* Joins                                                               *)
(* ------------------------------------------------------------------ *)

let join_db () =
  let db = Sqlgraph.Db.create () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE a (x INTEGER, la VARCHAR)");
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE b (y INTEGER, lb VARCHAR)");
  ignore
    (Sqlgraph.Db.exec_exn db
       "INSERT INTO a VALUES (1, 'a1'), (2, 'a2'), (3, 'a3'), (NULL, 'an')");
  ignore
    (Sqlgraph.Db.exec_exn db
       "INSERT INTO b VALUES (2, 'b2'), (3, 'b3'), (3, 'b3x'), (4, 'b4'), (NULL, 'bn')");
  db

let test_inner_join () =
  let db = join_db () in
  let r = int_rows db "SELECT x, y FROM a JOIN b ON a.x = b.y ORDER BY x, y" in
  check tbool "equi join" true (r = [ [ 2; 2 ]; [ 3; 3 ]; [ 3; 3 ] ]);
  (* NULL keys never match *)
  check tint "null keys" 3
    (List.length (rows db "SELECT * FROM a JOIN b ON a.x = b.y"))

let test_implicit_join_via_where () =
  let db = join_db () in
  let r = int_rows db "SELECT x, y FROM a, b WHERE x = y ORDER BY x, y" in
  check tbool "same as explicit" true (r = [ [ 2; 2 ]; [ 3; 3 ]; [ 3; 3 ] ])

let test_left_join () =
  let db = join_db () in
  let r =
    rows db "SELECT la, lb FROM a LEFT JOIN b ON a.x = b.y ORDER BY la"
  in
  check tbool "padding" true
    (r
    = [
        [ V.Str "a1"; V.Null ];
        [ V.Str "a2"; V.Str "b2" ];
        [ V.Str "a3"; V.Str "b3" ];
        [ V.Str "a3"; V.Str "b3x" ];
        [ V.Str "an"; V.Null ];
      ])

let test_join_residual_condition () =
  let db = join_db () in
  let r =
    int_rows db "SELECT x, y FROM a JOIN b ON a.x = b.y AND b.lb <> 'b3x' ORDER BY x"
  in
  check tbool "residual filters" true (r = [ [ 2; 2 ]; [ 3; 3 ] ])

let test_cross_join () =
  let db = join_db () in
  check tint "4x5" 20 (List.length (rows db "SELECT * FROM a CROSS JOIN b"))

let test_non_equi_join () =
  let db = join_db () in
  let r = int_rows db "SELECT x, y FROM a JOIN b ON a.x < b.y WHERE x = 3" in
  check tbool "nested loop path" true (r = [ [ 3; 4 ] ])

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

let test_global_aggregates () =
  let db = fresh_db () in
  check tbool "count star counts all rows" true
    (int_rows db "SELECT COUNT(*) FROM nums" = [ [ 6 ] ]);
  check tbool "count skips nulls" true
    (int_rows db "SELECT COUNT(n) FROM nums" = [ [ 5 ] ]);
  check tbool "sum" true (int_rows db "SELECT SUM(n) FROM nums" = [ [ 15 ] ]);
  check tbool "min max" true
    (int_rows db "SELECT MIN(n), MAX(n) FROM nums" = [ [ 1; 5 ] ]);
  let r = rows db "SELECT AVG(n) FROM nums" in
  check tbool "avg" true (r = [ [ V.Float 3. ] ])

let test_aggregate_empty_input () =
  let db = fresh_db () in
  check tbool "count of empty" true
    (int_rows db "SELECT COUNT(*) FROM nums WHERE n > 100" = [ [ 0 ] ]);
  let r = rows db "SELECT SUM(n), MIN(n), AVG(n) FROM nums WHERE n > 100" in
  check tbool "null aggregates" true (r = [ [ V.Null; V.Null; V.Null ] ])

let test_group_by () =
  let db = fresh_db () in
  let r =
    rows db "SELECT grp, COUNT(*), SUM(n) FROM nums GROUP BY grp ORDER BY grp"
  in
  check tbool "groups" true
    (r
    = [
        [ V.Str "a"; V.Int 2; V.Int 3 ];
        [ V.Str "b"; V.Int 2; V.Int 7 ];
        [ V.Str "c"; V.Int 2; V.Int 5 ];
      ])

let test_group_by_expression () =
  let db = fresh_db () in
  let r =
    int_rows db
      "SELECT n % 2, COUNT(*) FROM nums WHERE n IS NOT NULL GROUP BY n % 2 ORDER BY 1"
  in
  check tbool "expr key" true (r = [ [ 0; 2 ]; [ 1; 3 ] ])

let test_having () =
  let db = fresh_db () in
  let r =
    rows db
      "SELECT grp FROM nums GROUP BY grp HAVING SUM(n) > 4 ORDER BY grp"
  in
  check tbool "having filters groups" true (r = [ [ V.Str "b" ]; [ V.Str "c" ] ])

let test_agg_in_expression () =
  let db = fresh_db () in
  check tbool "arith over aggs" true
    (int_rows db "SELECT MAX(n) - MIN(n) FROM nums" = [ [ 4 ] ]);
  check tbool "group key in expr" true
    (rows db "SELECT grp || '!' , COUNT(*) FROM nums GROUP BY grp ORDER BY 1"
    = [
        [ V.Str "a!"; V.Int 2 ];
        [ V.Str "b!"; V.Int 2 ];
        [ V.Str "c!"; V.Int 2 ];
      ])

(* ------------------------------------------------------------------ *)
(* Sort / distinct / limit                                             *)
(* ------------------------------------------------------------------ *)

let test_order_by () =
  let db = fresh_db () in
  check tbool "desc" true
    (int_rows db "SELECT n FROM nums WHERE n IS NOT NULL ORDER BY n DESC"
    = [ [ 5 ]; [ 4 ]; [ 3 ]; [ 2 ]; [ 1 ] ]);
  (* NULLs sort first ascending *)
  let r = rows db "SELECT n FROM nums ORDER BY n" in
  check tbool "nulls first" true (List.hd r = [ V.Null ]);
  (* multi-key with direction mix *)
  let r2 =
    rows db "SELECT grp, n FROM nums WHERE n IS NOT NULL ORDER BY grp DESC, n ASC"
  in
  check tbool "multi key" true
    (List.hd r2 = [ V.Str "c"; V.Int 5 ]
    && List.nth r2 1 = [ V.Str "b"; V.Int 3 ])

let test_distinct () =
  let db = fresh_db () in
  check tint "distinct groups" 3
    (List.length (rows db "SELECT DISTINCT grp FROM nums"));
  check tint "distinct keeps nulls once" 6
    (List.length (rows db "SELECT DISTINCT n FROM nums"))

let test_limit_offset () =
  let db = fresh_db () in
  check tbool "limit" true
    (int_rows db "SELECT n FROM nums WHERE n IS NOT NULL ORDER BY n LIMIT 2"
    = [ [ 1 ]; [ 2 ] ]);
  check tbool "offset" true
    (int_rows db
       "SELECT n FROM nums WHERE n IS NOT NULL ORDER BY n LIMIT 2 OFFSET 3"
    = [ [ 4 ]; [ 5 ] ]);
  check tbool "offset past end" true
    (int_rows db "SELECT n FROM nums ORDER BY n LIMIT 5 OFFSET 100" = [])

(* ------------------------------------------------------------------ *)
(* Subqueries, CTEs                                                    *)
(* ------------------------------------------------------------------ *)

let test_scalar_subquery () =
  let db = fresh_db () in
  check tbool "uncorrelated scalar" true
    (int_rows db
       "SELECT n FROM nums WHERE n = (SELECT MAX(n) FROM nums)"
    = [ [ 5 ] ]);
  check tbool "empty subquery is NULL" true
    (rows db "SELECT (SELECT n FROM nums WHERE n > 100)" = [ [ V.Null ] ]);
  (* multi-row scalar subquery errors at runtime *)
  match Sqlgraph.Db.query db "SELECT (SELECT n FROM nums)" with
  | Error (Sqlgraph.Error.Runtime_error _) -> ()
  | _ -> Alcotest.fail "expected cardinality error"

let test_exists () =
  let db = fresh_db () in
  check tbool "exists true" true
    (int_rows db "SELECT 1 WHERE EXISTS (SELECT 1 FROM nums)" = [ [ 1 ] ]);
  check tbool "exists false" true
    (int_rows db "SELECT 1 WHERE EXISTS (SELECT 1 FROM nums WHERE n > 100)" = [])

let test_derived_tables_and_ctes () =
  let db = fresh_db () in
  check tbool "derived" true
    (int_rows db "SELECT t.m FROM (SELECT MAX(n) AS m FROM nums) t" = [ [ 5 ] ]);
  check tbool "cte" true
    (int_rows db
       "WITH big AS (SELECT n FROM nums WHERE n >= 4) SELECT COUNT(*) FROM big"
    = [ [ 2 ] ]);
  check tbool "cte referenced twice" true
    (int_rows db
       "WITH w AS (SELECT n FROM nums WHERE n <= 2) \
        SELECT a.n + b.n FROM w a, w b WHERE a.n = 1 AND b.n = 2"
    = [ [ 3 ] ])

(* ------------------------------------------------------------------ *)
(* DDL / DML / errors                                                  *)
(* ------------------------------------------------------------------ *)

let test_insert_with_columns_and_nulls () =
  let db = Sqlgraph.Db.create () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE t (a INTEGER, b VARCHAR)");
  (match Sqlgraph.Db.exec_exn db "INSERT INTO t (b) VALUES ('only-b')" with
  | Sqlgraph.Db.Inserted 1 -> ()
  | _ -> Alcotest.fail "insert outcome");
  check tbool "missing column null" true
    (rows db "SELECT a, b FROM t" = [ [ V.Null; V.Str "only-b" ] ])

let test_insert_casts_and_validates () =
  let db = Sqlgraph.Db.create () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE t (a INTEGER, d DATE)");
  ignore (Sqlgraph.Db.exec_exn db "INSERT INTO t VALUES (1, '2010-03-24')");
  check tbool "string to date cast" true
    (rows db "SELECT d FROM t"
    = [ [ V.Date (Storage.Date.of_ymd ~year:2010 ~month:3 ~day:24) ] ]);
  match Sqlgraph.Db.exec db "INSERT INTO t VALUES ('xx', '2010-01-01')" with
  | Error (Sqlgraph.Error.Bind_error _) -> ()
  | _ -> Alcotest.fail "expected cast failure"

let test_ddl_errors () =
  let db = Sqlgraph.Db.create () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE t (a INTEGER)");
  (match Sqlgraph.Db.exec db "CREATE TABLE t (a INTEGER)" with
  | Error (Sqlgraph.Error.Bind_error _) -> ()
  | _ -> Alcotest.fail "duplicate create");
  (match Sqlgraph.Db.exec db "DROP TABLE missing" with
  | Error (Sqlgraph.Error.Bind_error _) -> ()
  | _ -> Alcotest.fail "drop missing");
  (match Sqlgraph.Db.exec_exn db "DROP TABLE t" with
  | Sqlgraph.Db.Dropped -> ()
  | _ -> Alcotest.fail "drop outcome");
  match Sqlgraph.Db.exec db "SELECT * FROM t" with
  | Error (Sqlgraph.Error.Bind_error _) -> ()
  | _ -> Alcotest.fail "query after drop"

let test_runtime_errors_are_reported () =
  let db = fresh_db () in
  (match Sqlgraph.Db.query db "SELECT n / 0 FROM nums" with
  | Error (Sqlgraph.Error.Runtime_error m) ->
    check tbool "message" true (m = "division by zero")
  | _ -> Alcotest.fail "expected runtime error");
  match Sqlgraph.Db.query db "SELECT 1 +" with
  | Error (Sqlgraph.Error.Parse_error _) -> ()
  | _ -> Alcotest.fail "expected parse error"

let test_exec_script () =
  let db = Sqlgraph.Db.create () in
  match
    Sqlgraph.Db.exec_script db
      "CREATE TABLE s (x INTEGER); INSERT INTO s VALUES (1), (2); SELECT COUNT(*) FROM s"
  with
  | Ok [ Sqlgraph.Db.Created; Sqlgraph.Db.Inserted 2; Sqlgraph.Db.Selected r ] ->
    check tbool "script result" true (Sqlgraph.Resultset.value r = V.Int 2)
  | Ok _ -> Alcotest.fail "unexpected outcomes"
  | Error e -> Alcotest.failf "script failed: %s" (Sqlgraph.Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Resultset                                                           *)
(* ------------------------------------------------------------------ *)

let test_resultset_accessors () =
  let db = fresh_db () in
  let r = q db "SELECT n, grp FROM nums WHERE n = 1" in
  check tbool "names" true (Sqlgraph.Resultset.column_names r = [ "n"; "grp" ]);
  check tint "nrows" 1 (Sqlgraph.Resultset.nrows r);
  check tint "ncols" 2 (Sqlgraph.Resultset.ncols r);
  check tbool "cell" true
    (V.equal (Sqlgraph.Resultset.cell r ~row:0 ~col:1) (V.Str "a"));
  let csv = Sqlgraph.Resultset.to_csv r in
  check tstr "csv" "n,grp\n1,a\n" csv;
  let s = Sqlgraph.Resultset.to_string r in
  check tbool "pretty has header" true (Astring.String.is_infix ~affix:"grp" s)

let test_resultset_csv_escaping () =
  let db = Sqlgraph.Db.create () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE t (s VARCHAR)");
  ignore (Sqlgraph.Db.exec_exn db "INSERT INTO t VALUES ('a,b'), ('q\"q')");
  let csv = Sqlgraph.Resultset.to_csv (q db "SELECT s FROM t") in
  check tstr "escaped" "s\n\"a,b\"\n\"q\"\"q\"\n" csv

let () =
  Alcotest.run "executor"
    [
      ( "scan-filter-project",
        [
          Alcotest.test_case "filters" `Quick test_filter_basic;
          Alcotest.test_case "projection expressions" `Quick test_projection_expressions;
          Alcotest.test_case "FROM-less select" `Quick test_fromless_select;
        ] );
      ( "joins",
        [
          Alcotest.test_case "inner equi" `Quick test_inner_join;
          Alcotest.test_case "implicit via where" `Quick test_implicit_join_via_where;
          Alcotest.test_case "left outer" `Quick test_left_join;
          Alcotest.test_case "residual condition" `Quick test_join_residual_condition;
          Alcotest.test_case "cross" `Quick test_cross_join;
          Alcotest.test_case "non-equi" `Quick test_non_equi_join;
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "global" `Quick test_global_aggregates;
          Alcotest.test_case "empty input" `Quick test_aggregate_empty_input;
          Alcotest.test_case "group by" `Quick test_group_by;
          Alcotest.test_case "group by expression" `Quick test_group_by_expression;
          Alcotest.test_case "having" `Quick test_having;
          Alcotest.test_case "aggregates in expressions" `Quick test_agg_in_expression;
        ] );
      ( "sort-distinct-limit",
        [
          Alcotest.test_case "order by" `Quick test_order_by;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "limit offset" `Quick test_limit_offset;
        ] );
      ( "subqueries",
        [
          Alcotest.test_case "scalar" `Quick test_scalar_subquery;
          Alcotest.test_case "exists" `Quick test_exists;
          Alcotest.test_case "derived tables and ctes" `Quick test_derived_tables_and_ctes;
        ] );
      ( "statements",
        [
          Alcotest.test_case "insert with columns" `Quick test_insert_with_columns_and_nulls;
          Alcotest.test_case "insert casts" `Quick test_insert_casts_and_validates;
          Alcotest.test_case "ddl errors" `Quick test_ddl_errors;
          Alcotest.test_case "runtime errors" `Quick test_runtime_errors_are_reported;
          Alcotest.test_case "scripts" `Quick test_exec_script;
        ] );
      ( "resultset",
        [
          Alcotest.test_case "accessors" `Quick test_resultset_accessors;
          Alcotest.test_case "csv escaping" `Quick test_resultset_csv_escaping;
        ] );
    ]
