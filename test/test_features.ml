(* Tests for the second wave of engine features: set operations,
   UPDATE/DELETE, the extended scalar function library, DISTINCT
   aggregates, IN (subquery), the EXPLAIN statement and CSV import. *)

module V = Storage.Value

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let fresh_db () =
  let db = Sqlgraph.Db.create () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE t (n INTEGER, s VARCHAR)");
  ignore
    (Sqlgraph.Db.exec_exn db
       "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'a'), (4, 'c'), (2, 'b')");
  db

let q db ?params sql = Sqlgraph.Db.query_exn db ?params sql
let rows db ?params sql = Sqlgraph.Resultset.rows (q db ?params sql)

let int_rows db sql =
  List.map
    (List.map (function
      | V.Int i -> i
      | v -> Alcotest.failf "not an int: %s" (V.to_display v)))
    (rows db sql)

(* ------------------------------------------------------------------ *)
(* Set operations                                                      *)
(* ------------------------------------------------------------------ *)

let test_union_all () =
  let db = fresh_db () in
  check tint "bag semantics" 10
    (List.length (rows db "SELECT n FROM t UNION ALL SELECT n FROM t"))

let test_union_distinct () =
  let db = fresh_db () in
  check tbool "set semantics" true
    (int_rows db "SELECT n FROM t UNION SELECT n FROM t ORDER BY 1"
    = [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ]);
  check tbool "union of different selects" true
    (int_rows db "SELECT 1 UNION SELECT 2 UNION SELECT 1 ORDER BY 1"
    = [ [ 1 ]; [ 2 ] ])

let test_intersect_except () =
  let db = fresh_db () in
  check tbool "intersect" true
    (int_rows db
       "SELECT n FROM t WHERE n <= 3 INTERSECT SELECT n FROM t WHERE n >= 2 ORDER BY 1"
    = [ [ 2 ]; [ 3 ] ]);
  check tbool "except" true
    (int_rows db
       "SELECT n FROM t EXCEPT SELECT n FROM t WHERE n >= 3 ORDER BY 1"
    = [ [ 1 ]; [ 2 ] ]);
  check tbool "except is distinct" true
    (int_rows db "SELECT n FROM t EXCEPT SELECT n FROM t WHERE n > 99 ORDER BY 1"
    = [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ])

let test_setop_order_limit_apply_to_whole () =
  let db = fresh_db () in
  check tbool "order by + limit over the compound" true
    (int_rows db
       "SELECT n FROM t WHERE n = 1 UNION SELECT n FROM t WHERE n > 2 \
        ORDER BY n DESC LIMIT 2"
    = [ [ 4 ]; [ 3 ] ])

let test_setop_type_checks () =
  let db = fresh_db () in
  (match Sqlgraph.Db.query db "SELECT n FROM t UNION SELECT n, s FROM t" with
  | Error (Sqlgraph.Error.Bind_error _) -> ()
  | _ -> Alcotest.fail "arity mismatch must fail");
  match Sqlgraph.Db.query db "SELECT n FROM t UNION SELECT s FROM t" with
  | Error (Sqlgraph.Error.Bind_error _) -> ()
  | _ -> Alcotest.fail "type mismatch must fail"

let test_setop_with_graph_query () =
  let db = Sqlgraph.Db.create () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE e (a INTEGER, b INTEGER)");
  ignore (Sqlgraph.Db.exec_exn db "INSERT INTO e VALUES (1, 2), (2, 3), (9, 1)");
  (* nodes reachable from 1, united with nodes reaching 3 *)
  let r =
    int_rows db
      "SELECT b AS node FROM e WHERE 1 REACHES b OVER e EDGE (a, b) \
       UNION SELECT a FROM e WHERE a REACHES 3 OVER e EDGE (a, b) ORDER BY 1"
  in
  check tbool "compound over graph selects" true (r = [ [ 1 ]; [ 2 ]; [ 3 ]; [ 9 ] ])

(* ------------------------------------------------------------------ *)
(* UPDATE / DELETE                                                     *)
(* ------------------------------------------------------------------ *)

let test_update_basic () =
  let db = fresh_db () in
  (match Sqlgraph.Db.exec_exn db "UPDATE t SET n = n * 10 WHERE s = 'a'" with
  | Sqlgraph.Db.Updated 2 -> ()
  | _ -> Alcotest.fail "expected 2 rows updated");
  check tbool "values changed" true
    (int_rows db "SELECT n FROM t WHERE s = 'a' ORDER BY 1" = [ [ 10 ]; [ 30 ] ]);
  check tbool "others untouched" true
    (int_rows db "SELECT n FROM t WHERE s = 'b' ORDER BY 1" = [ [ 2 ]; [ 2 ] ])

let test_update_multiple_assignments_and_params () =
  let db = fresh_db () in
  (match
     Sqlgraph.Db.exec_exn db
       ~params:[| V.Str "z"; V.Int 3 |]
       "UPDATE t SET s = ?, n = n + 100 WHERE n = ?"
   with
  | Sqlgraph.Db.Updated 1 -> ()
  | _ -> Alcotest.fail "one row");
  check tbool "both columns" true
    (rows db "SELECT n, s FROM t WHERE n > 99" = [ [ V.Int 103; V.Str "z" ] ])

let test_update_everything_no_where () =
  let db = fresh_db () in
  (match Sqlgraph.Db.exec_exn db "UPDATE t SET n = 0" with
  | Sqlgraph.Db.Updated 5 -> ()
  | _ -> Alcotest.fail "all rows");
  check tbool "all zero" true (int_rows db "SELECT DISTINCT n FROM t" = [ [ 0 ] ])

let test_update_errors () =
  let db = fresh_db () in
  (match Sqlgraph.Db.exec db "UPDATE t SET nope = 1" with
  | Error (Sqlgraph.Error.Bind_error _) -> ()
  | _ -> Alcotest.fail "unknown column");
  (match Sqlgraph.Db.exec db "UPDATE nope SET n = 1" with
  | Error (Sqlgraph.Error.Bind_error _) -> ()
  | _ -> Alcotest.fail "unknown table");
  match Sqlgraph.Db.exec db "UPDATE t SET n = 1 WHERE n + 1" with
  | Error (Sqlgraph.Error.Bind_error _) -> ()
  | _ -> Alcotest.fail "non-boolean where"

let test_delete () =
  let db = fresh_db () in
  (match Sqlgraph.Db.exec_exn db "DELETE FROM t WHERE s = 'b'" with
  | Sqlgraph.Db.Deleted 2 -> ()
  | _ -> Alcotest.fail "two rows");
  check tint "remaining" 3 (List.length (rows db "SELECT * FROM t"));
  (match Sqlgraph.Db.exec_exn db "DELETE FROM t" with
  | Sqlgraph.Db.Deleted 3 -> ()
  | _ -> Alcotest.fail "rest");
  check tint "empty" 0 (List.length (rows db "SELECT * FROM t"))

let test_mutation_invalidates_graph_index () =
  let db = Sqlgraph.Db.create () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE e (a INTEGER, b INTEGER)");
  ignore (Sqlgraph.Db.exec_exn db "INSERT INTO e VALUES (1, 2), (2, 3)");
  (match Sqlgraph.Db.create_graph_index db ~table:"e" ~src:"a" ~dst:"b" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s" (Sqlgraph.Error.to_string e));
  let dist () =
    match
      rows db
        ~params:[| V.Int 1; V.Int 3 |]
        "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (a, b)"
    with
    | [ [ V.Int d ] ] -> Some d
    | [] -> None
    | _ -> Alcotest.fail "unexpected shape"
  in
  check tbool "before" true (dist () = Some 2);
  (* UPDATE rewires the graph; the cached index must notice *)
  ignore (Sqlgraph.Db.exec_exn db "UPDATE e SET b = 3 WHERE a = 1");
  check tbool "after update" true (dist () = Some 1);
  ignore (Sqlgraph.Db.exec_exn db "DELETE FROM e WHERE a = 1");
  check tbool "after delete" true (dist () = None)

let indexed db =
  match Sqlgraph.Db.create_graph_index db ~table:"e" ~src:"a" ~dst:"b" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s" (Sqlgraph.Error.to_string e)

let explain_analyze db sql =
  match Sqlgraph.Db.exec_exn db ("EXPLAIN ANALYZE " ^ sql) with
  | Sqlgraph.Db.Explained out -> out
  | _ -> Alcotest.fail "expected Explained"

let has affix out = Astring.String.is_infix ~affix out

(* Versions never repeat for a name: a table dropped and created again
   must not be served the graph cached for the old one. *)
let test_drop_create_invalidates_graph_index () =
  let db = Sqlgraph.Db.create () in
  let exec sql = ignore (Sqlgraph.Db.exec_exn db sql) in
  exec "CREATE TABLE e (a INTEGER, b INTEGER)";
  exec "INSERT INTO e VALUES (1, 2), (2, 3)";
  indexed db;
  let reaches () =
    rows db "SELECT 1 WHERE 1 REACHES 3 OVER e EDGE (a, b)" <> []
  in
  check tbool "before" true (reaches ());
  exec "DROP TABLE e";
  exec "CREATE TABLE e (a INTEGER, b INTEGER)";
  exec "INSERT INTO e VALUES (5, 6)";
  check tbool "after drop + create" false (reaches ())

(* The (cost, path) rows of [sql] on [db] and on a fresh database holding
   a copy of the same edge table and no index. *)
let same_as_fresh db sql =
  let fresh = Sqlgraph.Db.create () in
  Sqlgraph.Db.load_table fresh ~name:"e"
    (Storage.Table.copy
       (Option.get (Storage.Catalog.find (Sqlgraph.Db.catalog db) "e")));
  rows db sql = rows fresh sql

(* An appended edge between known vertices extends the cached graph; one
   whose source was so far only a destination does not: a fresh build
   would give that key another id. Rows (1,2),(1,3) give ids 1->0, 2->1,
   3->2; after appending (3,2) a fresh build gives 2->2, 3->1. *)
let test_insert_extends_graph_index () =
  let db = Sqlgraph.Db.create () in
  let exec sql = ignore (Sqlgraph.Db.exec_exn db sql) in
  exec "CREATE TABLE e (a INTEGER, b INTEGER)";
  exec "INSERT INTO e VALUES (1, 2), (1, 3)";
  indexed db;
  let q src dst =
    Printf.sprintf
      "SELECT T.c, R.a, R.b FROM (SELECT CHEAPEST SUM(1) AS (c, p) WHERE %d \
       REACHES %d OVER e EDGE (a, b)) T, UNNEST(T.p) R"
      src dst
  in
  check tbool "first read builds" true (has "cache=miss" (explain_analyze db (q 1 3)));
  exec "INSERT INTO e VALUES (1, 3), (1, 2)";
  let out = explain_analyze db (q 1 3) in
  check tbool "known keys extend" true
    (has "cache=extend" out && has "appended=2" out && has "dict=0.000ms" out);
  check tbool "extended = fresh" true (same_as_fresh db (q 1 3));
  exec "INSERT INTO e VALUES (3, 2)";
  check tbool "destination reused as source rebuilds" true
    (has "cache=miss" (explain_analyze db (q 3 2)));
  List.iter
    (fun (s, d) -> check tbool "rebuilt = fresh" true (same_as_fresh db (q s d)))
    [ (3, 2); (1, 2); (1, 3); (2, 2) ]

(* An UPDATE of the weight column leaves the key columns alone: the
   graph extends by zero rows, and the new weights are evaluated. *)
let test_weight_update_extends_by_zero_rows () =
  let db = Sqlgraph.Db.create () in
  let exec sql = ignore (Sqlgraph.Db.exec_exn db sql) in
  exec "CREATE TABLE e (a INTEGER, b INTEGER, w INTEGER)";
  exec "INSERT INTO e VALUES (1, 2, 5), (2, 3, 5), (1, 3, 20)";
  indexed db;
  let q = "SELECT CHEAPEST SUM(x: w) WHERE 1 REACHES 3 OVER e x EDGE (a, b)" in
  check tbool "before" true (int_rows db q = [ [ 10 ] ]);
  exec "UPDATE e SET w = 1 WHERE a = 1 AND b = 3";
  let out = explain_analyze db q in
  check tbool "extends by 0 rows" true
    (has "cache=extend" out && has "appended=0" out);
  check tbool "new weights" true (int_rows db q = [ [ 1 ] ])

(* ------------------------------------------------------------------ *)
(* Scalar functions                                                    *)
(* ------------------------------------------------------------------ *)

let scalar db sql = Sqlgraph.Resultset.value (q db sql)

let test_string_functions () =
  let db = fresh_db () in
  check tbool "substr 2-arg" true
    (V.equal (scalar db "SELECT SUBSTR('hello', 3)") (V.Str "llo"));
  check tbool "substr 3-arg" true
    (V.equal (scalar db "SELECT SUBSTR('hello', 2, 3)") (V.Str "ell"));
  check tbool "substr past end" true
    (V.equal (scalar db "SELECT SUBSTR('hi', 5)") (V.Str ""));
  check tbool "replace" true
    (V.equal (scalar db "SELECT REPLACE('banana', 'an', 'A')") (V.Str "bAAa"));
  check tbool "trim" true
    (V.equal (scalar db "SELECT TRIM('  x  ')") (V.Str "x"));
  check tbool "ltrim" true
    (V.equal (scalar db "SELECT LTRIM('  x  ')") (V.Str "x  "));
  check tbool "rtrim" true
    (V.equal (scalar db "SELECT RTRIM('  x  ')") (V.Str "  x"));
  check tbool "null propagates" true (V.is_null (scalar db "SELECT SUBSTR(NULL, 1)"))

let test_numeric_functions () =
  let db = fresh_db () in
  check tbool "round" true (V.equal (scalar db "SELECT ROUND(2.5)") (V.Float 3.));
  check tbool "round digits" true
    (V.equal (scalar db "SELECT ROUND(2.345, 2)") (V.Float 2.35));
  check tbool "floor" true (V.equal (scalar db "SELECT FLOOR(2.9)") (V.Int 2));
  check tbool "ceil" true (V.equal (scalar db "SELECT CEIL(2.1)") (V.Int 3));
  check tbool "sqrt" true (V.equal (scalar db "SELECT SQRT(9)") (V.Float 3.));
  check tbool "power" true (V.equal (scalar db "SELECT POWER(2, 10)") (V.Float 1024.));
  check tbool "sign" true (V.equal (scalar db "SELECT SIGN(-7.5)") (V.Int (-1)));
  match Sqlgraph.Db.query db "SELECT SQRT(-1)" with
  | Error (Sqlgraph.Error.Runtime_error _) -> ()
  | _ -> Alcotest.fail "sqrt of negative must fail"

let test_date_functions () =
  let db = fresh_db () in
  check tbool "year" true
    (V.equal (scalar db "SELECT YEAR(CAST('2010-03-24' AS DATE))") (V.Int 2010));
  check tbool "month" true
    (V.equal (scalar db "SELECT MONTH(CAST('2010-03-24' AS DATE))") (V.Int 3));
  check tbool "day" true
    (V.equal (scalar db "SELECT DAY(CAST('2010-03-24' AS DATE))") (V.Int 24));
  match Sqlgraph.Db.query db "SELECT YEAR(1)" with
  | Error (Sqlgraph.Error.Bind_error _) -> ()
  | _ -> Alcotest.fail "YEAR of non-date must fail at bind time"

(* ------------------------------------------------------------------ *)
(* DISTINCT aggregates, IN (subquery)                                  *)
(* ------------------------------------------------------------------ *)

let test_simple_case_null_operand () =
  let db = fresh_db () in
  (* NULL = anything is NULL, so the ELSE branch fires *)
  check tbool "null operand" true
    (rows db "SELECT CASE NULL WHEN 1 THEN 'a' ELSE 'b' END" = [ [ V.Str "b" ] ])

let test_persist_random_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"persist: random tables roundtrip" ~count:30
       QCheck.(
         list_of_size (QCheck.Gen.int_range 0 20)
           (pair (option small_signed_int) (option (string_gen_of_size (QCheck.Gen.int_range 0 8) QCheck.Gen.printable))))
       (fun rows_data ->
         let dir = Filename.temp_file "sqlgraph_prop" "" in
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
             let db = Sqlgraph.Db.create () in
             let table =
               Storage.Table.of_rows
                 (Storage.Schema.of_pairs
                    [ ("a", Storage.Dtype.TInt); ("s", Storage.Dtype.TStr) ])
                 (List.map
                    (fun (a, s) ->
                      [
                        (match a with Some x -> V.Int x | None -> V.Null);
                        (* the CSV layer cannot distinguish "" from NULL *)
                        (match s with
                        | Some "" | None -> V.Null
                        | Some x -> V.Str x);
                      ])
                    rows_data)
             in
             Sqlgraph.Db.load_table db ~name:"p" table;
             (match Sqlgraph.Persist.save db ~dir with
             | Ok () -> ()
             | Error e -> Alcotest.failf "save: %s" (Sqlgraph.Error.to_string e));
             match Sqlgraph.Persist.load ~dir with
             | Error e -> Alcotest.failf "load: %s" (Sqlgraph.Error.to_string e)
             | Ok db2 ->
               rows db "SELECT a, s FROM p" = rows db2 "SELECT a, s FROM p")))

let test_insert_select_and_ctas () =
  let db = fresh_db () in
  (* CTAS snapshots a query result as a new table *)
  (match
     Sqlgraph.Db.exec_exn db
       "CREATE TABLE big AS SELECT n, s FROM t WHERE n >= 3"
   with
  | Sqlgraph.Db.Created -> ()
  | _ -> Alcotest.fail "ctas outcome");
  check tbool "snapshot" true
    (rows db "SELECT * FROM big ORDER BY n"
    = [ [ V.Int 3; V.Str "a" ]; [ V.Int 4; V.Str "c" ] ]);
  (* the snapshot is independent of the source *)
  ignore (Sqlgraph.Db.exec_exn db "DELETE FROM t");
  check tint "survives source deletion" 2
    (List.length (rows db "SELECT * FROM big"));
  (* INSERT ... SELECT, including a column list and casts *)
  (match
     Sqlgraph.Db.exec_exn db "INSERT INTO t (n) SELECT n * 10 FROM big"
   with
  | Sqlgraph.Db.Inserted 2 -> ()
  | _ -> Alcotest.fail "insert..select outcome");
  check tbool "rows arrived with null fill" true
    (rows db "SELECT n, s FROM t ORDER BY n"
    = [ [ V.Int 30; V.Null ]; [ V.Int 40; V.Null ] ]);
  (* arity mismatch is a bind error *)
  (match Sqlgraph.Db.exec db "INSERT INTO t SELECT n FROM big" with
  | Error (Sqlgraph.Error.Bind_error _) -> ()
  | _ -> Alcotest.fail "arity check");
  (* CTAS over a graph query: materialise distances as a plain table *)
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE e (a INTEGER, b INTEGER)");
  ignore (Sqlgraph.Db.exec_exn db "INSERT INTO e VALUES (1, 2), (2, 3)");
  ignore
    (Sqlgraph.Db.exec_exn db
       "CREATE TABLE dists AS         SELECT b AS node, CHEAPEST SUM(1) AS d FROM e         WHERE 1 REACHES b OVER e EDGE (a, b)");
  check tbool "graph results materialised" true
    (rows db "SELECT node, d FROM dists ORDER BY d"
    = [ [ V.Int 2; V.Int 1 ]; [ V.Int 3; V.Int 2 ] ]);
  (* the paper's rule: paths cannot be stored (CTAS of a path column) *)
  match
    Sqlgraph.Db.exec db
      "CREATE TABLE nope AS SELECT CHEAPEST SUM(x: 1) AS (c, p) WHERE 1 REACHES 3 OVER e x EDGE (a, b)"
  with
  | Error (Sqlgraph.Error.Bind_error m) ->
    check tbool "mentions UNNEST" true
      (Astring.String.is_infix ~affix:"UNNEST" m)
  | _ -> Alcotest.fail "CTAS of a path column must fail"

let test_simple_case_form () =
  let db = fresh_db () in
  check tbool "simple case desugars" true
    (rows db
       "SELECT CASE s WHEN 'a' THEN 'first' WHEN 'b' THEN 'second'         ELSE 'other' END FROM t ORDER BY n, s"
    = [
        [ V.Str "first" ]; [ V.Str "second" ]; [ V.Str "second" ];
        [ V.Str "first" ]; [ V.Str "other" ];
      ])

let test_group_by_position () =
  let db = fresh_db () in
  check tbool "positional" true
    (rows db "SELECT s, COUNT(*) FROM t GROUP BY 1 ORDER BY 1"
    = [
        [ V.Str "a"; V.Int 2 ]; [ V.Str "b"; V.Int 2 ]; [ V.Str "c"; V.Int 1 ];
      ]);
  match Sqlgraph.Db.query db "SELECT s FROM t GROUP BY 9" with
  | Error (Sqlgraph.Error.Bind_error _) -> ()
  | _ -> Alcotest.fail "position out of range must fail"

let test_count_distinct () =
  let db = fresh_db () in
  check tbool "count distinct" true
    (int_rows db "SELECT COUNT(DISTINCT s) FROM t" = [ [ 3 ] ]);
  check tbool "plain count differs" true
    (int_rows db "SELECT COUNT(s) FROM t" = [ [ 5 ] ]);
  check tbool "sum distinct" true
    (int_rows db "SELECT SUM(DISTINCT n) FROM t" = [ [ 10 ] ]);
  check tbool "grouped count distinct" true
    (rows db "SELECT s, COUNT(DISTINCT n) FROM t GROUP BY s ORDER BY s"
    = [
        [ V.Str "a"; V.Int 2 ];
        [ V.Str "b"; V.Int 1 ];
        [ V.Str "c"; V.Int 1 ];
      ])

let test_in_subquery () =
  let db = fresh_db () in
  check tbool "basic" true
    (int_rows db
       "SELECT n FROM t WHERE n IN (SELECT n FROM t WHERE s = 'a') ORDER BY 1"
    = [ [ 1 ]; [ 3 ] ]);
  check tbool "not in" true
    (int_rows db
       "SELECT DISTINCT n FROM t WHERE n NOT IN (SELECT n FROM t WHERE s = 'a') ORDER BY 1"
    = [ [ 2 ]; [ 4 ] ]);
  (* NOT IN with a NULL in the subquery result selects nothing *)
  ignore (Sqlgraph.Db.exec_exn db "INSERT INTO t VALUES (NULL, 'x')");
  check tint "not-in with null" 0
    (List.length (rows db "SELECT n FROM t WHERE n NOT IN (SELECT n FROM t)"));
  match Sqlgraph.Db.query db "SELECT n FROM t WHERE n IN (SELECT n, s FROM t)" with
  | Error (Sqlgraph.Error.Bind_error _) -> ()
  | _ -> Alcotest.fail "multi-column IN subquery must fail"

(* ------------------------------------------------------------------ *)
(* Correlated subqueries                                               *)
(* ------------------------------------------------------------------ *)

let corr_db () =
  let db = Sqlgraph.Db.create () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE dept (id INTEGER, name VARCHAR)");
  ignore
    (Sqlgraph.Db.exec_exn db
       "INSERT INTO dept VALUES (1, 'eng'), (2, 'ops'), (3, 'empty')");
  ignore
    (Sqlgraph.Db.exec_exn db
       "CREATE TABLE emp (dept_id INTEGER, who VARCHAR, salary INTEGER)");
  ignore
    (Sqlgraph.Db.exec_exn db
       "INSERT INTO emp VALUES (1, 'ann', 100), (1, 'bob', 120),         (2, 'cec', 90), (2, 'dan', 90), (1, 'eve', 80)");
  db

let test_correlated_exists () =
  let db = corr_db () in
  check tbool "departments with staff" true
    (rows db
       "SELECT name FROM dept d         WHERE EXISTS (SELECT 1 FROM emp e WHERE e.dept_id = d.id) ORDER BY name"
    = [ [ V.Str "eng" ]; [ V.Str "ops" ] ]);
  check tbool "not exists" true
    (rows db
       "SELECT name FROM dept d         WHERE NOT EXISTS (SELECT 1 FROM emp e WHERE e.dept_id = d.id)"
    = [ [ V.Str "empty" ] ])

let test_correlated_scalar () =
  let db = corr_db () in
  check tbool "per-department headcount" true
    (rows db
       "SELECT name, (SELECT COUNT(*) FROM emp e WHERE e.dept_id = d.id) AS n         FROM dept d ORDER BY name"
    = [
        [ V.Str "empty"; V.Int 0 ];
        [ V.Str "eng"; V.Int 3 ];
        [ V.Str "ops"; V.Int 2 ];
      ]);
  (* the classic: employees above their own department's average *)
  check tbool "above own-department average" true
    (rows db
       "SELECT who FROM emp e1         WHERE e1.salary > (SELECT AVG(e2.salary) FROM emp e2                            WHERE e2.dept_id = e1.dept_id) ORDER BY who"
    = [ [ V.Str "bob" ] ])

let test_correlated_in () =
  let db = corr_db () in
  check tbool "IN with outer reference" true
    (rows db
       "SELECT name FROM dept d         WHERE 90 IN (SELECT e.salary FROM emp e WHERE e.dept_id = d.id)         ORDER BY name"
    = [ [ V.Str "ops" ] ])

let test_correlated_shadowing () =
  let db = corr_db () in
  (* the inner scope must shadow the outer one for unqualified names *)
  check tbool "inner shadows outer" true
    (int_rows db
       "SELECT (SELECT MAX(salary) FROM emp) FROM dept WHERE id = 1"
    = [ [ 120 ] ])

let test_correlated_rejected_in_having () =
  let db = corr_db () in
  match
    Sqlgraph.Db.query db
      "SELECT dept_id, COUNT(*) FROM emp e1 GROUP BY dept_id        HAVING EXISTS (SELECT 1 FROM dept d WHERE d.id = e1.dept_id)"
  with
  | Error (Sqlgraph.Error.Bind_error _) -> ()
  | _ -> Alcotest.fail "expected a bind error for correlated HAVING"

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let with_temp_dir f =
  let dir = Filename.temp_file "sqlgraph_persist" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_persist_roundtrip () =
  with_temp_dir (fun dir ->
      let db = fresh_db () in
      ignore
        (Sqlgraph.Db.exec_exn db
           "CREATE TABLE extras (d DATE, f DOUBLE, b BOOLEAN)");
      ignore
        (Sqlgraph.Db.exec_exn db
           "INSERT INTO extras VALUES ('2010-03-24', 1.5, TRUE), (NULL, NULL, FALSE)");
      (match Sqlgraph.Persist.save db ~dir with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save: %s" (Sqlgraph.Error.to_string e));
      let db2 =
        match Sqlgraph.Persist.load ~dir with
        | Ok db2 -> db2
        | Error e -> Alcotest.failf "load: %s" (Sqlgraph.Error.to_string e)
      in
      check tbool "same table set" true
        (Storage.Catalog.names (Sqlgraph.Db.catalog db)
        = Storage.Catalog.names (Sqlgraph.Db.catalog db2));
      List.iter
        (fun name ->
          let q db = rows db (Printf.sprintf "SELECT * FROM %s" name) in
          check tbool (name ^ " contents") true (q db = q db2))
        [ "t"; "extras" ];
      (* the loaded copy is a live database *)
      check tbool "queryable" true
        (int_rows db2 "SELECT COUNT(*) FROM t" = [ [ 5 ] ]))

let test_persist_graph_workload () =
  with_temp_dir (fun dir ->
      let db = Sqlgraph.Db.create () in
      ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE e (a INTEGER, b INTEGER)");
      ignore (Sqlgraph.Db.exec_exn db "INSERT INTO e VALUES (1, 2), (2, 3)");
      (match Sqlgraph.Persist.save db ~dir with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save: %s" (Sqlgraph.Error.to_string e));
      match Sqlgraph.Persist.load ~dir with
      | Error e -> Alcotest.failf "load: %s" (Sqlgraph.Error.to_string e)
      | Ok db2 ->
        check tbool "graph query over loaded data" true
          (Sqlgraph.Resultset.value
             (Sqlgraph.Db.query_exn db2
                ~params:[| V.Int 1; V.Int 3 |]
                "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (a, b)")
          = V.Int 2))

let test_persist_missing_dir () =
  match Sqlgraph.Persist.load ~dir:"/nonexistent/sqlgraph" with
  | Error (Sqlgraph.Error.Runtime_error _) -> ()
  | _ -> Alcotest.fail "expected an error"

(* ------------------------------------------------------------------ *)
(* WITH RECURSIVE                                                      *)
(* ------------------------------------------------------------------ *)

let test_recursive_series () =
  let db = Sqlgraph.Db.create () in
  check tbool "1..5" true
    (int_rows db
       "WITH RECURSIVE s (n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM s WHERE n < 5) \
        SELECT n FROM s ORDER BY n"
    = [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ]; [ 5 ] ])

let test_recursive_transitive_closure () =
  let db = Sqlgraph.Db.create () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE e (a INTEGER, b INTEGER)");
  ignore
    (Sqlgraph.Db.exec_exn db "INSERT INTO e VALUES (1, 2), (2, 3), (3, 4), (4, 2)");
  (* node-only recursion terminates on the cycle thanks to UNION dedup *)
  check tbool "closure of 1" true
    (int_rows db
       "WITH RECURSIVE reach (node) AS ( \
          SELECT 1 UNION SELECT e.b FROM reach r JOIN e ON r.node = e.a) \
        SELECT node FROM reach ORDER BY node"
    = [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ])

let test_recursive_runaway_capped () =
  let db = Sqlgraph.Db.create () in
  (* UNION ALL with no bound: must be stopped by the iteration cap *)
  match
    Sqlgraph.Db.query db
      "WITH RECURSIVE s (n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM s) \
       SELECT COUNT(*) FROM s"
  with
  | Error (Sqlgraph.Error.Runtime_error m) ->
    check tbool "mentions the cap" true
      (Astring.String.is_infix ~affix:"10000 iterations" m)
  | _ -> Alcotest.fail "expected a recursion-cap error"

let test_recursive_shape_errors () =
  let db = Sqlgraph.Db.create () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE e (a INTEGER, b INTEGER)");
  (match
     Sqlgraph.Db.query db
       "WITH RECURSIVE r (n) AS (SELECT a FROM e JOIN r ON TRUE UNION SELECT 1) \
        SELECT * FROM r"
   with
  | Error (Sqlgraph.Error.Bind_error _) -> ()
  | _ -> Alcotest.fail "self-reference in base must fail");
  match
    Sqlgraph.Db.query db
      "WITH RECURSIVE r (n) AS (SELECT 1) SELECT n FROM r"
  with
  (* no self-reference: treated as a plain CTE, succeeds *)
  | Ok _ -> ()
  | Error e -> Alcotest.failf "plain cte under RECURSIVE: %s" (Sqlgraph.Error.to_string e)

let test_recursive_non_recursive_mix () =
  let db = Sqlgraph.Db.create () in
  check tbool "recursive + plain CTE together" true
    (int_rows db
       "WITH RECURSIVE base (k) AS (SELECT 3), \
          s (n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM s WHERE n < 3) \
        SELECT n + k FROM s, base ORDER BY 1"
    = [ [ 4 ]; [ 5 ]; [ 6 ] ])

(* ------------------------------------------------------------------ *)
(* EXPLAIN statement, CSV                                              *)
(* ------------------------------------------------------------------ *)

let test_explain_statement () =
  let db = fresh_db () in
  match Sqlgraph.Db.exec_exn db "EXPLAIN SELECT n FROM t WHERE n > 1" with
  | Sqlgraph.Db.Explained plan ->
    check tbool "has filter" true (Astring.String.is_infix ~affix:"Filter" plan);
    check tbool "has scan" true (Astring.String.is_infix ~affix:"Scan t" plan)
  | _ -> Alcotest.fail "expected Explained"

let test_explain_analyze () =
  let db = fresh_db () in
  match
    Sqlgraph.Db.exec_exn db "EXPLAIN ANALYZE SELECT n FROM t WHERE n > 1"
  with
  | Sqlgraph.Db.Explained out ->
    check tbool "plan section" true (Astring.String.is_infix ~affix:"Filter" out);
    check tbool "analyze section" true
      (Astring.String.is_infix ~affix:"-- analyze --" out);
    check tbool "row counts" true
      (Astring.String.is_infix ~affix:"Filter  (rows=4" out);
    check tbool "result footer" true
      (Astring.String.is_infix ~affix:"result: 4 rows" out)
  | _ -> Alcotest.fail "expected Explained"

let test_set_parallelism () =
  let db = Sqlgraph.Db.create () in
  (match Sqlgraph.Db.exec_exn db "SET parallelism = 4" with
  | Sqlgraph.Db.Option_set ("parallelism", 4) -> ()
  | _ -> Alcotest.fail "expected Option_set parallelism 4");
  check tbool "session remembers" true (Sqlgraph.Db.parallelism db = 4);
  (match Sqlgraph.Db.exec db "SET parallelism = 0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "SET parallelism = 0 should be rejected");
  match Sqlgraph.Db.exec db "SET no_such_option = 1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown option should be rejected"

let test_csv_parse () =
  let rows = Sqlgraph.Csv.parse_string "a,b\n1,\"x,y\"\n2,\"he said \"\"hi\"\"\"\n" in
  check tbool "parsed" true
    (rows = [ [ "a"; "b" ]; [ "1"; "x,y" ]; [ "2"; "he said \"hi\"" ] ]);
  check tbool "crlf + missing trailing newline" true
    (Sqlgraph.Csv.parse_string "a\r\nb" = [ [ "a" ]; [ "b" ] ]);
  check tbool "unterminated quote fails" true
    (match Sqlgraph.Csv.parse_string "\"abc" with
    | exception Sqlgraph.Csv.Csv_error _ -> true
    | _ -> false)

let test_csv_table_roundtrip () =
  let schema =
    Storage.Schema.of_pairs
      [
        ("id", Storage.Dtype.TInt);
        ("name", Storage.Dtype.TStr);
        ("born", Storage.Dtype.TDate);
        ("score", Storage.Dtype.TFloat);
      ]
  in
  let csv = "id,name,born,score\n1,ann,2000-05-17,1.5\n2,,1999-01-02,\n" in
  let t = Sqlgraph.Csv.table_of_string ~schema csv in
  check tint "rows" 2 (Storage.Table.nrows t);
  check tbool "date typed" true
    (V.equal
       (Storage.Table.get t ~row:0 ~col:2)
       (V.Date (Storage.Date.of_ymd ~year:2000 ~month:5 ~day:17)));
  check tbool "empty is null" true (V.is_null (Storage.Table.get t ~row:1 ~col:1));
  check tbool "null float" true (V.is_null (Storage.Table.get t ~row:1 ~col:3));
  (* arity mismatch *)
  check tbool "bad arity" true
    (match Sqlgraph.Csv.table_of_string ~schema "id,name\n1,x\n" with
    | exception Sqlgraph.Csv.Csv_error _ -> true
    | _ -> false)

let test_csv_file_roundtrip () =
  let db = fresh_db () in
  let path = Filename.temp_file "sqlgraph_test" ".csv" in
  (match Sqlgraph.Csv.save_file (q db "SELECT n, s FROM t ORDER BY n, s") ~path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" (Sqlgraph.Error.to_string e));
  let schema =
    Storage.Schema.of_pairs [ ("n", Storage.Dtype.TInt); ("s", Storage.Dtype.TStr) ]
  in
  (match Sqlgraph.Csv.load_file db ~path ~table:"t2" ~schema () with
  | Ok 5 -> ()
  | Ok n -> Alcotest.failf "loaded %d rows" n
  | Error e -> Alcotest.failf "load: %s" (Sqlgraph.Error.to_string e));
  check tbool "identical contents" true
    (rows db "SELECT * FROM t ORDER BY n, s" = rows db "SELECT * FROM t2 ORDER BY n, s");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

let test_txn_basic () =
  let db = fresh_db () in
  let before = rows db "SELECT * FROM t ORDER BY n, s" in
  (match Sqlgraph.Db.exec_exn db "BEGIN" with
  | Sqlgraph.Db.Began -> ()
  | _ -> Alcotest.fail "begin outcome");
  ignore (Sqlgraph.Db.exec_exn db "INSERT INTO t VALUES (99, 'z')");
  ignore (Sqlgraph.Db.exec_exn db "UPDATE t SET n = 0 WHERE s = 'a'");
  ignore (Sqlgraph.Db.exec_exn db "DELETE FROM t WHERE s = 'b'");
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE fresh (x INTEGER)");
  check tbool "mutations visible inside txn" true
    (rows db "SELECT * FROM t ORDER BY n, s" <> before);
  (match Sqlgraph.Db.exec_exn db "ROLLBACK" with
  | Sqlgraph.Db.Rolled_back -> ()
  | _ -> Alcotest.fail "rollback outcome");
  check tbool "contents restored" true
    (rows db "SELECT * FROM t ORDER BY n, s" = before);
  (match Sqlgraph.Db.query db "SELECT * FROM fresh" with
  | Error (Sqlgraph.Error.Bind_error _) -> ()
  | _ -> Alcotest.fail "created table must vanish on rollback")

let test_txn_commit_keeps_changes () =
  let db = fresh_db () in
  ignore (Sqlgraph.Db.exec_exn db "BEGIN TRANSACTION");
  ignore (Sqlgraph.Db.exec_exn db "DELETE FROM t WHERE n IS NULL");
  (match Sqlgraph.Db.exec_exn db "COMMIT" with
  | Sqlgraph.Db.Committed -> ()
  | _ -> Alcotest.fail "commit outcome");
  check tint "changes kept" 5 (List.length (rows db "SELECT * FROM t"))

let test_txn_errors () =
  let db = fresh_db () in
  (match Sqlgraph.Db.exec db "COMMIT" with
  | Error (Sqlgraph.Error.Bind_error _) -> ()
  | _ -> Alcotest.fail "commit outside txn");
  (match Sqlgraph.Db.exec db "ROLLBACK" with
  | Error (Sqlgraph.Error.Bind_error _) -> ()
  | _ -> Alcotest.fail "rollback outside txn");
  ignore (Sqlgraph.Db.exec_exn db "BEGIN");
  match Sqlgraph.Db.exec db "BEGIN" with
  | Error (Sqlgraph.Error.Bind_error _) -> ()
  | _ -> Alcotest.fail "nested begin"

let test_txn_graph_index_safety () =
  let db = Sqlgraph.Db.create () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE e (a INTEGER, b INTEGER)");
  ignore (Sqlgraph.Db.exec_exn db "INSERT INTO e VALUES (1, 2)");
  (match Sqlgraph.Db.create_graph_index db ~table:"e" ~src:"a" ~dst:"b" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s" (Sqlgraph.Error.to_string e));
  let reaches () =
    rows db
      ~params:[| V.Int 1; V.Int 3 |]
      "SELECT 1 WHERE ? REACHES ? OVER e EDGE (a, b)"
    <> []
  in
  check tbool "before txn: 1 cannot reach 3" false (reaches ());
  ignore (Sqlgraph.Db.exec_exn db "BEGIN");
  ignore (Sqlgraph.Db.exec_exn db "INSERT INTO e VALUES (2, 3)");
  check tbool "inside txn: now reachable (cache refreshed)" true (reaches ());
  ignore (Sqlgraph.Db.exec_exn db "ROLLBACK");
  (* the rollback restores the table under a new version: a stale cached
     graph would make this reachable again *)
  check tbool "after rollback: unreachable again" false (reaches ())

let () =
  Alcotest.run "features"
    [
      ( "set-operations",
        [
          Alcotest.test_case "union all" `Quick test_union_all;
          Alcotest.test_case "union distinct" `Quick test_union_distinct;
          Alcotest.test_case "intersect / except" `Quick test_intersect_except;
          Alcotest.test_case "order/limit over compound" `Quick
            test_setop_order_limit_apply_to_whole;
          Alcotest.test_case "type checks" `Quick test_setop_type_checks;
          Alcotest.test_case "compound of graph queries" `Quick test_setop_with_graph_query;
        ] );
      ( "update-delete",
        [
          Alcotest.test_case "update basic" `Quick test_update_basic;
          Alcotest.test_case "update multi + params" `Quick
            test_update_multiple_assignments_and_params;
          Alcotest.test_case "update all rows" `Quick test_update_everything_no_where;
          Alcotest.test_case "update errors" `Quick test_update_errors;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "mutations invalidate graph index" `Quick
            test_mutation_invalidates_graph_index;
          Alcotest.test_case "drop + create invalidates graph index" `Quick
            test_drop_create_invalidates_graph_index;
          Alcotest.test_case "insert extends graph index" `Quick
            test_insert_extends_graph_index;
          Alcotest.test_case "weight update extends by 0 rows" `Quick
            test_weight_update_extends_by_zero_rows;
        ] );
      ( "functions",
        [
          Alcotest.test_case "string functions" `Quick test_string_functions;
          Alcotest.test_case "numeric functions" `Quick test_numeric_functions;
          Alcotest.test_case "date functions" `Quick test_date_functions;
        ] );
      ( "aggregates-subqueries",
        [
          Alcotest.test_case "count distinct" `Quick test_count_distinct;
          Alcotest.test_case "group by position" `Quick test_group_by_position;
          Alcotest.test_case "simple CASE form" `Quick test_simple_case_form;
          Alcotest.test_case "simple CASE null operand" `Quick
            test_simple_case_null_operand;
          Alcotest.test_case "INSERT..SELECT and CTAS" `Quick
            test_insert_select_and_ctas;
          Alcotest.test_case "in subquery" `Quick test_in_subquery;
        ] );
      ( "correlated-subqueries",
        [
          Alcotest.test_case "exists / not exists" `Quick test_correlated_exists;
          Alcotest.test_case "scalar" `Quick test_correlated_scalar;
          Alcotest.test_case "in" `Quick test_correlated_in;
          Alcotest.test_case "shadowing" `Quick test_correlated_shadowing;
          Alcotest.test_case "rejected in HAVING" `Quick
            test_correlated_rejected_in_having;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "roundtrip" `Quick test_persist_roundtrip;
          Alcotest.test_case "graph workload survives" `Quick
            test_persist_graph_workload;
          Alcotest.test_case "missing directory" `Quick test_persist_missing_dir;
          test_persist_random_roundtrip;
        ] );
      ( "with-recursive",
        [
          Alcotest.test_case "number series" `Quick test_recursive_series;
          Alcotest.test_case "transitive closure over a cycle" `Quick
            test_recursive_transitive_closure;
          Alcotest.test_case "runaway recursion capped" `Quick
            test_recursive_runaway_capped;
          Alcotest.test_case "shape errors" `Quick test_recursive_shape_errors;
          Alcotest.test_case "mixed recursive and plain" `Quick
            test_recursive_non_recursive_mix;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "rollback restores" `Quick test_txn_basic;
          Alcotest.test_case "commit keeps" `Quick test_txn_commit_keeps_changes;
          Alcotest.test_case "errors" `Quick test_txn_errors;
          Alcotest.test_case "graph index safety" `Quick test_txn_graph_index_safety;
        ] );
      ( "explain-csv",
        [
          Alcotest.test_case "explain statement" `Quick test_explain_statement;
          Alcotest.test_case "explain analyze" `Quick test_explain_analyze;
          Alcotest.test_case "set parallelism" `Quick test_set_parallelism;
          Alcotest.test_case "csv parsing" `Quick test_csv_parse;
          Alcotest.test_case "csv typed tables" `Quick test_csv_table_roundtrip;
          Alcotest.test_case "csv file roundtrip" `Quick test_csv_file_roundtrip;
        ] );
    ]
