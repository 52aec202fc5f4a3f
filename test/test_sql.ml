(* Lexer, parser and pretty-printer tests, with emphasis on the paper's
   extension syntax. *)

module A = Sql.Ast
module T = Sql.Token

open Testjson.Support

let tokens src = List.map (fun p -> p.Sql.Lexer.tok) (Sql.Lexer.tokenize src)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lex_basic () =
  check tbool "select kw" true
    (tokens "SELECT 1" = [ T.KEYWORD "SELECT"; T.INT 1; T.EOF ]);
  check tbool "case insensitive keywords" true
    (tokens "select" = [ T.KEYWORD "SELECT"; T.EOF ]);
  check tbool "identifier keeps case" true
    (tokens "FooBar" = [ T.IDENT "FooBar"; T.EOF ])

let test_lex_numbers () =
  check tbool "int" true (tokens "42" = [ T.INT 42; T.EOF ]);
  check tbool "float" true (tokens "4.25" = [ T.FLOAT 4.25; T.EOF ]);
  check tbool "exponent" true (tokens "1e3" = [ T.FLOAT 1000.; T.EOF ]);
  check tbool "dot not part of qualified name" true
    (tokens "t.1" = [ T.IDENT "t"; T.DOT; T.INT 1; T.EOF ]);
  check tbool "float then dot" true
    (tokens "1.5.x" = [ T.FLOAT 1.5; T.DOT; T.IDENT "x"; T.EOF ])

let test_lex_strings () =
  check tbool "simple" true (tokens "'abc'" = [ T.STRING "abc"; T.EOF ]);
  check tbool "escaped quote" true (tokens "'a''b'" = [ T.STRING "a'b"; T.EOF ]);
  check tbool "empty" true (tokens "''" = [ T.STRING ""; T.EOF ]);
  check tbool "quoted ident" true (tokens "\"Sel ect\"" = [ T.QIDENT "Sel ect"; T.EOF ])

let test_lex_operators () =
  check tbool "all comparison ops" true
    (tokens "= <> != < <= > >="
    = [ T.EQ; T.NEQ; T.NEQ; T.LT; T.LE; T.GT; T.GE; T.EOF ]);
  check tbool "concat" true (tokens "a || b" = [ T.IDENT "a"; T.CONCAT; T.IDENT "b"; T.EOF ]);
  check tbool "param and colon" true (tokens "? e:" = [ T.PARAM; T.IDENT "e"; T.COLON; T.EOF ])

let test_lex_comments () =
  check tbool "line comment" true (tokens "1 -- two\n2" = [ T.INT 1; T.INT 2; T.EOF ]);
  check tbool "block comment" true (tokens "1 /* x\ny */ 2" = [ T.INT 1; T.INT 2; T.EOF ])

let test_lex_errors () =
  let fails s =
    match Sql.Lexer.tokenize s with
    | exception Sql.Lexer.Lex_error _ -> true
    | _ -> false
  in
  check tbool "unterminated string" true (fails "'abc");
  check tbool "unterminated comment" true (fails "/* abc");
  check tbool "stray char" true (fails "SELECT #");
  check tbool "lone bang" true (fails "a ! b")

let test_lex_positions () =
  match Sql.Lexer.tokenize "SELECT\n  foo" with
  | [ _; { tok = T.IDENT "foo"; line; col }; _ ] ->
    check tint "line" 2 line;
    check tint "col" 3 col
  | _ -> Alcotest.fail "unexpected token stream"

let test_extension_keywords () =
  check tbool "REACHES reserved" true (T.is_keyword "reaches");
  check tbool "CHEAPEST reserved" true (T.is_keyword "CHEAPEST");
  check tbool "EDGE reserved" true (T.is_keyword "edge");
  check tbool "UNNEST reserved" true (T.is_keyword "UNNEST");
  check tbool "ORDINALITY not reserved" false (T.is_keyword "ORDINALITY");
  check tbool "SUM not reserved" false (T.is_keyword "SUM")

(* ------------------------------------------------------------------ *)
(* Parser: plain SQL                                                   *)
(* ------------------------------------------------------------------ *)

let parse_q = Sql.Parser.parse_query
let parse_e = Sql.Parser.parse_expr

let test_parse_select_basic () =
  let q = parse_q "SELECT a, b AS bee FROM t WHERE a > 1 ORDER BY a DESC LIMIT 3 OFFSET 1" in
  check tint "items" 2 (List.length q.A.items);
  check tbool "alias" true
    (match q.A.items with
    | [ _; A.Sel_expr (_, A.Alias_name "bee") ] -> true
    | _ -> false);
  check tbool "where" true (q.A.where <> None);
  check tbool "order" true
    (match q.A.order_by with [ (_, A.Desc) ] -> true | _ -> false);
  check tbool "limit" true (q.A.limit = Some 3);
  check tbool "offset" true (q.A.offset = Some 1)

let test_parse_star () =
  let q = parse_q "SELECT *, t.* FROM t" in
  check tbool "stars" true
    (q.A.items = [ A.Sel_star None; A.Sel_star (Some "t") ])

let test_parse_precedence () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  check tbool "mul binds tighter" true
    (parse_e "1 + 2 * 3"
    = A.Bin (A.Add, A.Lit (A.L_int 1), A.Bin (A.Mul, A.Lit (A.L_int 2), A.Lit (A.L_int 3))));
  (* AND binds tighter than OR *)
  check tbool "and over or" true
    (match parse_e "a OR b AND c" with
    | A.Bin (A.Or, A.Col (None, "a"), A.Bin (A.And, _, _)) -> true
    | _ -> false);
  (* comparison below AND *)
  check tbool "cmp under and" true
    (match parse_e "a < 1 AND b > 2" with
    | A.Bin (A.And, A.Bin (A.Lt, _, _), A.Bin (A.Gt, _, _)) -> true
    | _ -> false);
  check tbool "unary minus" true
    (match parse_e "-a * b" with
    | A.Bin (A.Mul, A.Un (A.Neg, _), _) -> true
    | _ -> false)

let test_parse_predicates () =
  check tbool "between" true
    (match parse_e "x BETWEEN 1 AND 3" with
    | A.Between { negated = false; _ } -> true
    | _ -> false);
  check tbool "not between" true
    (match parse_e "x NOT BETWEEN 1 AND 3" with
    | A.Between { negated = true; _ } -> true
    | _ -> false);
  check tbool "in list" true
    (match parse_e "x IN (1, 2, 3)" with
    | A.In_list { candidates = [ _; _; _ ]; negated = false; _ } -> true
    | _ -> false);
  check tbool "not in" true
    (match parse_e "x NOT IN (1)" with
    | A.In_list { negated = true; _ } -> true
    | _ -> false);
  check tbool "like" true
    (match parse_e "x LIKE 'a%'" with
    | A.Like { negated = false; _ } -> true
    | _ -> false);
  check tbool "is null" true
    (match parse_e "x IS NULL" with
    | A.Is_null { negated = false; _ } -> true
    | _ -> false);
  check tbool "is not null" true
    (match parse_e "x IS NOT NULL" with
    | A.Is_null { negated = true; _ } -> true
    | _ -> false)

let test_parse_case_cast () =
  check tbool "case" true
    (match parse_e "CASE WHEN a THEN 1 WHEN b THEN 2 ELSE 3 END" with
    | A.Case ([ _; _ ], Some _) -> true
    | _ -> false);
  check tbool "cast" true
    (match parse_e "CAST(x AS INTEGER)" with
    | A.Cast (A.Col (None, "x"), "INTEGER") -> true
    | _ -> false)

let test_parse_functions () =
  check tbool "count star" true
    (parse_e "COUNT(*)" = A.Func ("COUNT", [ A.Star None ]));
  check tbool "uppercased name" true
    (match parse_e "count(x)" with A.Func ("COUNT", [ _ ]) -> true | _ -> false);
  check tbool "multi arg" true
    (match parse_e "COALESCE(a, b, 0)" with
    | A.Func ("COALESCE", [ _; _; _ ]) -> true
    | _ -> false)

let test_parse_params_numbering () =
  let q = parse_q "SELECT ? FROM t WHERE a = ? AND b = ?" in
  let params = ref [] in
  let collect e = A.fold_expr (fun acc e -> match e with A.Param i -> i :: acc | _ -> acc) [] e in
  List.iter
    (fun item -> match item with A.Sel_expr (e, _) -> params := !params @ collect e | _ -> ())
    q.A.items;
  (match q.A.where with Some w -> params := !params @ List.rev (collect w) | None -> ());
  check tbool "numbered in order" true (!params = [ 0; 1; 2 ])

let test_parse_joins () =
  let q = parse_q "SELECT * FROM a JOIN b ON a.x = b.y LEFT JOIN c ON TRUE" in
  check tbool "nested join tree" true
    (match q.A.from with
    | [ A.From_join (A.From_join (_, A.Inner, _, Some _), A.Left_outer, _, Some _) ] ->
      true
    | _ -> false);
  let q2 = parse_q "SELECT * FROM a CROSS JOIN b" in
  check tbool "cross join" true
    (match q2.A.from with
    | [ A.From_join (_, A.Inner, _, None) ] -> true
    | _ -> false)

let test_parse_subqueries () =
  let q = parse_q "SELECT * FROM (SELECT a FROM t) AS s WHERE EXISTS (SELECT 1 FROM u)" in
  check tbool "derived table" true
    (match q.A.from with [ A.From_subquery (_, "s") ] -> true | _ -> false);
  check tbool "exists" true
    (match q.A.where with Some (A.Exists _) -> true | _ -> false);
  check tbool "scalar subquery" true
    (match parse_e "(SELECT 1)" with A.Scalar_subquery _ -> true | _ -> false)

let test_parse_ctes () =
  let q = parse_q "WITH x AS (SELECT 1), y (a, b) AS (SELECT 1, 2) SELECT * FROM x, y" in
  check tint "two ctes" 2 (List.length q.A.ctes);
  check tbool "cols" true
    ((List.nth q.A.ctes 1).A.cte_cols = Some [ "a"; "b" ]);
  check tbool "not recursive" true
    (List.for_all (fun (c : A.cte) -> not c.A.cte_recursive) q.A.ctes);
  let qr = parse_q "WITH RECURSIVE r (n) AS (SELECT 1 UNION SELECT n FROM r) SELECT * FROM r" in
  check tbool "recursive flag" true (List.hd qr.A.ctes).A.cte_recursive

let test_parse_group_having_distinct () =
  let q =
    parse_q "SELECT DISTINCT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2"
  in
  check tbool "distinct" true q.A.distinct;
  check tint "group" 1 (List.length q.A.group_by);
  check tbool "having" true (q.A.having <> None)

(* ------------------------------------------------------------------ *)
(* Parser: the extension                                               *)
(* ------------------------------------------------------------------ *)

let test_parse_reaches () =
  let q = parse_q "SELECT * FROM vp WHERE vp.x REACHES vp.y OVER e EDGE (s, d)" in
  match q.A.where with
  | Some (A.Reaches r) ->
    check tbool "src" true (r.A.src = A.Col (Some "vp", "x"));
    check tbool "dst" true (r.A.dst = A.Col (Some "vp", "y"));
    check tbool "edge table" true (r.A.edge = A.Ref_table "e");
    check tbool "no alias" true (r.A.edge_alias = None);
    check tbool "scol" true (r.A.src_cols = [ "s" ]);
    check tbool "dcol" true (r.A.dst_cols = [ "d" ])
  | _ -> Alcotest.fail "expected a REACHES predicate"

let test_parse_reaches_alias_and_subquery () =
  let q =
    parse_q
      "SELECT * FROM vp WHERE ? REACHES ? OVER (SELECT * FROM friends) f EDGE (a, b)"
  in
  match q.A.where with
  | Some (A.Reaches r) ->
    check tbool "subquery edge" true
      (match r.A.edge with A.Ref_subquery _ -> true | _ -> false);
    check tbool "alias" true (r.A.edge_alias = Some "f")
  | _ -> Alcotest.fail "expected a REACHES predicate"

let test_parse_reaches_conjunct () =
  let q =
    parse_q "SELECT * FROM vp WHERE a = 1 AND x REACHES y OVER e EDGE (s, d) AND b = 2"
  in
  match q.A.where with
  | Some w ->
    check tint "one reaches collected" 1 (List.length (A.collect_reaches w))
  | None -> Alcotest.fail "expected WHERE"

let test_parse_cheapest_sum () =
  let q =
    parse_q
      "SELECT CHEAPEST SUM(1) AS c, CHEAPEST SUM(e: weight * 2) AS (cost, path) \
       FROM vp WHERE x REACHES y OVER edges e EDGE (s, d)"
  in
  (match List.nth q.A.items 0 with
  | A.Sel_expr (A.Cheapest_sum { binding = None; weight = A.Lit (A.L_int 1) }, A.Alias_name "c") ->
    ()
  | _ -> Alcotest.fail "first item");
  match List.nth q.A.items 1 with
  | A.Sel_expr
      (A.Cheapest_sum { binding = Some "e"; weight = A.Bin (A.Mul, _, _) },
       A.Alias_pair ("cost", "path")) ->
    ()
  | _ -> Alcotest.fail "second item"

let test_parse_cheapest_requires_sum () =
  check tbool "CHEAPEST MAX rejected" true
    (match parse_q "SELECT CHEAPEST MAX(1) FROM t" with
    | exception Sql.Parser.Parse_error _ -> true
    | _ -> false)

let test_parse_composite_edge () =
  let q =
    parse_q
      "SELECT 1 WHERE (x, y) REACHES (u, v) OVER e EDGE ((a, b), (c, d))"
  in
  (match q.A.where with
  | Some (A.Reaches r) ->
    check tbool "src row" true
      (match r.A.src with A.Row [ _; _ ] -> true | _ -> false);
    check tbool "cols" true
      (r.A.src_cols = [ "a"; "b" ] && r.A.dst_cols = [ "c"; "d" ])
  | _ -> Alcotest.fail "expected REACHES");
  check tbool "single-key still parses" true
    (match parse_q "SELECT 1 WHERE a REACHES b OVER e EDGE (s, d)" with
    | { A.where = Some (A.Reaches { A.src_cols = [ "s" ]; _ }); _ } -> true
    | _ -> false)

let test_parse_fromless_q13 () =
  let q = parse_q "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)" in
  check tbool "no from" true (q.A.from = []);
  check tbool "reaches" true
    (match q.A.where with Some (A.Reaches _) -> true | _ -> false)

let test_parse_unnest () =
  let q = parse_q "SELECT * FROM t, UNNEST(t.path) WITH ORDINALITY AS r" in
  (match q.A.from with
  | [ _; A.From_unnest { ordinality = true; alias = Some "r"; left_outer = false; _ } ] ->
    ()
  | _ -> Alcotest.fail "expected lateral unnest");
  let q2 = parse_q "SELECT * FROM t LEFT JOIN UNNEST(t.path) AS r ON TRUE" in
  match q2.A.from with
  | [ A.From_join (_, A.Left_outer, A.From_unnest _, _) ] -> ()
  | _ -> Alcotest.fail "expected left join unnest"

(* ------------------------------------------------------------------ *)
(* Parser: statements                                                  *)
(* ------------------------------------------------------------------ *)

let test_parse_create_insert_drop () =
  (match Sql.Parser.parse_stmt "CREATE TABLE t (a INTEGER, b VARCHAR)" with
  | A.Create_table ("t", [ { A.col_name = "a"; col_type = "INTEGER" }; _ ]) -> ()
  | _ -> Alcotest.fail "create");
  (match Sql.Parser.parse_stmt "INSERT INTO t (a) VALUES (1), (2)" with
  | A.Insert
      {
        table = "t";
        columns = Some [ "a" ];
        source = A.Insert_values [ [ _ ]; [ _ ] ];
      } ->
    ()
  | _ -> Alcotest.fail "insert");
  (match Sql.Parser.parse_stmt "INSERT INTO t SELECT a FROM u" with
  | A.Insert { source = A.Insert_query _; _ } -> ()
  | _ -> Alcotest.fail "insert..select");
  (match Sql.Parser.parse_stmt "CREATE TABLE c AS SELECT 1 AS one" with
  | A.Create_table_as ("c", _) -> ()
  | _ -> Alcotest.fail "ctas");
  (match Sql.Parser.parse_stmt "DROP TABLE t;" with
  | A.Drop_table "t" -> ()
  | _ -> Alcotest.fail "drop");
  (match Sql.Parser.parse_stmt "UPDATE t SET a = 1 WHERE b = 2" with
  | A.Update { table = "t"; assignments = [ ("a", _) ]; where = Some _ } -> ()
  | _ -> Alcotest.fail "update");
  (match Sql.Parser.parse_stmt "DELETE FROM t" with
  | A.Delete { table = "t"; where = None } -> ()
  | _ -> Alcotest.fail "delete");
  match Sql.Parser.parse_stmt "EXPLAIN SELECT 1" with
  | A.Explain _ -> ()
  | _ -> Alcotest.fail "explain"

let test_parse_script () =
  let stmts = Sql.Parser.parse_script "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1); SELECT * FROM t" in
  check tint "three statements" 3 (List.length stmts)

let test_parse_errors () =
  let fails s =
    match Sql.Parser.parse_stmt s with
    | exception Sql.Parser.Parse_error _ -> true
    | _ -> false
  in
  check tbool "garbage" true (fails "FOO BAR");
  check tbool "missing from item" true (fails "SELECT * FROM");
  check tbool "unclosed paren" true (fails "SELECT (1");
  check tbool "trailing tokens" true (fails "SELECT 1 1");
  check tbool "reaches missing EDGE" true
    (fails "SELECT * FROM t WHERE a REACHES b OVER e (s, d)");
  check tbool "in subquery now parses" false
    (fails "SELECT * FROM t WHERE a IN (SELECT b FROM u)");
  check tbool "derived table needs alias" true (fails "SELECT * FROM (SELECT 1)")

let test_parse_error_position () =
  match Sql.Parser.parse_stmt "SELECT 1\nFROM" with
  | exception Sql.Parser.Parse_error (_, line, _) -> check tint "line 2" 2 line
  | _ -> Alcotest.fail "expected parse error"

(* ------------------------------------------------------------------ *)
(* Pretty-printer roundtrips                                           *)
(* ------------------------------------------------------------------ *)

let roundtrip_cases =
  [
    "SELECT 1";
    "SELECT a, b AS c FROM t WHERE a > 1 AND b < 2 ORDER BY a ASC LIMIT 10";
    "SELECT DISTINCT x FROM t GROUP BY x HAVING COUNT(*) > 1";
    "SELECT * FROM a JOIN b ON a.x = b.y LEFT JOIN c ON TRUE";
    "WITH w AS (SELECT 1) SELECT * FROM w";
    "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)";
    "SELECT CHEAPEST SUM(e: CAST(weight * 2 AS INTEGER)) AS (cost, path) FROM p \
     WHERE ? REACHES id OVER f e EDGE (a, b)";
    "SELECT * FROM t, UNNEST(t.path) WITH ORDINALITY AS r";
    "SELECT CASE WHEN a THEN 1 ELSE 2 END FROM t";
    "SELECT x FROM t WHERE x BETWEEN 1 AND 2 OR x IS NULL OR x IN (1, 2)";
    "SELECT firstName || ' ' || lastName AS person FROM persons \
     WHERE ? REACHES id OVER friends1 EDGE (person1, person2)";
    "SELECT a FROM t UNION SELECT b FROM u ORDER BY 1 LIMIT 5";
    "SELECT a FROM t UNION ALL SELECT b FROM u INTERSECT SELECT c FROM v";
    "SELECT a FROM t EXCEPT SELECT b FROM u";
    "SELECT COUNT(DISTINCT x), SUM(DISTINCT y) FROM t GROUP BY z";
    "SELECT a FROM t WHERE a IN (SELECT b FROM u)";
    "SELECT SUBSTR(s, 1, 3), ROUND(f, 2) FROM t";
    "WITH RECURSIVE r (n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r WHERE n < 5) \
     SELECT n FROM r";
    "SELECT 1 WHERE (a, b) REACHES (c, d) OVER e EDGE ((s1, s2), (d1, d2))";
  ]

(* parse -> print -> parse must be a fixpoint (ASTs equal). *)
let test_pretty_roundtrip () =
  List.iter
    (fun src ->
      let q1 = parse_q src in
      let printed = Sql.Pretty.query_to_string q1 in
      let q2 =
        try parse_q printed
        with Sql.Parser.Parse_error (m, _, _) ->
          Alcotest.failf "reparse of %S failed: %s" printed m
      in
      if q1 <> q2 then
        Alcotest.failf "roundtrip mismatch for %S -> %S" src printed)
    roundtrip_cases

let test_pretty_statements () =
  let cases =
    [
      "CREATE TABLE t (a INTEGER, b VARCHAR)";
      "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')";
      "DROP TABLE t";
      "UPDATE t SET a = a + 1, b = 'x' WHERE a < 3";
      "INSERT INTO t (a) SELECT b FROM u WHERE b > 0";
      "CREATE TABLE c AS SELECT a, b FROM t";
      "DELETE FROM t WHERE b IS NULL";
      "EXPLAIN SELECT a FROM t";
    ]
  in
  List.iter
    (fun src ->
      let s1 = Sql.Parser.parse_stmt src in
      let printed = Sql.Pretty.stmt_to_string s1 in
      let s2 = Sql.Parser.parse_stmt printed in
      if s1 <> s2 then Alcotest.failf "stmt roundtrip failed for %S" src)
    cases

let test_pretty_quoting () =
  check tstr "reserved word quoted" "\"select\""
    (Sql.Pretty.expr_to_string (A.Col (None, "select")));
  check tstr "spaces quoted" "\"a b\""
    (Sql.Pretty.expr_to_string (A.Col (None, "a b")));
  check tstr "string escape" "'it''s'"
    (Sql.Pretty.expr_to_string (A.Lit (A.L_string "it's")))

(* fuzz: arbitrary input never escapes the two declared exceptions *)
let prop_parser_total =
  QCheck.Test.make ~name:"parser: arbitrary input fails cleanly" ~count:2000
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 80) QCheck.Gen.printable)
    (fun input ->
      match Sql.Parser.parse_stmt input with
      | _ -> true
      | exception Sql.Lexer.Lex_error _ -> true
      | exception Sql.Parser.Parse_error _ -> true)

(* fuzz with SQL-ish tokens: higher grammar coverage *)
let prop_parser_total_sqlish =
  let word =
    QCheck.Gen.oneofl
      [
        "SELECT"; "FROM"; "WHERE"; "REACHES"; "OVER"; "EDGE"; "CHEAPEST";
        "SUM"; "UNNEST"; "WITH"; "RECURSIVE"; "UNION"; "ALL"; "GROUP"; "BY";
        "ORDER"; "LIMIT"; "("; ")"; ","; "?"; "*"; "t"; "a"; "b"; "1"; "'x'";
        "="; "<"; "AND"; "OR"; "NOT"; "AS"; ";"; "."; ":"; "JOIN"; "ON";
      ]
  in
  let gen =
    QCheck.Gen.map (String.concat " ")
      (QCheck.Gen.list_size (QCheck.Gen.int_range 0 25) word)
  in
  QCheck.Test.make ~name:"parser: random SQL-ish token soup fails cleanly"
    ~count:2000 (QCheck.make gen)
    (fun input ->
      match Sql.Parser.parse_stmt input with
      | _ -> true
      | exception Sql.Lexer.Lex_error _ -> true
      | exception Sql.Parser.Parse_error _ -> true)

let () =
  Alcotest.run "sql"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lex_basic;
          Alcotest.test_case "numbers" `Quick test_lex_numbers;
          Alcotest.test_case "strings" `Quick test_lex_strings;
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "errors" `Quick test_lex_errors;
          Alcotest.test_case "positions" `Quick test_lex_positions;
          Alcotest.test_case "extension keywords" `Quick test_extension_keywords;
        ] );
      ( "parser",
        [
          Alcotest.test_case "select basics" `Quick test_parse_select_basic;
          Alcotest.test_case "stars" `Quick test_parse_star;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "predicates" `Quick test_parse_predicates;
          Alcotest.test_case "case and cast" `Quick test_parse_case_cast;
          Alcotest.test_case "functions" `Quick test_parse_functions;
          Alcotest.test_case "param numbering" `Quick test_parse_params_numbering;
          Alcotest.test_case "joins" `Quick test_parse_joins;
          Alcotest.test_case "subqueries" `Quick test_parse_subqueries;
          Alcotest.test_case "ctes" `Quick test_parse_ctes;
          Alcotest.test_case "group/having/distinct" `Quick test_parse_group_having_distinct;
        ] );
      ( "extension",
        [
          Alcotest.test_case "REACHES" `Quick test_parse_reaches;
          Alcotest.test_case "REACHES alias + subquery edge" `Quick
            test_parse_reaches_alias_and_subquery;
          Alcotest.test_case "REACHES among conjuncts" `Quick test_parse_reaches_conjunct;
          Alcotest.test_case "CHEAPEST SUM forms" `Quick test_parse_cheapest_sum;
          Alcotest.test_case "CHEAPEST requires SUM" `Quick test_parse_cheapest_requires_sum;
          Alcotest.test_case "FROM-less Q13" `Quick test_parse_fromless_q13;
          Alcotest.test_case "composite EDGE keys" `Quick test_parse_composite_edge;
          Alcotest.test_case "UNNEST forms" `Quick test_parse_unnest;
        ] );
      ( "statements",
        [
          Alcotest.test_case "create/insert/drop" `Quick test_parse_create_insert_drop;
          Alcotest.test_case "script" `Quick test_parse_script;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error position" `Quick test_parse_error_position;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_parser_total;
          QCheck_alcotest.to_alcotest prop_parser_total_sqlish;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "query roundtrips" `Quick test_pretty_roundtrip;
          Alcotest.test_case "statement roundtrips" `Quick test_pretty_statements;
          Alcotest.test_case "quoting" `Quick test_pretty_quoting;
        ] );
    ]
