(* Binder, scalar semantics, constant folding and rewriter tests. *)

module L = Relalg.Lplan
module V = Storage.Value
module D = Storage.Dtype

open Testjson.Support

(* A small catalog shared by the binder tests. *)
let fixture_catalog () =
  let cat = Storage.Catalog.create () in
  let persons =
    Storage.Table.create
      (Storage.Schema.of_pairs
         [ ("id", D.TInt); ("firstName", D.TStr); ("lastName", D.TStr) ])
  in
  let friends =
    Storage.Table.create
      (Storage.Schema.of_pairs
         [
           ("src", D.TInt); ("dst", D.TInt); ("creationDate", D.TDate);
           ("weight", D.TFloat);
         ])
  in
  Storage.Catalog.add cat "persons" persons;
  Storage.Catalog.add cat "friends" friends;
  cat

let bind ?(params = [||]) sql =
  Relalg.Binder.bind_query ~catalog:(fixture_catalog ()) ~params
    (Sql.Parser.parse_query sql)

let bind_fails ?(params = [||]) sql =
  match bind ~params sql with
  | exception Relalg.Binder.Bind_error _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Scalar semantics                                                    *)
(* ------------------------------------------------------------------ *)

module S = Relalg.Scalar

let test_scalar_arith () =
  check tbool "int add" true (V.equal (S.apply_bin Sql.Ast.Add (V.Int 2) (V.Int 3)) (V.Int 5));
  check tbool "mixed mul" true
    (V.equal (S.apply_bin Sql.Ast.Mul (V.Int 2) (V.Float 1.5)) (V.Float 3.));
  check tbool "int div truncates" true
    (V.equal (S.apply_bin Sql.Ast.Div (V.Int 7) (V.Int 2)) (V.Int 3));
  check tbool "mod" true (V.equal (S.apply_bin Sql.Ast.Mod (V.Int 7) (V.Int 3)) (V.Int 1));
  check tbool "null propagates" true
    (V.is_null (S.apply_bin Sql.Ast.Add V.Null (V.Int 1)));
  Alcotest.check_raises "div by zero" (S.Runtime_error "division by zero")
    (fun () -> ignore (S.apply_bin Sql.Ast.Div (V.Int 1) (V.Int 0)))

let test_scalar_dates () =
  let d = Storage.Date.of_ymd ~year:2010 ~month:3 ~day:24 in
  check tbool "date + int" true
    (V.equal (S.apply_bin Sql.Ast.Add (V.Date d) (V.Int 7)) (V.Date (d + 7)));
  check tbool "date - date" true
    (V.equal (S.apply_bin Sql.Ast.Sub (V.Date (d + 10)) (V.Date d)) (V.Int 10));
  check tbool "date comparison" true
    (V.equal (S.apply_bin Sql.Ast.Lt (V.Date d) (V.Date (d + 1))) (V.Bool true))

let test_scalar_three_valued_logic () =
  let tt = V.Bool true and ff = V.Bool false and nn = V.Null in
  let land_ = S.apply_bin Sql.Ast.And and lor_ = S.apply_bin Sql.Ast.Or in
  check tbool "F AND NULL = F" true (V.equal (land_ ff nn) ff);
  check tbool "NULL AND F = F" true (V.equal (land_ nn ff) ff);
  check tbool "T AND NULL = NULL" true (V.is_null (land_ tt nn));
  check tbool "T OR NULL = T" true (V.equal (lor_ tt nn) tt);
  check tbool "NULL OR T = T" true (V.equal (lor_ nn tt) tt);
  check tbool "F OR NULL = NULL" true (V.is_null (lor_ ff nn));
  check tbool "NULL = NULL is NULL" true
    (V.is_null (S.apply_bin Sql.Ast.Eq nn nn));
  check tbool "NOT NULL is NULL" true (V.is_null (S.apply_un Sql.Ast.Not nn))

let test_scalar_concat () =
  check tbool "str concat" true
    (V.equal (S.apply_bin Sql.Ast.Concat (V.Str "a") (V.Str "b")) (V.Str "ab"));
  check tbool "int coerces" true
    (V.equal (S.apply_bin Sql.Ast.Concat (V.Str "n=") (V.Int 3)) (V.Str "n=3"));
  check tbool "null propagates" true
    (V.is_null (S.apply_bin Sql.Ast.Concat (V.Str "a") V.Null))

let test_scalar_like () =
  let m p s = S.like_match ~pattern:p s in
  check tbool "exact" true (m "abc" "abc");
  check tbool "percent" true (m "a%" "abcdef");
  check tbool "percent middle" true (m "a%f" "abcdef");
  check tbool "underscore" true (m "a_c" "abc");
  check tbool "underscore strict" false (m "a_c" "abbc");
  check tbool "empty percent" true (m "%" "");
  check tbool "no match" false (m "b%" "abc");
  check tbool "multi percent" true (m "%b%d%" "abcd")

let test_scalar_in_list () =
  check tbool "hit" true
    (V.equal (S.in_list ~negated:false (V.Int 2) [ V.Int 1; V.Int 2 ]) (V.Bool true));
  check tbool "miss" true
    (V.equal (S.in_list ~negated:false (V.Int 9) [ V.Int 1 ]) (V.Bool false));
  check tbool "miss with null is null" true
    (V.is_null (S.in_list ~negated:false (V.Int 9) [ V.Int 1; V.Null ]));
  check tbool "hit beats null" true
    (V.equal (S.in_list ~negated:false (V.Int 1) [ V.Null; V.Int 1 ]) (V.Bool true));
  check tbool "not in hit" true
    (V.equal (S.in_list ~negated:true (V.Int 1) [ V.Int 1 ]) (V.Bool false))

let test_scalar_builtins () =
  check tbool "abs" true (V.equal (S.apply_builtin L.Abs [ V.Int (-3) ]) (V.Int 3));
  check tbool "upper" true (V.equal (S.apply_builtin L.Upper [ V.Str "ab" ]) (V.Str "AB"));
  check tbool "length" true (V.equal (S.apply_builtin L.Length [ V.Str "abc" ]) (V.Int 3));
  check tbool "coalesce" true
    (V.equal (S.apply_builtin L.Coalesce [ V.Null; V.Null; V.Int 4 ]) (V.Int 4));
  check tbool "coalesce all null" true (V.is_null (S.apply_builtin L.Coalesce [ V.Null ]))

(* ------------------------------------------------------------------ *)
(* Binder                                                              *)
(* ------------------------------------------------------------------ *)

let test_bind_projection_schema () =
  let plan = bind "SELECT id, firstName AS fn FROM persons" in
  let s = L.schema_of plan in
  check tint "arity" 2 (Relalg.Rschema.arity s);
  check tstr "name 0" "id" (Relalg.Rschema.field s 0).Relalg.Rschema.name;
  check tstr "name 1" "fn" (Relalg.Rschema.field s 1).Relalg.Rschema.name;
  check tbool "types" true
    (D.equal (Relalg.Rschema.field s 0).Relalg.Rschema.ty D.TInt)

let test_bind_star_expansion () =
  let plan = bind "SELECT * FROM persons p, friends f" in
  check tint "7 columns" 7 (Relalg.Rschema.arity (L.schema_of plan))

let test_bind_name_resolution_errors () =
  check tbool "unknown column" true (bind_fails "SELECT nope FROM persons");
  check tbool "unknown table" true (bind_fails "SELECT * FROM nope");
  check tbool "unknown alias" true (bind_fails "SELECT x.id FROM persons p");
  check tbool "ambiguous column" true
    (bind_fails "SELECT id FROM persons p1, persons p2");
  check tbool "qualified disambiguates" false
    (bind_fails "SELECT p1.id FROM persons p1, persons p2")

let test_bind_type_errors () =
  check tbool "string arith" true (bind_fails "SELECT firstName + 1 FROM persons");
  check tbool "non-bool where" true (bind_fails "SELECT id FROM persons WHERE id");
  check tbool "not on int" true (bind_fails "SELECT NOT id FROM persons");
  check tbool "incomparable" true
    (bind_fails "SELECT id FROM persons WHERE firstName = id");
  check tbool "unknown cast type" true
    (bind_fails "SELECT CAST(id AS BLOB) FROM persons");
  check tbool "unknown function" true (bind_fails "SELECT FROBNICATE(id) FROM persons")

let test_bind_param_substitution () =
  let plan = bind ~params:[| V.Int 42 |] "SELECT id FROM persons WHERE id = ?" in
  (* after binding, the parameter is a constant in the filter *)
  let rec find_const plan =
    match plan with
    | L.Filter { pred; _ } ->
      L.fold_cols (fun acc _ -> acc) false pred |> ignore;
      let rec walk (e : L.expr) =
        match e.L.node with
        | L.Const (V.Int 42) -> true
        | L.Bin (_, a, b) -> walk a || walk b
        | _ -> false
      in
      walk pred
    | L.Project { input; _ } -> find_const input
    | _ -> false
  in
  check tbool "param became const" true (find_const plan);
  check tbool "missing params error" true
    (bind_fails "SELECT id FROM persons WHERE id = ?")

let test_bind_reaches_type_checks () =
  check tbool "ok" false
    (bind_fails ~params:[| V.Int 1; V.Int 2 |]
       "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)");
  check tbool "X type mismatch" true
    (bind_fails "SELECT id FROM persons WHERE firstName REACHES id OVER friends EDGE (src, dst)");
  check tbool "S/D type mismatch" true
    (bind_fails "SELECT id FROM persons WHERE id REACHES id OVER friends EDGE (src, creationDate)");
  check tbool "unknown edge column" true
    (bind_fails "SELECT id FROM persons WHERE id REACHES id OVER friends EDGE (nope, dst)")

let test_bind_reaches_placement () =
  check tbool "under OR rejected" true
    (bind_fails
       "SELECT id FROM persons WHERE id = 1 OR id REACHES id OVER friends EDGE (src, dst)");
  check tbool "under NOT rejected" true
    (bind_fails
       "SELECT id FROM persons WHERE NOT (id REACHES id OVER friends EDGE (src, dst))");
  check tbool "in select list rejected" true
    (bind_fails "SELECT id REACHES id OVER friends EDGE (src, dst) FROM persons")

let test_bind_cheapest_rules () =
  check tbool "cheapest without reaches" true
    (bind_fails "SELECT CHEAPEST SUM(1) FROM persons");
  check tbool "cheapest in where" true
    (bind_fails "SELECT id FROM persons WHERE CHEAPEST SUM(1) > 2");
  check tbool "unknown binding" true
    (bind_fails
       "SELECT CHEAPEST SUM(zz: 1) FROM persons WHERE id REACHES id OVER friends f EDGE (src, dst)");
  check tbool "binding required with two reaches" true
    (bind_fails
       "SELECT CHEAPEST SUM(1) FROM persons \
        WHERE id REACHES id OVER friends f EDGE (src, dst) \
        AND id REACHES id OVER friends g EDGE (src, dst)");
  check tbool "bound form ok with two reaches" false
    (bind_fails
       "SELECT CHEAPEST SUM(f: 1) AS a, CHEAPEST SUM(g: 1) AS b FROM persons \
        WHERE id REACHES id OVER friends f EDGE (src, dst) \
        AND id REACHES id OVER friends g EDGE (src, dst)");
  check tbool "non-numeric weight" true
    (bind_fails
       "SELECT CHEAPEST SUM(f: creationDate) FROM persons \
        WHERE id REACHES id OVER friends f EDGE (src, dst)");
  check tbool "pair alias needs bare cheapest" true
    (bind_fails
       "SELECT CHEAPEST SUM(f: 1) + 1 AS (cost, path) FROM persons \
        WHERE id REACHES id OVER friends f EDGE (src, dst)")

let test_bind_cheapest_schema () =
  let plan =
    bind
      "SELECT id, CHEAPEST SUM(f: CAST(weight AS INTEGER)) AS (cost, path) \
       FROM persons WHERE id REACHES id OVER friends f EDGE (src, dst)"
  in
  let s = L.schema_of plan in
  check tint "arity" 3 (Relalg.Rschema.arity s);
  check tstr "cost" "cost" (Relalg.Rschema.field s 1).Relalg.Rschema.name;
  check tstr "path" "path" (Relalg.Rschema.field s 2).Relalg.Rschema.name;
  check tbool "path typed" true
    (D.equal (Relalg.Rschema.field s 2).Relalg.Rschema.ty D.TPath);
  (* the nested schema is the edge table's *)
  match (Relalg.Rschema.field s 2).Relalg.Rschema.nested with
  | Some es -> check tint "edge schema arity" 4 (Storage.Schema.arity es)
  | None -> Alcotest.fail "path column must carry the edge schema"

let test_bind_float_weight_cost_type () =
  let plan =
    bind
      "SELECT CHEAPEST SUM(f: weight) AS c FROM persons \
       WHERE id REACHES id OVER friends f EDGE (src, dst)"
  in
  let s = L.schema_of plan in
  check tbool "float cost" true
    (D.equal (Relalg.Rschema.field s 0).Relalg.Rschema.ty D.TFloat)

let test_bind_unnest_rules () =
  check tbool "non-path unnest" true
    (bind_fails "SELECT * FROM persons, UNNEST(persons.id) AS r");
  check tbool "unnest first" true (bind_fails "SELECT * FROM UNNEST(x) AS r");
  let plan =
    bind
      "SELECT R.src, R.ordinality FROM ( \
         SELECT CHEAPEST SUM(f: 1) AS (c, p) FROM persons \
         WHERE id REACHES id OVER friends f EDGE (src, dst)) T, \
       UNNEST(T.p) WITH ORDINALITY AS R"
  in
  let s = L.schema_of plan in
  check tint "two outputs" 2 (Relalg.Rschema.arity s);
  check tbool "ordinality is int" true
    (D.equal (Relalg.Rschema.field s 1).Relalg.Rschema.ty D.TInt)

let test_bind_aggregates () =
  check tbool "simple group" false
    (bind_fails "SELECT firstName, COUNT(*) FROM persons GROUP BY firstName");
  check tbool "ungrouped column" true
    (bind_fails "SELECT firstName, id FROM persons GROUP BY firstName");
  check tbool "nested aggregate" true
    (bind_fails "SELECT SUM(COUNT(*)) FROM persons");
  check tbool "having without group" true
    (bind_fails "SELECT id FROM persons HAVING id > 1");
  check tbool "global aggregate" false (bind_fails "SELECT COUNT(*) FROM persons");
  check tbool "sum needs numeric" true
    (bind_fails "SELECT SUM(firstName) FROM persons")

let test_bind_order_by () =
  check tbool "by name" false (bind_fails "SELECT id AS x FROM persons ORDER BY x");
  check tbool "by position" false (bind_fails "SELECT id FROM persons ORDER BY 1");
  check tbool "position out of range" true
    (bind_fails "SELECT id FROM persons ORDER BY 3")

let test_bind_ctes () =
  check tbool "cte" false (bind_fails "WITH w AS (SELECT id FROM persons) SELECT id FROM w");
  check tbool "cte column rename" false
    (bind_fails "WITH w (x) AS (SELECT id FROM persons) SELECT x FROM w");
  check tbool "cte arity mismatch" true
    (bind_fails "WITH w (x, y) AS (SELECT id FROM persons) SELECT x FROM w");
  check tbool "later cte sees earlier" false
    (bind_fails
       "WITH a AS (SELECT id FROM persons), b AS (SELECT id FROM a) SELECT id FROM b")

let test_bind_subqueries () =
  check tbool "scalar ok" false
    (bind_fails "SELECT (SELECT COUNT(*) FROM friends) FROM persons");
  check tbool "scalar arity" true
    (bind_fails "SELECT (SELECT src, dst FROM friends) FROM persons");
  check tbool "exists ok" false
    (bind_fails "SELECT id FROM persons WHERE EXISTS (SELECT 1 FROM friends)")

(* ------------------------------------------------------------------ *)
(* Constant folding / Const_eval                                       *)
(* ------------------------------------------------------------------ *)

let const v ty = { L.node = L.Const v; ty }

let test_const_eval () =
  let e =
    {
      L.node = L.Bin (Sql.Ast.Add, const (V.Int 1) D.TInt, const (V.Int 2) D.TInt);
      ty = D.TInt;
    }
  in
  check tbool "fold add" true (Relalg.Const_eval.eval e = Some (V.Int 3));
  let open_e = { L.node = L.Col 0; ty = D.TInt } in
  check tbool "open stays" true (Relalg.Const_eval.eval open_e = None);
  Alcotest.check_raises "eval_exn on open"
    (Invalid_argument "Const_eval.eval_exn: expression is not closed") (fun () ->
      ignore (Relalg.Const_eval.eval_exn open_e))

(* ------------------------------------------------------------------ *)
(* Rewriter                                                            *)
(* ------------------------------------------------------------------ *)

let rewrite ?options plan = Relalg.Rewriter.rewrite ?options plan

let rec plan_has_graph_join = function
  | L.Graph_join _ -> true
  | L.Graph_select { input; _ } -> plan_has_graph_join input
  | L.Filter { input; _ } | L.Sort { input; _ } | L.Limit { input; _ } ->
    plan_has_graph_join input
  | L.Project { input; _ } -> plan_has_graph_join input
  | L.Distinct p -> plan_has_graph_join p
  | L.Cross { left; right } | L.Join { left; right; _ } ->
    plan_has_graph_join left || plan_has_graph_join right
  | L.Aggregate { input; _ } -> plan_has_graph_join input
  | L.Unnest { input; _ } -> plan_has_graph_join input
  | L.Set_op { left; right; _ } ->
    plan_has_graph_join left || plan_has_graph_join right
  | L.Rec_cte { base; step; _ } ->
    plan_has_graph_join base || plan_has_graph_join step
  | L.Scan _ | L.One | L.Rec_ref _ -> false

let graph_join_query =
  "SELECT p1.id, p2.id, CHEAPEST SUM(1) AS d FROM persons p1, persons p2 \
   WHERE p1.id = 1 AND p2.id = 2 AND p1.id REACHES p2.id OVER friends EDGE (src, dst)"

let test_rewriter_forms_graph_join () =
  let plan = rewrite (bind graph_join_query) in
  check tbool "graph join formed" true (plan_has_graph_join plan)

let test_rewriter_ablation_switch () =
  let options =
    { Relalg.Rewriter.default_options with form_graph_joins = false }
  in
  let plan = rewrite ~options (bind graph_join_query) in
  check tbool "no graph join when disabled" false (plan_has_graph_join plan)

let test_rewriter_folds_constants () =
  let plan = rewrite (bind "SELECT 1 + 2 * 3 FROM persons") in
  let top_project = function
    | L.Project { items = [ (e, _) ]; _ } -> Some e
    | _ -> None
  in
  match top_project plan with
  | Some { L.node = L.Const (V.Int 7); _ } -> ()
  | _ -> Alcotest.fail "expected the projection to hold the folded constant 7"

let test_rewriter_drops_true_filter () =
  let plan = rewrite (bind "SELECT id FROM persons WHERE 1 = 1") in
  let rec has_filter = function
    | L.Filter _ -> true
    | L.Project { input; _ } -> has_filter input
    | L.Sort { input; _ } | L.Limit { input; _ } -> has_filter input
    | L.Distinct p -> has_filter p
    | _ -> false
  in
  check tbool "true filter dropped" false (has_filter plan)

let test_rewriter_pushes_filters () =
  (* after pushdown both sides of the join should carry their filter *)
  let plan =
    rewrite
      (bind
         "SELECT p1.id FROM persons p1, persons p2 WHERE p1.id = 1 AND p2.id = 2")
  in
  let rec find = function
    | L.Cross { left = L.Filter _; right = L.Filter _ }
    | L.Join { left = L.Filter _; right = L.Filter _; _ } ->
      true
    | L.Project { input; _ } | L.Filter { input; _ } -> find input
    | L.Cross { left; right } | L.Join { left; right; _ } ->
      find left || find right
    | _ -> false
  in
  check tbool "filters pushed to both sides" true (find plan)

let test_rewriter_merges_cross_filter_into_join () =
  let plan =
    rewrite (bind "SELECT p1.id FROM persons p1, persons p2 WHERE p1.id = p2.id")
  in
  let rec has_join = function
    | L.Join _ -> true
    | L.Project { input; _ } | L.Filter { input; _ } -> has_join input
    | _ -> false
  in
  check tbool "join formed" true (has_join plan)

let test_explain_output () =
  let s = Relalg.Explain.plan_to_string (rewrite (bind graph_join_query)) in
  check tbool "mentions GraphJoin" true
    (Astring.String.is_infix ~affix:"GraphJoin" s);
  check tbool "mentions Scan friends" true
    (Astring.String.is_infix ~affix:"friends" s)

let () =
  Alcotest.run "relalg"
    [
      ( "scalar",
        [
          Alcotest.test_case "arithmetic" `Quick test_scalar_arith;
          Alcotest.test_case "date arithmetic" `Quick test_scalar_dates;
          Alcotest.test_case "three-valued logic" `Quick test_scalar_three_valued_logic;
          Alcotest.test_case "concat" `Quick test_scalar_concat;
          Alcotest.test_case "like" `Quick test_scalar_like;
          Alcotest.test_case "in list" `Quick test_scalar_in_list;
          Alcotest.test_case "builtins" `Quick test_scalar_builtins;
        ] );
      ( "binder",
        [
          Alcotest.test_case "projection schema" `Quick test_bind_projection_schema;
          Alcotest.test_case "star expansion" `Quick test_bind_star_expansion;
          Alcotest.test_case "name resolution errors" `Quick test_bind_name_resolution_errors;
          Alcotest.test_case "type errors" `Quick test_bind_type_errors;
          Alcotest.test_case "parameters" `Quick test_bind_param_substitution;
          Alcotest.test_case "REACHES type checks" `Quick test_bind_reaches_type_checks;
          Alcotest.test_case "REACHES placement" `Quick test_bind_reaches_placement;
          Alcotest.test_case "CHEAPEST SUM rules" `Quick test_bind_cheapest_rules;
          Alcotest.test_case "CHEAPEST SUM schema" `Quick test_bind_cheapest_schema;
          Alcotest.test_case "float weight cost type" `Quick test_bind_float_weight_cost_type;
          Alcotest.test_case "UNNEST rules" `Quick test_bind_unnest_rules;
          Alcotest.test_case "aggregates" `Quick test_bind_aggregates;
          Alcotest.test_case "order by" `Quick test_bind_order_by;
          Alcotest.test_case "ctes" `Quick test_bind_ctes;
          Alcotest.test_case "subqueries" `Quick test_bind_subqueries;
        ] );
      ("const_eval", [ Alcotest.test_case "folding" `Quick test_const_eval ]);
      ( "rewriter",
        [
          Alcotest.test_case "forms graph join" `Quick test_rewriter_forms_graph_join;
          Alcotest.test_case "graph-join ablation switch" `Quick test_rewriter_ablation_switch;
          Alcotest.test_case "constant folding" `Quick test_rewriter_folds_constants;
          Alcotest.test_case "drops true filters" `Quick test_rewriter_drops_true_filter;
          Alcotest.test_case "filter pushdown" `Quick test_rewriter_pushes_filters;
          Alcotest.test_case "cross+filter to join" `Quick test_rewriter_merges_cross_filter_into_join;
          Alcotest.test_case "explain" `Quick test_explain_output;
        ] );
    ]
