(* Differential testing: random queries through the whole pipeline
   (pretty-print -> lex -> parse -> bind -> rewrite -> execute) checked
   against an independent reference evaluator written directly over the
   row values. Any disagreement is a bug in one of the layers.

   The generators produce only total expressions (no division, no failing
   casts), so both sides must succeed and agree exactly. *)

module A = Sql.Ast
module V = Storage.Value

(* ------------------------------------------------------------------ *)
(* The fixture table                                                   *)
(* ------------------------------------------------------------------ *)

(* t (a INTEGER, b INTEGER, s VARCHAR) with NULLs sprinkled in. *)
type row = { a : V.t; b : V.t; s : V.t }

let gen_cell_int =
  QCheck.Gen.(
    frequency
      [ (1, return V.Null); (6, map (fun i -> V.Int i) (int_range (-20) 20)) ])

let gen_cell_str =
  QCheck.Gen.(
    frequency
      [
        (1, return V.Null);
        ( 6,
          map
            (fun i -> V.Str (List.nth [ "ab"; "cd"; "abc"; ""; "xyz"; "aX" ] i))
          (int_range 0 5) );
      ])

let gen_row =
  QCheck.Gen.(
    map3 (fun a b s -> { a; b; s }) gen_cell_int gen_cell_int gen_cell_str)

let gen_rows = QCheck.Gen.(list_size (int_range 0 25) gen_row)

let load_rows rows =
  let db = Sqlgraph.Db.create () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE t (a INTEGER, b INTEGER, s VARCHAR)");
  let table =
    Storage.Table.of_rows
      (Storage.Schema.of_pairs
         [
           ("a", Storage.Dtype.TInt); ("b", Storage.Dtype.TInt);
           ("s", Storage.Dtype.TStr);
         ])
      (List.map (fun r -> [ r.a; r.b; r.s ]) rows)
  in
  Sqlgraph.Db.load_table db ~name:"t" table;
  db

(* ------------------------------------------------------------------ *)
(* Typed random expression ASTs                                        *)
(* ------------------------------------------------------------------ *)

let lit_int i = A.Lit (A.L_int i)

let rec gen_int_expr depth =
  let open QCheck.Gen in
  if depth = 0 then
    frequency
      [
        (3, map lit_int (int_range (-9) 9));
        (2, return (A.Col (None, "a")));
        (2, return (A.Col (None, "b")));
      ]
  else
    frequency
      [
        (2, gen_int_expr 0);
        ( 2,
          map2
            (fun op (x, y) -> A.Bin (op, x, y))
            (oneofl [ A.Add; A.Sub; A.Mul ])
            (pair (gen_int_expr (depth - 1)) (gen_int_expr (depth - 1))) );
        ( 1,
          (* fold negation of literals: "-5" and "- (5)" are one literal
             after parsing, so keep the canonical form *)
          map
            (fun x ->
              match x with
              | A.Lit (A.L_int i) -> A.Lit (A.L_int (-i))
              | x -> A.Un (A.Neg, x))
            (gen_int_expr (depth - 1)) );
        (1, map (fun x -> A.Func ("ABS", [ x ])) (gen_int_expr (depth - 1)));
        ( 1,
          map3
            (fun c x y -> A.Case ([ (c, x) ], Some y))
            (gen_bool_expr (depth - 1))
            (gen_int_expr (depth - 1))
            (gen_int_expr (depth - 1)) );
        ( 1,
          map2
            (fun x y -> A.Func ("COALESCE", [ x; y ]))
            (gen_int_expr (depth - 1))
            (gen_int_expr (depth - 1)) );
      ]

and gen_str_expr depth =
  let open QCheck.Gen in
  if depth = 0 then
    frequency
      [
        (2, return (A.Col (None, "s")));
        (2, map (fun w -> A.Lit (A.L_string w)) (oneofl [ "ab"; "a"; ""; "zz" ]));
      ]
  else
    frequency
      [
        (3, gen_str_expr 0);
        ( 1,
          map2
            (fun x y -> A.Bin (A.Concat, x, y))
            (gen_str_expr (depth - 1))
            (gen_str_expr (depth - 1)) );
        (1, map (fun x -> A.Func ("UPPER", [ x ])) (gen_str_expr (depth - 1)));
        (1, map (fun x -> A.Func ("LOWER", [ x ])) (gen_str_expr (depth - 1)));
        ( 1,
          map2
            (fun x (start, len) ->
              A.Func ("SUBSTR", [ x; lit_int start; lit_int len ]))
            (gen_str_expr (depth - 1))
            (pair (int_range 1 4) (int_range 0 3)) );
      ]

and gen_bool_expr depth =
  let open QCheck.Gen in
  if depth = 0 then
    map2
      (fun op (x, y) -> A.Bin (op, x, y))
      (oneofl [ A.Eq; A.Neq; A.Lt; A.Le; A.Gt; A.Ge ])
      (pair (gen_int_expr 0) (gen_int_expr 0))
  else
    frequency
      [
        (3, gen_bool_expr 0);
        ( 2,
          map2
            (fun op (x, y) -> A.Bin (op, x, y))
            (oneofl [ A.And; A.Or ])
            (pair (gen_bool_expr (depth - 1)) (gen_bool_expr (depth - 1))) );
        (1, map (fun x -> A.Un (A.Not, x)) (gen_bool_expr (depth - 1)));
        ( 1,
          map2
            (fun x negated -> A.Is_null { negated; arg = x })
            (gen_int_expr (depth - 1))
            bool );
        ( 1,
          map3
            (fun x lo hi ->
              A.Between { arg = x; lo = lit_int lo; hi = lit_int hi; negated = false })
            (gen_int_expr (depth - 1))
            (int_range (-9) 9) (int_range (-9) 9) );
        ( 1,
          map2
            (fun x cands ->
              A.In_list
                { arg = x; candidates = List.map lit_int cands; negated = false })
            (gen_int_expr (depth - 1))
            (list_size (int_range 1 4) (int_range (-9) 9)) );
        ( 1,
          map2
            (fun x pat ->
              A.Like { arg = x; pattern = A.Lit (A.L_string pat); negated = false })
            (gen_str_expr (depth - 1))
            (oneofl [ "a%"; "%b"; "_b%"; "%"; "ab" ]) );
      ]

(* ------------------------------------------------------------------ *)
(* Reference evaluator (independent semantics)                         *)
(* ------------------------------------------------------------------ *)

exception Unsupported

let ref_int = function V.Int i -> Some i | V.Null -> None | _ -> raise Unsupported
let ref_str = function V.Str s -> Some s | V.Null -> None | _ -> raise Unsupported

let rec ref_eval (row : row) (e : A.expr) : V.t =
  match e with
  | A.Lit (A.L_int i) -> V.Int i
  | A.Lit (A.L_string s) -> V.Str s
  | A.Lit A.L_null -> V.Null
  | A.Lit (A.L_bool b) -> V.Bool b
  | A.Col (_, "a") -> row.a
  | A.Col (_, "b") -> row.b
  | A.Col (_, "s") -> row.s
  | A.Bin ((A.Add | A.Sub | A.Mul) as op, x, y) -> (
    match ref_int (ref_eval row x), ref_int (ref_eval row y) with
    | Some i, Some j ->
      V.Int
        (match op with
        | A.Add -> i + j
        | A.Sub -> i - j
        | _ -> i * j)
    | _ -> V.Null)
  | A.Bin (A.Concat, x, y) -> (
    match ref_eval row x, ref_eval row y with
    | V.Null, _ | _, V.Null -> V.Null
    | vx, vy ->
      let show = function
        | V.Str s -> s
        | V.Int i -> string_of_int i
        | _ -> raise Unsupported
      in
      V.Str (show vx ^ show vy))
  | A.Bin ((A.Eq | A.Neq | A.Lt | A.Le | A.Gt | A.Ge) as op, x, y) -> (
    match ref_eval row x, ref_eval row y with
    | V.Null, _ | _, V.Null -> V.Null
    | V.Int i, V.Int j ->
      let c = compare i j in
      V.Bool
        (match op with
        | A.Eq -> c = 0
        | A.Neq -> c <> 0
        | A.Lt -> c < 0
        | A.Le -> c <= 0
        | A.Gt -> c > 0
        | _ -> c >= 0)
    | V.Str x, V.Str y ->
      let c = compare x y in
      V.Bool
        (match op with
        | A.Eq -> c = 0
        | A.Neq -> c <> 0
        | A.Lt -> c < 0
        | A.Le -> c <= 0
        | A.Gt -> c > 0
        | _ -> c >= 0)
    | _ -> raise Unsupported)
  | A.Bin (A.And, x, y) -> (
    match ref_eval row x, ref_eval row y with
    | V.Bool false, _ | _, V.Bool false -> V.Bool false
    | V.Bool true, V.Bool true -> V.Bool true
    | _ -> V.Null)
  | A.Bin (A.Or, x, y) -> (
    match ref_eval row x, ref_eval row y with
    | V.Bool true, _ | _, V.Bool true -> V.Bool true
    | V.Bool false, V.Bool false -> V.Bool false
    | _ -> V.Null)
  | A.Un (A.Neg, x) -> (
    match ref_int (ref_eval row x) with Some i -> V.Int (-i) | None -> V.Null)
  | A.Un (A.Not, x) -> (
    match ref_eval row x with
    | V.Bool b -> V.Bool (not b)
    | _ -> V.Null)
  | A.Func ("ABS", [ x ]) -> (
    match ref_int (ref_eval row x) with Some i -> V.Int (abs i) | None -> V.Null)
  | A.Func ("COALESCE", args) -> (
    match List.find_opt (fun a -> ref_eval row a <> V.Null) args with
    | Some a -> ref_eval row a
    | None -> V.Null)
  | A.Func ("UPPER", [ x ]) -> (
    match ref_str (ref_eval row x) with
    | Some s -> V.Str (String.uppercase_ascii s)
    | None -> V.Null)
  | A.Func ("LOWER", [ x ]) -> (
    match ref_str (ref_eval row x) with
    | Some s -> V.Str (String.lowercase_ascii s)
    | None -> V.Null)
  | A.Func ("SUBSTR", [ x; A.Lit (A.L_int start); A.Lit (A.L_int len) ]) -> (
    match ref_str (ref_eval row x) with
    | None -> V.Null
    | Some s ->
      let n = String.length s in
      let i = max 0 (start - 1) in
      let l = max 0 (min len (n - i)) in
      V.Str (if i >= n then "" else String.sub s i l))
  | A.Case ([ (c, x) ], Some y) -> (
    match ref_eval row c with
    | V.Bool true -> ref_eval row x
    | _ -> ref_eval row y)
  | A.Is_null { negated; arg } ->
    let isnull = ref_eval row arg = V.Null in
    V.Bool (if negated then not isnull else isnull)
  | A.Between { arg; lo; hi; negated = false } ->
    ref_eval row
      (A.Bin (A.And, A.Bin (A.Ge, arg, lo), A.Bin (A.Le, arg, hi)))
  | A.In_list { arg; candidates; negated = false } -> (
    match ref_eval row arg with
    | V.Null -> V.Null
    | v ->
      if List.exists (fun c -> ref_eval row c = v) candidates then V.Bool true
      else if List.exists (fun c -> ref_eval row c = V.Null) candidates then
        V.Null
      else V.Bool false)
  | A.Like { arg; pattern = A.Lit (A.L_string pat); negated = false } -> (
    match ref_str (ref_eval row arg) with
    | None -> V.Null
    | Some s ->
      (* naive backtracking matcher, written independently *)
      let np = String.length pat and ns = String.length s in
      let rec m pi si =
        if pi = np then si = ns
        else
          match pat.[pi] with
          | '%' ->
            let rec try_skip k = k <= ns && (m (pi + 1) k || try_skip (k + 1)) in
            try_skip si
          | '_' -> si < ns && m (pi + 1) (si + 1)
          | c -> si < ns && s.[si] = c && m (pi + 1) (si + 1)
      in
      V.Bool (m 0 0))
  | _ -> raise Unsupported

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let run_query db sql =
  match Sqlgraph.Db.query db sql with
  | Ok r -> Sqlgraph.Resultset.rows r
  | Error e -> Alcotest.failf "engine failed on %s: %s" sql (Sqlgraph.Error.to_string e)

(* SELECT <int-expr> AS x FROM t  ==  reference map *)
let prop_projection_matches =
  let gen = QCheck.Gen.pair gen_rows (gen_int_expr 3) in
  QCheck.Test.make ~name:"differential: projection of random int expressions"
    ~count:200 (QCheck.make gen)
    (fun (rows, expr) ->
      let db = load_rows rows in
      let sql =
        Printf.sprintf "SELECT %s AS x FROM t" (Sql.Pretty.expr_to_string expr)
      in
      let got = run_query db sql in
      let expected = List.map (fun r -> [ ref_eval r expr ]) rows in
      got = expected)

(* SELECT a, b, s FROM t WHERE <bool-expr>  ==  reference filter *)
let prop_filter_matches =
  let gen = QCheck.Gen.pair gen_rows (gen_bool_expr 3) in
  QCheck.Test.make ~name:"differential: filtering by random predicates"
    ~count:200 (QCheck.make gen)
    (fun (rows, pred) ->
      let db = load_rows rows in
      let sql =
        Printf.sprintf "SELECT a, b, s FROM t WHERE %s"
          (Sql.Pretty.expr_to_string pred)
      in
      let got = run_query db sql in
      let expected =
        rows
        |> List.filter (fun r -> ref_eval r pred = V.Bool true)
        |> List.map (fun r -> [ r.a; r.b; r.s ])
      in
      got = expected)

(* string expressions through the pipeline *)
let prop_string_expressions_match =
  let gen = QCheck.Gen.pair gen_rows (gen_str_expr 3) in
  QCheck.Test.make ~name:"differential: random string expressions" ~count:200
    (QCheck.make gen)
    (fun (rows, expr) ->
      let db = load_rows rows in
      let sql =
        Printf.sprintf "SELECT %s AS x FROM t" (Sql.Pretty.expr_to_string expr)
      in
      run_query db sql = List.map (fun r -> [ ref_eval r expr ]) rows)

(* aggregates vs a fold over the reference values *)
let prop_aggregates_match =
  let gen = QCheck.Gen.pair gen_rows (gen_int_expr 2) in
  QCheck.Test.make ~name:"differential: SUM/COUNT/MIN/MAX of random expressions"
    ~count:200 (QCheck.make gen)
    (fun (rows, expr) ->
      let db = load_rows rows in
      let etext = Sql.Pretty.expr_to_string expr in
      let sql =
        Printf.sprintf
          "SELECT COUNT(%s), SUM(%s), MIN(%s), MAX(%s), COUNT(*) FROM t" etext
          etext etext etext
      in
      let got = run_query db sql in
      let vals =
        List.filter_map
          (fun r -> match ref_eval r expr with V.Int i -> Some i | _ -> None)
          rows
      in
      let count = List.length vals in
      let expected =
        [
          [
            V.Int count;
            (if count = 0 then V.Null else V.Int (List.fold_left ( + ) 0 vals));
            (if count = 0 then V.Null
             else V.Int (List.fold_left min max_int vals));
            (if count = 0 then V.Null
             else V.Int (List.fold_left max min_int vals));
            V.Int (List.length rows);
          ];
        ]
      in
      got = expected)

(* ORDER BY over a random key is stably sorted *)
let prop_order_by_sorted =
  let gen = QCheck.Gen.pair gen_rows (gen_int_expr 2) in
  QCheck.Test.make ~name:"differential: ORDER BY random key sorts correctly"
    ~count:200 (QCheck.make gen)
    (fun (rows, expr) ->
      (* a bare integer literal would be read as an ORDER BY position *)
      let expr =
        match expr with
        | A.Lit (A.L_int _) -> A.Bin (A.Add, lit_int 0, expr)
        | _ -> expr
      in
      let db = load_rows rows in
      let etext = Sql.Pretty.expr_to_string expr in
      let sql = Printf.sprintf "SELECT a, b, s FROM t ORDER BY %s" etext in
      let got = run_query db sql in
      let keyed =
        List.map (fun r -> (ref_eval r expr, [ r.a; r.b; r.s ])) rows
      in
      let expected =
        List.stable_sort (fun (k1, _) (k2, _) -> V.compare k1 k2) keyed
        |> List.map snd
      in
      got = expected)

(* UNION ALL == concatenation; UNION == dedup *)
let prop_set_ops_match =
  let gen = QCheck.Gen.pair gen_rows (gen_bool_expr 2) in
  QCheck.Test.make ~name:"differential: UNION [ALL] against a list model"
    ~count:200 (QCheck.make gen)
    (fun (rows, pred) ->
      let db = load_rows rows in
      let ptext = Sql.Pretty.expr_to_string pred in
      let matching =
        rows
        |> List.filter (fun r -> ref_eval r pred = V.Bool true)
        |> List.map (fun r -> [ r.a ])
      in
      let all_rows = List.map (fun r -> [ r.a ]) rows in
      let got_all =
        run_query db
          (Printf.sprintf "SELECT a FROM t UNION ALL SELECT a FROM t WHERE %s" ptext)
      in
      let got_distinct =
        run_query db
          (Printf.sprintf "SELECT a FROM t UNION SELECT a FROM t WHERE %s" ptext)
      in
      let dedup l =
        List.rev
          (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l)
      in
      got_all = all_rows @ matching && got_distinct = dedup all_rows)

(* the rewriter must never change results: run the same query with every
   optimisation enabled and with everything disabled *)
let no_optimizations =
  {
    Relalg.Rewriter.fold_constants = false;
    push_filters = false;
    form_graph_joins = false;
    merge_filter_into_join = false;
  }

(* qualify every bare column so the predicate is unambiguous in the
   self-join *)
let rec qualify alias e =
  match e with
  | A.Col (None, c) -> A.Col (Some alias, c)
  | A.Lit _ | A.Col (Some _, _) -> e
  | A.Bin (op, x, y) -> A.Bin (op, qualify alias x, qualify alias y)
  | A.Un (op, x) -> A.Un (op, qualify alias x)
  | A.Func (n, args) -> A.Func (n, List.map (qualify alias) args)
  | A.Case (arms, d) ->
    A.Case
      ( List.map (fun (c, v) -> (qualify alias c, qualify alias v)) arms,
        Option.map (qualify alias) d )
  | A.Is_null { negated; arg } -> A.Is_null { negated; arg = qualify alias arg }
  | A.Between b ->
    A.Between
      {
        b with
        arg = qualify alias b.arg;
        lo = qualify alias b.lo;
        hi = qualify alias b.hi;
      }
  | A.In_list i ->
    A.In_list
      {
        i with
        arg = qualify alias i.arg;
        candidates = List.map (qualify alias) i.candidates;
      }
  | A.Like l ->
    A.Like
      { l with arg = qualify alias l.arg; pattern = qualify alias l.pattern }
  | other -> other

let prop_rewriter_preserves_semantics =
  let gen = QCheck.Gen.pair gen_rows (gen_bool_expr 3) in
  QCheck.Test.make ~name:"differential: rewriter on = rewriter off" ~count:200
    (QCheck.make gen)
    (fun (rows, pred) ->
      let db = load_rows rows in
      let pred = qualify "t1" pred in
      let sql =
        Printf.sprintf
          "SELECT t1.a, t2.b FROM t t1, t t2 WHERE t1.a = t2.a AND %s"
          (Sql.Pretty.expr_to_string pred)
      in
      let run optimize =
        match Sqlgraph.Db.query db ?optimize sql with
        | Ok r -> Sqlgraph.Resultset.rows r
        | Error e ->
          Alcotest.failf "failed on %s: %s" sql (Sqlgraph.Error.to_string e)
      in
      (* row multiset equality: pushdown may reorder join output *)
      let sort = List.sort compare in
      sort (run None) = sort (run (Some no_optimizations)))

(* parse (print e) must reproduce e exactly for every generated AST *)
let prop_pretty_parse_roundtrip =
  let gen =
    QCheck.Gen.oneof [ gen_bool_expr 4; gen_int_expr 4; gen_str_expr 4 ]
  in
  QCheck.Test.make ~name:"pretty/parse roundtrip on random expression ASTs"
    ~count:500 (QCheck.make gen)
    (fun e ->
      let printed = Sql.Pretty.expr_to_string e in
      match Sql.Parser.parse_expr printed with
      | e2 -> e = e2
      | exception Sql.Parser.Parse_error (m, _, _) ->
        QCheck.Test.fail_reportf "reparse of %s failed: %s" printed m)

(* CSV roundtrip over random typed tables *)
let prop_csv_roundtrip =
  QCheck.Test.make ~name:"csv: save/parse roundtrip on random tables"
    ~count:200 (QCheck.make gen_rows)
    (fun rws ->
      let db = load_rows rws in
      let rs =
        match Sqlgraph.Db.query db "SELECT a, b, s FROM t" with
        | Ok r -> r
        | Error e -> Alcotest.failf "%s" (Sqlgraph.Error.to_string e)
      in
      let csv = Sqlgraph.Resultset.to_csv rs in
      let schema =
        Storage.Schema.of_pairs
          [
            ("a", Storage.Dtype.TInt); ("b", Storage.Dtype.TInt);
            ("s", Storage.Dtype.TStr);
          ]
      in
      let reloaded = Sqlgraph.Csv.table_of_string ~schema csv in
      (* one known lossy case: the empty string round-trips as NULL *)
      let normalise v =
        match v with V.Str "" -> V.Null | other -> other
      in
      let expected =
        List.map (fun r -> List.map normalise [ r.a; r.b; r.s ]) rws
      in
      Storage.Table.to_rows reloaded = expected)

(* the column-at-a-time evaluator must agree cell-for-cell with the
   row-at-a-time one whenever it claims an expression *)
let prop_vectorized_matches_scalar =
  let gen =
    QCheck.Gen.pair gen_rows
      (QCheck.Gen.oneof [ gen_int_expr 4; gen_bool_expr 4 ])
  in
  QCheck.Test.make ~name:"vectorized = row-at-a-time evaluation" ~count:300
    (QCheck.make gen)
    (fun (rws, e) ->
      let db = load_rows rws in
      let table =
        Option.get (Storage.Catalog.find (Sqlgraph.Db.catalog db) "t")
      in
      let bound =
        Relalg.Binder.bind_over_table
          ~catalog:(Sqlgraph.Db.catalog db)
          ~params:[||]
          ~schema:(Storage.Table.schema table)
          e
      in
      match Executor.Vectorized.eval_column table bound with
      | None -> true (* outside the vectorizable subset: nothing to check *)
      | Some fast ->
        let slow =
          Executor.Eval.eval_column
            ~run_subplan:(fun _ -> Alcotest.fail "unexpected subquery")
            table bound
        in
        Storage.Column.equal fast slow)

(* CAST between INTEGER and FLOAT, vectorized: float -> int truncates
   toward zero, int -> float widens, NULL propagates — over columns with
   NULLs, negative fractions and magnitudes far past the small-int range.
   Every expression here is in the vectorizable subset, so a [None] from
   the fast path is itself a failure. *)
let gen_cast_row =
  let open QCheck.Gen in
  pair
    (frequency
       [
         (1, return V.Null);
         (3, map (fun i -> V.Int i) (int_range (-1000) 1000));
         (2, map (fun i -> V.Int (i * 4_000_000_000)) (int_range (-1_000_000) 1_000_000));
       ])
    (frequency
       [
         (1, return V.Null);
         (3, map (fun f -> V.Float f) (float_range (-1.) 1.));
         (3, map (fun f -> V.Float f) (float_range (-1000.) 1000.));
         (2, map (fun f -> V.Float f) (float_range (-1e15) 1e15));
         (1, map (fun i -> V.Float (float_of_int i)) (int_range (-9) 9));
       ])

let cast_exprs =
  [
    "CAST(f AS INTEGER)"; "CAST(i AS FLOAT)"; "CAST(f * 100 AS INTEGER)";
    "CAST(i AS FLOAT) * f"; "CAST(CAST(f AS INTEGER) AS FLOAT)";
    "CAST(i AS INTEGER) - 3"; "CAST(f + i AS INTEGER)";
    "CAST(CAST(i AS FLOAT) * 0.5 AS INTEGER)"; "CAST(f AS FLOAT) + 1";
  ]

let prop_vectorized_cast_matches_scalar =
  QCheck.Test.make ~name:"vectorized CAST INTEGER/FLOAT = row-at-a-time"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair (list_size (int_range 0 40) gen_cast_row) (oneofl cast_exprs)))
    (fun (rws, sql) ->
      let table =
        Storage.Table.of_rows
          (Storage.Schema.of_pairs
             [ ("i", Storage.Dtype.TInt); ("f", Storage.Dtype.TFloat) ])
          (List.map (fun (i, f) -> [ i; f ]) rws)
      in
      let bound =
        Relalg.Binder.bind_over_table ~catalog:(Storage.Catalog.create ())
          ~params:[||] ~schema:(Storage.Table.schema table)
          (Sql.Parser.parse_expr sql)
      in
      match Executor.Vectorized.eval_column table bound with
      | None -> QCheck.Test.fail_reportf "%s was not vectorized" sql
      | Some fast ->
        Storage.Column.equal fast
          (Executor.Eval.eval_column
             ~run_subplan:(fun _ -> Alcotest.fail "unexpected subquery")
             table bound))

let () =
  Alcotest.run "differential"
    [
      ( "engine-vs-reference",
        [
          QCheck_alcotest.to_alcotest prop_projection_matches;
          QCheck_alcotest.to_alcotest prop_filter_matches;
          QCheck_alcotest.to_alcotest prop_string_expressions_match;
          QCheck_alcotest.to_alcotest prop_aggregates_match;
          QCheck_alcotest.to_alcotest prop_order_by_sorted;
          QCheck_alcotest.to_alcotest prop_set_ops_match;
        ] );
      ( "optimizer",
        [ QCheck_alcotest.to_alcotest prop_rewriter_preserves_semantics ] );
      ( "roundtrips",
        [
          QCheck_alcotest.to_alcotest prop_pretty_parse_roundtrip;
          QCheck_alcotest.to_alcotest prop_csv_roundtrip;
        ] );
      ( "vectorized",
        [
          QCheck_alcotest.to_alcotest prop_vectorized_matches_scalar;
          QCheck_alcotest.to_alcotest prop_vectorized_cast_matches_scalar;
        ] );
    ]
