(* Statement fingerprints (DESIGN.md §14): a normalized statement text
   plus a stable 64-bit hash, grouping statements that differ only in
   constants, whitespace, comments or identifier case — the key of the
   sqlgraph_stat_statements system table.

   Normalization is AST-based when the statement parses: every literal
   and host parameter becomes [Param 0] (printed "?"), every identifier
   is lowercased (matching the catalog's case-insensitive name space),
   and the result is pretty-printed — which canonicalizes whitespace,
   keyword case and comments for free.  The pretty-printer's output
   re-parses to the same stripped AST, so normalization is idempotent.
   LIMIT/OFFSET counts are part of the statement shape (the AST stores
   them as plain integers, and a bounded and an unbounded scan really
   are different workloads).

   Text that does not parse (fingerprints are also taken for statements
   that later fail) falls back to a token-level pass: literals become
   "?", identifiers are lowercased, tokens are joined with single
   spaces.  Both passes are idempotent because "?" lexes back to a
   parameter token. *)

let lower = String.lowercase_ascii

let rec strip_expr (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Lit _ | Ast.Param _ -> Ast.Param 0
  | Ast.Col (q, c) -> Ast.Col (Option.map lower q, lower c)
  | Ast.Star q -> Ast.Star (Option.map lower q)
  | Ast.Bin (op, a, b) -> Ast.Bin (op, strip_expr a, strip_expr b)
  | Ast.Un (op, a) -> Ast.Un (op, strip_expr a)
  | Ast.Cast (a, ty) -> Ast.Cast (strip_expr a, lower ty)
  | Ast.Case (arms, default) ->
    Ast.Case
      ( List.map (fun (c, v) -> (strip_expr c, strip_expr v)) arms,
        Option.map strip_expr default )
  | Ast.Func (name, args) -> Ast.Func (lower name, List.map strip_expr args)
  | Ast.Agg_distinct (name, arg) -> Ast.Agg_distinct (lower name, strip_expr arg)
  | Ast.Is_null { negated; arg } -> Ast.Is_null { negated; arg = strip_expr arg }
  | Ast.Between { arg; lo; hi; negated } ->
    Ast.Between
      { arg = strip_expr arg; lo = strip_expr lo; hi = strip_expr hi; negated }
  | Ast.In_list { arg; candidates; negated } ->
    Ast.In_list
      {
        arg = strip_expr arg;
        candidates = List.map strip_expr candidates;
        negated;
      }
  | Ast.In_query { arg; query; negated } ->
    Ast.In_query { arg = strip_expr arg; query = strip_query query; negated }
  | Ast.Like { arg; pattern; negated } ->
    Ast.Like { arg = strip_expr arg; pattern = strip_expr pattern; negated }
  | Ast.Exists q -> Ast.Exists (strip_query q)
  | Ast.Scalar_subquery q -> Ast.Scalar_subquery (strip_query q)
  | Ast.Reaches r ->
    Ast.Reaches
      {
        src = strip_expr r.src;
        dst = strip_expr r.dst;
        edge =
          (match r.edge with
          | Ast.Ref_table t -> Ast.Ref_table (lower t)
          | Ast.Ref_subquery q -> Ast.Ref_subquery (strip_query q));
        edge_alias = Option.map lower r.edge_alias;
        src_cols = List.map lower r.src_cols;
        dst_cols = List.map lower r.dst_cols;
      }
  | Ast.Cheapest_sum { binding; weight } ->
    Ast.Cheapest_sum
      { binding = Option.map lower binding; weight = strip_expr weight }
  | Ast.Row es -> Ast.Row (List.map strip_expr es)

and strip_select_item = function
  | Ast.Sel_star q -> Ast.Sel_star (Option.map lower q)
  | Ast.Sel_expr (e, alias) ->
    let alias =
      match alias with
      | Ast.Alias_none -> Ast.Alias_none
      | Ast.Alias_name a -> Ast.Alias_name (lower a)
      | Ast.Alias_pair (a, b) -> Ast.Alias_pair (lower a, lower b)
    in
    Ast.Sel_expr (strip_expr e, alias)

and strip_from_item = function
  | Ast.From_table (t, a) -> Ast.From_table (lower t, Option.map lower a)
  | Ast.From_subquery (q, a) -> Ast.From_subquery (strip_query q, lower a)
  | Ast.From_unnest { arg; ordinality; alias; left_outer } ->
    Ast.From_unnest
      {
        arg = strip_expr arg;
        ordinality;
        alias = Option.map lower alias;
        left_outer;
      }
  | Ast.From_join (l, kind, r, cond) ->
    Ast.From_join
      (strip_from_item l, kind, strip_from_item r, Option.map strip_expr cond)

and strip_query (q : Ast.query) : Ast.query =
  {
    ctes =
      List.map
        (fun (c : Ast.cte) ->
          {
            Ast.cte_name = lower c.Ast.cte_name;
            cte_cols = Option.map (List.map lower) c.Ast.cte_cols;
            cte_query = strip_query c.Ast.cte_query;
            cte_recursive = c.Ast.cte_recursive;
          })
        q.ctes;
    distinct = q.distinct;
    items = List.map strip_select_item q.items;
    from = List.map strip_from_item q.from;
    where = Option.map strip_expr q.where;
    group_by = List.map strip_expr q.group_by;
    having = Option.map strip_expr q.having;
    setops = List.map (fun (op, b) -> (op, strip_query b)) q.setops;
    order_by = List.map (fun (e, d) -> (strip_expr e, d)) q.order_by;
    limit = q.limit;
    offset = q.offset;
  }

let strip_stmt (s : Ast.stmt) : Ast.stmt =
  match s with
  | Ast.Select q -> Ast.Select (strip_query q)
  | Ast.Explain { query; analyze } ->
    Ast.Explain { query = strip_query query; analyze }
  | Ast.Create_table (name, defs) ->
    Ast.Create_table
      ( lower name,
        List.map
          (fun (d : Ast.column_def) ->
            {
              Ast.col_name = lower d.Ast.col_name;
              col_type = lower d.Ast.col_type;
            })
          defs )
  | Ast.Create_table_as (name, q) -> Ast.Create_table_as (lower name, strip_query q)
  | Ast.Drop_table name -> Ast.Drop_table (lower name)
  | Ast.Insert { table; columns; source } ->
    Ast.Insert
      {
        table = lower table;
        columns = Option.map (List.map lower) columns;
        source =
          (match source with
          | Ast.Insert_values rows ->
            (* one parameter row stands for any number of them: a bulk
               INSERT of 1 or 1000 VALUES tuples is the same shape *)
            let arity = match rows with [] -> 0 | r :: _ -> List.length r in
            Ast.Insert_values [ List.init arity (fun _ -> Ast.Param 0) ]
          | Ast.Insert_query q -> Ast.Insert_query (strip_query q));
      }
  | Ast.Update { table; assignments; where } ->
    Ast.Update
      {
        table = lower table;
        assignments =
          List.map (fun (c, e) -> (lower c, strip_expr e)) assignments;
        where = Option.map strip_expr where;
      }
  | Ast.Delete { table; where } ->
    Ast.Delete { table = lower table; where = Option.map strip_expr where }
  | Ast.Set_option _ | Ast.Begin_txn | Ast.Commit_txn | Ast.Rollback_txn -> s

(* Token-level fallback for text the parser rejects. *)
let normalize_tokens src =
  let render (tok : Token.t) =
    match tok with
    | Token.INT _ | Token.FLOAT _ | Token.STRING _ | Token.PARAM -> Some "?"
    | Token.IDENT s -> Some (lower s)
    | Token.QIDENT s ->
      Some ("\"" ^ String.concat "\"\"" (String.split_on_char '"' (lower s)) ^ "\"")
    | Token.EOF -> None
    | t -> Some (Token.to_string t)
  in
  let toks =
    List.filter_map (fun (p : Lexer.positioned) -> render p.Lexer.tok) (Lexer.tokenize src)
  in
  (* trailing ';'s are framing, not shape; dropping only the last would
     leave one that the next normalization drops *)
  let rec drop_semis = function ";" :: rest -> drop_semis rest | l -> l in
  let toks = List.rev (drop_semis (List.rev toks)) in
  String.concat " " toks

(* Last resort for text that does not even lex: collapse whitespace and
   case so at least spacing/comment-free variants still collide. Line
   breaks stay: a "--" comment ends at one, and joining lines would turn
   the next line into comment text, so the result would lex and
   normalizing it again would give something else. *)
let normalize_raw src =
  String.trim src |> lower
  |> String.map (fun c -> match c with '\t' | '\r' -> ' ' | c -> c)

let normalize sql =
  match Parser.parse_stmt sql with
  | stmt -> Pretty.stmt_to_string (strip_stmt stmt)
  | exception _ -> (
    match normalize_tokens sql with
    | s -> s
    | exception _ -> normalize_raw sql)

(* FNV-1a, 64-bit: stable across runs and platforms (no Hashtbl.hash). *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let hash_text s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let of_sql sql =
  let norm = normalize sql in
  (hash_text norm, norm)

let hash sql = fst (of_sql sql)
let to_hex h = Printf.sprintf "%016Lx" h
