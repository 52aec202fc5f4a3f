exception Bind_error of string

module A = Sql.Ast
module L = Lplan
module D = Storage.Dtype
module V = Storage.Value

let err fmt = Printf.ksprintf (fun s -> raise (Bind_error s)) fmt
let norm = String.lowercase_ascii

(* ------------------------------------------------------------------ *)
(* Scopes                                                              *)
(* ------------------------------------------------------------------ *)

(* A scope is an ordered list of ranges (FROM items); global column
   indices are positional across the concatenated ranges. *)
type range = { r_alias : string option; r_fields : Rschema.t }
type scope = range list

let scope_arity scope =
  List.fold_left (fun acc r -> acc + Rschema.arity r.r_fields) 0 scope

let scope_schema scope =
  Array.concat (List.map (fun r -> r.r_fields) scope)

(* Resolve a possibly-qualified column name to (global index, field). *)
let resolve_col scope qual name =
  let matches =
    let rec loop offset acc = function
      | [] -> List.rev acc
      | r :: rest ->
        let acc =
          let range_matches =
            match qual with
            | Some q -> (
              match r.r_alias with
              | Some a -> String.equal (norm a) (norm q)
              | None -> false)
            | None -> true
          in
          if range_matches then
            match Rschema.index_of r.r_fields name with
            | Some i -> (offset + i, Rschema.field r.r_fields i) :: acc
            | None -> acc
          else acc
        in
        loop (offset + Rschema.arity r.r_fields) acc rest
    in
    loop 0 [] scope
  in
  match matches, qual with
  | [ m ], _ -> m
  | [], Some q -> err "unknown column %s.%s" q name
  | [], None -> err "unknown column %s" name
  | _ :: _ :: _, Some q -> err "ambiguous column %s.%s" q name
  | _ :: _ :: _, None -> err "ambiguous column %s" name

(* ------------------------------------------------------------------ *)
(* Context                                                             *)
(* ------------------------------------------------------------------ *)

type ctx = {
  catalog : Storage.Catalog.t;
  params : V.t array;
  env : (string * L.plan) list; (* CTEs in scope *)
  outer_scope : scope;
      (* the scope at the point a subquery appeared: unresolved columns
         fall back to it as Outer_col references (one level deep) *)
}

let resolve_table ctx name =
  match List.assoc_opt (norm name) ctx.env with
  | Some plan -> plan
  | None -> (
    match Storage.Catalog.find ctx.catalog name with
    | Some table ->
      L.Scan
        { table = norm name; schema = Rschema.of_storage (Storage.Table.schema table) }
    | None -> (
      (* virtual system tables (the sqlgraph_stat family) resolve after base
         tables: materialize once here just to learn the schema — the
         executor's Scan re-materializes a fresh copy at run time *)
      match Storage.Catalog.virtual_provider ctx.catalog name with
      | Some provider ->
        L.Scan
          {
            table = norm name;
            schema = Rschema.of_storage (Storage.Table.schema (provider ()));
          }
      | None -> err "unknown table %s" name))

(* Cheapest-sum registrations: filled in a first pass over the select
   items, laid out after the FROM schema, consumed during binding. *)
type cheapest_reg = {
  reg_cost_col : int;
  reg_cost_ty : D.t;
  reg_path_col : int option;
}

type op_builder = {
  ob_id : int;
  ob_alias : string option;
  ob_edge : L.plan;
  ob_edge_fields : Rschema.t;
  ob_src_cols : int list;
  ob_dst_cols : int list;
  ob_src_exprs : L.expr list;
  ob_dst_exprs : L.expr list;
  mutable ob_cheapests : L.cheapest list; (* in registration order, reversed *)
}

(* ------------------------------------------------------------------ *)
(* Types of expressions                                                *)
(* ------------------------------------------------------------------ *)

let unify_types what a b =
  if D.equal a b then a
  else
    match a, b with
    | D.TInt, D.TFloat | D.TFloat, D.TInt -> D.TFloat
    | _ -> err "%s: incompatible types %s and %s" what (D.name a) (D.name b)

let require_numeric what ty =
  if not (D.is_numeric ty) then
    err "%s: expected a numeric expression, got %s" what (D.name ty)

let require_bool what ty =
  if not (D.equal ty D.TBool) then
    err "%s: expected a boolean expression, got %s" what (D.name ty)

let comparable what a b =
  if
    D.equal a b
    || (D.is_numeric a && D.is_numeric b)
  then ()
  else err "%s: cannot compare %s with %s" what (D.name a) (D.name b)

(* Implicit coercion in comparison contexts: a string compared against a
   DATE is cast to DATE (so the paper's [creationDate < '2011-01-01']
   works as written). *)
let coerce_comparison (a : Lplan.expr) (b : Lplan.expr) =
  match a.Lplan.ty, b.Lplan.ty with
  | D.TDate, D.TStr ->
    (a, { Lplan.node = Lplan.Cast (b, D.TDate); ty = D.TDate })
  | D.TStr, D.TDate ->
    ({ Lplan.node = Lplan.Cast (a, D.TDate); ty = D.TDate }, b)
  | _ -> (a, b)

let arith_ty op a b =
  match op with
  | A.Add | A.Sub | A.Mul | A.Div ->
    (* date arithmetic *)
    (match op, a, b with
    | A.Add, D.TDate, D.TInt | A.Add, D.TInt, D.TDate -> D.TDate
    | A.Sub, D.TDate, D.TInt -> D.TDate
    | A.Sub, D.TDate, D.TDate -> D.TInt
    | _ ->
      require_numeric "arithmetic" a;
      require_numeric "arithmetic" b;
      if D.equal a D.TFloat || D.equal b D.TFloat then D.TFloat else D.TInt)
  | A.Mod ->
    if D.equal a D.TInt && D.equal b D.TInt then D.TInt
    else err "%% expects integer operands"
  | _ -> assert false

let builtin_of_name = function
  | "ABS" -> Some L.Abs
  | "UPPER" -> Some L.Upper
  | "LOWER" -> Some L.Lower
  | "LENGTH" -> Some L.Length
  | "COALESCE" -> Some L.Coalesce
  | "SUBSTR" | "SUBSTRING" -> Some L.Substr
  | "REPLACE" -> Some L.Replace
  | "TRIM" -> Some L.Trim
  | "LTRIM" -> Some L.Ltrim
  | "RTRIM" -> Some L.Rtrim
  | "ROUND" -> Some L.Round
  | "FLOOR" -> Some L.Floor
  | "CEIL" | "CEILING" -> Some L.Ceil
  | "SQRT" -> Some L.Sqrt
  | "POWER" | "POW" -> Some L.Power
  | "SIGN" -> Some L.Sign
  | "YEAR" -> Some L.Year
  | "MONTH" -> Some L.Month
  | "DAY" -> Some L.Day
  | _ -> None

let agg_of_name = function
  | "COUNT" -> Some L.Count
  | "SUM" -> Some L.Sum
  | "AVG" -> Some L.Avg
  | "MIN" -> Some L.Min
  | "MAX" -> Some L.Max
  | _ -> None

let literal_to_value = function
  | A.L_int i -> V.Int i
  | A.L_float f -> V.Float f
  | A.L_string s -> V.Str s
  | A.L_bool b -> V.Bool b
  | A.L_null -> V.Null

let value_ty v =
  match V.dtype_of v with Some ty -> ty | None -> D.TInt (* NULL default *)

(* ------------------------------------------------------------------ *)
(* Expression binding                                                  *)
(* ------------------------------------------------------------------ *)

(* [cheapest_queue]: when binding select items, each Cheapest_sum node in
   document order pops the next registration. Everywhere else the queue is
   None and CHEAPEST SUM is rejected. *)
type bind_mode = {
  allow_agg : bool;
  cheapest_queue : cheapest_reg Queue.t option;
}

let plain_mode = { allow_agg = false; cheapest_queue = None }

let rec bind_expr ctx scope mode (e : A.expr) : L.expr =
  match e with
  | A.Lit lit ->
    let v = literal_to_value lit in
    { L.node = L.Const v; ty = value_ty v }
  | A.Param i ->
    if i >= Array.length ctx.params then
      err "query expects at least %d parameters, got %d" (i + 1)
        (Array.length ctx.params);
    let v = ctx.params.(i) in
    { L.node = L.Const v; ty = value_ty v }
  | A.Col (qual, name) -> (
    match resolve_col scope qual name with
    | idx, field -> { L.node = L.Col idx; ty = field.Rschema.ty }
    | exception (Bind_error _ as local_failure) -> (
      (* correlated reference: fall back to the enclosing scope *)
      match ctx.outer_scope with
      | [] -> raise local_failure
      | outer -> (
        match resolve_col outer qual name with
        | idx, field -> { L.node = L.Outer_col idx; ty = field.Rschema.ty }
        | exception Bind_error _ -> raise local_failure)))
  | A.Star _ -> err "* is only allowed in the select list and in COUNT(*)"
  | A.Bin (op, a, b) -> (
    let ba = bind_expr ctx scope mode a in
    let bb = bind_expr ctx scope mode b in
    match op with
    | A.Add | A.Sub | A.Mul | A.Div | A.Mod ->
      { L.node = L.Bin (op, ba, bb); ty = arith_ty op ba.L.ty bb.L.ty }
    | A.Concat ->
      if D.equal ba.L.ty D.TPath || D.equal bb.L.ty D.TPath then
        err "|| cannot be applied to paths";
      { L.node = L.Bin (op, ba, bb); ty = D.TStr }
    | A.Eq | A.Neq | A.Lt | A.Le | A.Gt | A.Ge ->
      let ba, bb = coerce_comparison ba bb in
      comparable "comparison" ba.L.ty bb.L.ty;
      { L.node = L.Bin (op, ba, bb); ty = D.TBool }
    | A.And | A.Or ->
      require_bool "AND/OR operand" ba.L.ty;
      require_bool "AND/OR operand" bb.L.ty;
      { L.node = L.Bin (op, ba, bb); ty = D.TBool })
  | A.Un (A.Neg, a) ->
    let ba = bind_expr ctx scope mode a in
    require_numeric "unary minus" ba.L.ty;
    { L.node = L.Un (A.Neg, ba); ty = ba.L.ty }
  | A.Un (A.Not, a) ->
    let ba = bind_expr ctx scope mode a in
    require_bool "NOT" ba.L.ty;
    { L.node = L.Un (A.Not, ba); ty = D.TBool }
  | A.Cast (a, ty_name) -> (
    match D.of_name ty_name with
    | None -> err "unknown type %s in CAST" ty_name
    | Some ty ->
      let ba = bind_expr ctx scope mode a in
      { L.node = L.Cast (ba, ty); ty })
  | A.Case (arms, default) ->
    let barms =
      List.map
        (fun (c, v) ->
          let bc = bind_expr ctx scope mode c in
          require_bool "CASE WHEN condition" bc.L.ty;
          (bc, bind_expr ctx scope mode v))
        arms
    in
    let bdefault = Option.map (bind_expr ctx scope mode) default in
    let ty =
      let tys =
        List.map (fun (_, v) -> v.L.ty) barms
        @ match bdefault with Some d -> [ d.L.ty ] | None -> []
      in
      match tys with
      | [] -> assert false
      | t :: rest -> List.fold_left (unify_types "CASE branches") t rest
    in
    { L.node = L.Case (barms, bdefault); ty }
  | A.Func (name, args) -> bind_func ctx scope mode name args
  | A.Is_null { negated; arg } ->
    let barg = bind_expr ctx scope mode arg in
    { L.node = L.Is_null { negated; arg = barg }; ty = D.TBool }
  | A.Between { arg; lo; hi; negated } ->
    (* desugar: arg >= lo AND arg <= hi *)
    let barg = bind_expr ctx scope mode arg in
    let barg0, blo = coerce_comparison barg (bind_expr ctx scope mode lo) in
    let barg1, bhi = coerce_comparison barg (bind_expr ctx scope mode hi) in
    comparable "BETWEEN" barg0.L.ty blo.L.ty;
    comparable "BETWEEN" barg1.L.ty bhi.L.ty;
    let ge = { L.node = L.Bin (A.Ge, barg0, blo); ty = D.TBool } in
    let le = { L.node = L.Bin (A.Le, barg1, bhi); ty = D.TBool } in
    let conj = { L.node = L.Bin (A.And, ge, le); ty = D.TBool } in
    if negated then { L.node = L.Un (A.Not, conj); ty = D.TBool } else conj
  | A.In_list { arg; candidates; negated } ->
    let barg = bind_expr ctx scope mode arg in
    let bcands =
      List.map
        (fun c -> snd (coerce_comparison barg (bind_expr ctx scope mode c)))
        candidates
    in
    List.iter (fun c -> comparable "IN" barg.L.ty c.L.ty) bcands;
    { L.node = L.In_list { negated; arg = barg; candidates = bcands }; ty = D.TBool }
  | A.In_query { arg; query; negated } ->
    let barg = bind_expr ctx scope mode arg in
    let sub = bind_query_in { ctx with outer_scope = scope } query in
    let sub_schema = L.schema_of sub in
    if Rschema.arity sub_schema <> 1 then
      err "IN (subquery) must return exactly one column";
    comparable "IN" barg.L.ty (Rschema.field sub_schema 0).Rschema.ty;
    if L.plan_uses_outer sub then
      { L.node = L.In_subquery_corr { negated; arg = barg; sub }; ty = D.TBool }
    else
      { L.node = L.In_subquery { negated; arg = barg; sub }; ty = D.TBool }
  | A.Agg_distinct (name, arg) -> (
    if not mode.allow_agg then
      err "aggregate function %s is not allowed here" name;
    match agg_of_name name with
    | None -> err "%s(DISTINCT ...) is not an aggregate function" name
    | Some kind ->
      let barg = bind_expr ctx scope { mode with allow_agg = false } arg in
      if L.contains_agg barg then err "nested aggregate functions";
      let ty =
        match kind with
        | L.Count_star | L.Count -> D.TInt
        | L.Sum ->
          require_numeric "SUM" barg.L.ty;
          barg.L.ty
        | L.Avg ->
          require_numeric "AVG" barg.L.ty;
          D.TFloat
        | L.Min | L.Max -> barg.L.ty
      in
      { L.node = L.Agg_call { kind; arg = Some barg; distinct = true }; ty })
  | A.Like { arg; pattern; negated } ->
    let barg = bind_expr ctx scope mode arg in
    let bpat = bind_expr ctx scope mode pattern in
    { L.node = L.Like { negated; arg = barg; pattern = bpat }; ty = D.TBool }
  | A.Exists q ->
    let plan = bind_query_in { ctx with outer_scope = scope } q in
    if L.plan_uses_outer plan then
      { L.node = L.Exists_corr plan; ty = D.TBool }
    else { L.node = L.Exists_sub plan; ty = D.TBool }
  | A.Scalar_subquery q ->
    let plan = bind_query_in { ctx with outer_scope = scope } q in
    let schema = L.schema_of plan in
    if Rschema.arity schema <> 1 then
      err "scalar subquery must return exactly one column";
    let ty = (Rschema.field schema 0).Rschema.ty in
    if L.plan_uses_outer plan then { L.node = L.Subquery_corr plan; ty }
    else { L.node = L.Subquery plan; ty }
  | A.Row _ ->
    err "expression tuples are only allowed as REACHES endpoints"
  | A.Reaches _ ->
    err "REACHES is only allowed as a top-level conjunct of the WHERE clause"
  | A.Cheapest_sum _ -> (
    match mode.cheapest_queue with
    | None -> err "CHEAPEST SUM is only allowed in the select list"
    | Some q ->
      if Queue.is_empty q then
        err "internal: CHEAPEST SUM registration queue exhausted";
      let reg = Queue.pop q in
      { L.node = L.Col reg.reg_cost_col; ty = reg.reg_cost_ty })

and bind_func ctx scope mode name args =
  match agg_of_name name with
  | Some kind -> (
    if not mode.allow_agg then
      err "aggregate function %s is not allowed here" name;
    match kind, args with
    | L.Count, [ A.Star None ] ->
      {
        L.node = L.Agg_call { kind = L.Count_star; arg = None; distinct = false };
        ty = D.TInt;
      }
    | _, [ arg ] ->
      let barg = bind_expr ctx scope { mode with allow_agg = false } arg in
      if L.contains_agg barg then err "nested aggregate functions";
      let ty =
        match kind with
        | L.Count_star | L.Count -> D.TInt
        | L.Sum ->
          require_numeric "SUM" barg.L.ty;
          barg.L.ty
        | L.Avg ->
          require_numeric "AVG" barg.L.ty;
          D.TFloat
        | L.Min | L.Max -> barg.L.ty
      in
      { L.node = L.Agg_call { kind; arg = Some barg; distinct = false }; ty }
    | _ -> err "aggregate %s expects exactly one argument" name)
  | None -> (
    match builtin_of_name name with
    | None -> err "unknown function %s" name
    | Some b ->
      let bargs = List.map (bind_expr ctx scope mode) args in
      (* a literal NULL carries a default type; admit it anywhere *)
      let is_null_const (a : L.expr) =
        match a.L.node with L.Const V.Null -> true | _ -> false
      in
      let str_arg what (a : L.expr) =
        if not (D.equal a.L.ty D.TStr || is_null_const a) then
          err "%s expects a string argument, got %s" what (D.name a.L.ty)
      in
      let int_arg what (a : L.expr) =
        if not (D.equal a.L.ty D.TInt || is_null_const a) then
          err "%s expects an integer argument, got %s" what (D.name a.L.ty)
      in
      let date_arg what (a : L.expr) =
        if not (D.equal a.L.ty D.TDate || is_null_const a) then
          err "%s expects a DATE argument, got %s" what (D.name a.L.ty)
      in
      let ty =
        match b, bargs with
        | L.Abs, [ a ] | L.Sign, [ a ] ->
          require_numeric name a.L.ty;
          if b = L.Sign then D.TInt else a.L.ty
        | L.Upper, [ a ] | L.Lower, [ a ] | L.Trim, [ a ] | L.Ltrim, [ a ]
        | L.Rtrim, [ a ] ->
          str_arg name a;
          D.TStr
        | L.Length, [ a ] ->
          str_arg name a;
          D.TInt
        | L.Substr, [ s; start ] ->
          str_arg name s;
          int_arg name start;
          D.TStr
        | L.Substr, [ s; start; len ] ->
          str_arg name s;
          int_arg name start;
          int_arg name len;
          D.TStr
        | L.Replace, [ s; f; t ] ->
          str_arg name s;
          str_arg name f;
          str_arg name t;
          D.TStr
        | L.Round, [ a ] ->
          require_numeric name a.L.ty;
          D.TFloat
        | L.Round, [ a; d ] ->
          require_numeric name a.L.ty;
          int_arg name d;
          D.TFloat
        | L.Floor, [ a ] | L.Ceil, [ a ] ->
          require_numeric name a.L.ty;
          D.TInt
        | L.Sqrt, [ a ] ->
          require_numeric name a.L.ty;
          D.TFloat
        | L.Power, [ a; e ] ->
          require_numeric name a.L.ty;
          require_numeric name e.L.ty;
          D.TFloat
        | (L.Year | L.Month | L.Day), [ a ] ->
          date_arg name a;
          D.TInt
        | L.Coalesce, first :: rest ->
          List.fold_left
            (fun acc e -> unify_types "COALESCE" acc e.L.ty)
            first.L.ty rest
        | _, _ -> err "wrong number of arguments to %s" name
      in
      { L.node = L.Call (b, bargs); ty })

(* ------------------------------------------------------------------ *)
(* FROM clause                                                         *)
(* ------------------------------------------------------------------ *)

and bind_unnest ctx ~input ~scope ~(u : [ `U of A.expr * bool * string option ])
    ~left_outer =
  let (`U (arg, ordinality, alias)) = u in
  let path_e = bind_expr ctx scope plain_mode arg in
  if not (D.equal path_e.L.ty D.TPath) then
    err "UNNEST expects a path-typed argument, got %s" (D.name path_e.L.ty);
  let edge_schema =
    match path_e.L.node with
    | L.Col i -> (
      match (Rschema.field (scope_schema scope) i).Rschema.nested with
      | Some s -> s
      | None -> err "UNNEST: the path column carries no edge schema")
    | _ -> err "UNNEST argument must be a path column reference"
  in
  let new_fields =
    let base =
      List.map
        (fun (f : Storage.Schema.field) ->
          { Rschema.name = f.Storage.Schema.name; ty = f.Storage.Schema.ty; nested = None })
        (Storage.Schema.fields edge_schema)
    in
    if ordinality then
      base @ [ { Rschema.name = "ordinality"; ty = D.TInt; nested = None } ]
    else base
  in
  let new_fields = Array.of_list new_fields in
  let plan =
    L.Unnest
      {
        input;
        path = path_e;
        edge_schema;
        ordinality;
        left_outer;
        schema = Rschema.append (scope_schema scope) new_fields;
      }
  in
  (plan, { r_alias = alias; r_fields = new_fields })

(* A join tree binds with a *local* scope (its own operands only), so the
   resulting Join node's condition uses indices relative to left++right. *)
and bind_join_tree ctx item : L.plan * range list =
  match item with
  | A.From_table (name, alias) ->
    let plan = resolve_table ctx name in
    let fields = L.schema_of plan in
    (plan, [ { r_alias = Some (Option.value alias ~default:name); r_fields = fields } ])
  | A.From_subquery (q, alias) ->
    let plan = bind_query_in ctx q in
    (plan, [ { r_alias = Some alias; r_fields = L.schema_of plan } ])
  | A.From_unnest _ ->
    err "UNNEST must follow another FROM item (it is a lateral operator)"
  | A.From_join (l, kind, r, cond) -> (
    let pl, rl = bind_join_tree ctx l in
    match r with
    | A.From_unnest { arg; ordinality; alias; left_outer = _ } ->
      (* lateral unnest as a join operand: ON TRUE (or no ON) only *)
      (match cond with
      | None -> ()
      | Some (A.Lit (A.L_bool true)) -> ()
      | Some _ -> err "JOIN UNNEST only supports ON TRUE");
      let left_outer = kind = A.Left_outer in
      let plan, urange =
        bind_unnest ctx ~input:pl ~scope:rl
          ~u:(`U (arg, ordinality, alias))
          ~left_outer
      in
      (plan, rl @ [ urange ])
    | _ ->
      let pr, rr = bind_join_tree ctx r in
      let local_scope = rl @ rr in
      let bcond =
        match cond with
        | None -> L.bool_const true
        | Some c ->
          let bc = bind_expr ctx local_scope plain_mode c in
          require_bool "JOIN condition" bc.L.ty;
          bc
      in
      (L.Join { left = pl; right = pr; kind; cond = bcond }, local_scope))

and bind_from ctx items : L.plan * scope =
  let step (acc_plan, scope) item =
    match item with
    | A.From_unnest { arg; ordinality; alias; left_outer } ->
      let input =
        match acc_plan with
        | Some p -> p
        | None -> err "UNNEST cannot be the first FROM item"
      in
      let plan, urange =
        bind_unnest ctx ~input ~scope ~u:(`U (arg, ordinality, alias))
          ~left_outer
      in
      (Some plan, scope @ [ urange ])
    | _ ->
      let plan, ranges = bind_join_tree ctx item in
      let combined =
        match acc_plan with
        | None -> plan
        | Some p -> L.Cross { left = p; right = plan }
      in
      (Some combined, scope @ ranges)
  in
  match List.fold_left step (None, []) items with
  | None, _ -> (L.One, [])
  | Some plan, scope -> (plan, scope)

(* ------------------------------------------------------------------ *)
(* REACHES predicates                                                  *)
(* ------------------------------------------------------------------ *)

and bind_reaches ctx scope ~id (r : A.reaches) : op_builder =
  let edge_plan =
    match r.A.edge with
    | A.Ref_table name -> resolve_table ctx name
    | A.Ref_subquery q -> bind_query_in ctx q
  in
  let edge_fields = L.schema_of edge_plan in
  let col_index what name =
    match Rschema.index_of edge_fields name with
    | Some i -> i
    | None -> err "edge table has no %s column %s" what name
  in
  if List.length r.A.src_cols <> List.length r.A.dst_cols then
    err "EDGE source and destination keys have different widths";
  let src_cols = List.map (col_index "source") r.A.src_cols in
  let dst_cols = List.map (col_index "destination") r.A.dst_cols in
  (* componentwise: S_i and D_i must share one type (§2's rule, per
     attribute for composite keys) *)
  let key_types =
    List.map2
      (fun si di ->
        let s_ty = (Rschema.field edge_fields si).Rschema.ty in
        let d_ty = (Rschema.field edge_fields di).Rschema.ty in
        if not (D.equal s_ty d_ty) then
          err "edge key columns %s (%s) and %s (%s) must have the same type"
            (Rschema.field edge_fields si).Rschema.name (D.name s_ty)
            (Rschema.field edge_fields di).Rschema.name (D.name d_ty);
        s_ty)
      src_cols dst_cols
  in
  let width = List.length key_types in
  let bind_endpoint what e =
    let components =
      match e, width with
      | A.Row es, _ ->
        if List.length es <> width then
          err "REACHES %s has %d components but the edge key has %d" what
            (List.length es) width;
        List.map (bind_expr ctx scope plain_mode) es
      | _, 1 -> [ bind_expr ctx scope plain_mode e ]
      | _, _ ->
        err "REACHES %s must be a (…, …) tuple matching the composite edge key"
          what
    in
    List.iteri
      (fun i c ->
        let want = List.nth key_types i in
        if not (D.equal c.L.ty want) then
          err "REACHES %s component %d has type %s but edge keys have type %s"
            what (i + 1) (D.name c.L.ty) (D.name want))
      components;
    components
  in
  let src_exprs = bind_endpoint "source" r.A.src in
  let dst_exprs = bind_endpoint "destination" r.A.dst in
  {
    ob_id = id;
    ob_alias = r.A.edge_alias;
    ob_edge = edge_plan;
    ob_edge_fields = edge_fields;
    ob_src_cols = src_cols;
    ob_dst_cols = dst_cols;
    ob_src_exprs = src_exprs;
    ob_dst_exprs = dst_exprs;
    ob_cheapests = [];
  }

(* ------------------------------------------------------------------ *)
(* Select items: star expansion and CHEAPEST SUM registration          *)
(* ------------------------------------------------------------------ *)

(* Expand stars into explicit items so that the rest of the pipeline only
   sees expressions. *)
and expand_items scope items =
  let star_of_range offset (r : range) =
    List.mapi
      (fun i (f : Rschema.field) ->
        (A.Col (r.r_alias, f.Rschema.name), A.Alias_name f.Rschema.name, Some (offset + i)))
      (Array.to_list r.r_fields)
  in
  let ranges_with_offsets =
    let rec loop offset = function
      | [] -> []
      | r :: rest -> (offset, r) :: loop (offset + Rschema.arity r.r_fields) rest
    in
    loop 0 scope
  in
  List.concat_map
    (fun item ->
      match item with
      | A.Sel_star None ->
        if scope = [] then err "SELECT * requires a FROM clause";
        List.concat_map
          (fun (off, r) -> star_of_range off r)
          ranges_with_offsets
      | A.Sel_star (Some q) -> (
        match
          List.find_opt
            (fun (_, r) ->
              match r.r_alias with
              | Some a -> String.equal (norm a) (norm q)
              | None -> false)
            ranges_with_offsets
        with
        | Some (off, r) -> star_of_range off r
        | None -> err "unknown alias %s in %s.*" q q)
      | A.Sel_expr (e, alias) -> [ (e, alias, None) ])
    items

(* Walk an item expression in document order, registering every CHEAPEST
   SUM against its op builder. [bare] is set when the item consists of the
   whole CHEAPEST SUM (only then is the AS (cost, path) form legal). *)
and register_cheapests ctx ops item_index (e, alias, _direct) registrations =
  let resolve_op binding =
    match binding with
    | Some b -> (
      match
        List.find_opt
          (fun ob ->
            match ob.ob_alias with
            | Some a -> String.equal (norm a) (norm b)
            | None -> false)
          ops
      with
      | Some ob -> ob
      | None -> err "CHEAPEST SUM refers to unknown edge-table variable %s" b)
    | None -> (
      match ops with
      | [ ob ] -> ob
      | [] -> err "CHEAPEST SUM requires a REACHES predicate in the WHERE clause"
      | _ ->
        err
          "CHEAPEST SUM must name its edge-table variable when several REACHES predicates are present")
  in
  let register ~bare binding weight =
    let ob = resolve_op binding in
    let edge_scope = [ { r_alias = ob.ob_alias; r_fields = ob.ob_edge_fields } ] in
    let bweight = bind_expr ctx edge_scope plain_mode weight in
    require_numeric "CHEAPEST SUM weight" bweight.L.ty;
    let cost_ty = if D.equal bweight.L.ty D.TFloat then D.TFloat else D.TInt in
    let cost_name, path_name =
      match alias, bare with
      | A.Alias_pair (c, p), true -> (c, Some p)
      | A.Alias_pair _, false ->
        err "AS (cost, path) requires the item to be a bare CHEAPEST SUM"
      | A.Alias_name n, true -> (n, None)
      | (A.Alias_name _ | A.Alias_none), _ ->
        (Printf.sprintf "cost%d" (item_index + 1), None)
    in
    ob.ob_cheapests <-
      {
        L.weight = bweight;
        cost_name;
        cost_ty;
        path_name;
      }
      :: ob.ob_cheapests;
    (ob, cost_ty, path_name <> None)
  in
  (* document-order walk matching bind_expr's traversal *)
  let rec walk ~bare e =
    match e with
    | A.Cheapest_sum { binding; weight } ->
      let ob, cost_ty, has_path = register ~bare binding weight in
      registrations := (ob, cost_ty, has_path) :: !registrations
    | A.Lit _ | A.Param _ | A.Col _ | A.Star _ | A.Exists _
    | A.Scalar_subquery _ ->
      ()
    | A.Bin (_, a, b) ->
      walk ~bare:false a;
      walk ~bare:false b
    | A.Un (_, a) | A.Cast (a, _) -> walk ~bare:false a
    | A.Case (arms, default) ->
      List.iter
        (fun (c, v) ->
          walk ~bare:false c;
          walk ~bare:false v)
        arms;
      Option.iter (walk ~bare:false) default
    | A.Func (_, args) -> List.iter (walk ~bare:false) args
    | A.Is_null { arg; _ } -> walk ~bare:false arg
    | A.Between { arg; lo; hi; _ } ->
      walk ~bare:false arg;
      walk ~bare:false lo;
      walk ~bare:false hi
    | A.In_list { arg; candidates; _ } ->
      walk ~bare:false arg;
      List.iter (walk ~bare:false) candidates
    | A.In_query { arg; _ } -> walk ~bare:false arg
    | A.Agg_distinct (_, arg) -> walk ~bare:false arg
    | A.Like { arg; pattern; _ } ->
      walk ~bare:false arg;
      walk ~bare:false pattern
    | A.Row es -> List.iter (walk ~bare:false) es
    | A.Reaches _ -> err "REACHES cannot appear in the select list"
  in
  walk ~bare:true e

(* ------------------------------------------------------------------ *)
(* Aggregation lifting                                                 *)
(* ------------------------------------------------------------------ *)

(* Rewrite a bound expression over the *input* schema into one over the
   Aggregate output schema [keys ++ aggs]: group-key subtrees become key
   columns, Agg_call nodes become agg columns, anything else that still
   touches an input column is an error. *)
and lift_aggregates ~keys ~aggs (e : L.expr) : L.expr =
  let find_key e =
    let rec loop i = function
      | [] -> None
      | (k, _) :: rest -> if L.expr_equal k e then Some i else loop (i + 1) rest
    in
    loop 0 keys
  in
  let nkeys = List.length keys in
  let find_or_add_agg kind arg distinct ty =
    let rec loop i = function
      | [] ->
        let name = Printf.sprintf "agg%d" (List.length !aggs + 1) in
        aggs :=
          !aggs @ [ { L.kind; arg; distinct; out_name = name; out_ty = ty } ];
        i
      | (a : L.agg) :: rest ->
        if
          a.L.kind = kind && a.L.distinct = distinct
          && Option.equal L.expr_equal a.L.arg arg
        then i
        else loop (i + 1) rest
    in
    loop 0 !aggs
  in
  let rec lift e =
    match find_key e with
    | Some ki -> { e with L.node = L.Col ki }
    | None -> (
      match e.L.node with
      | L.Agg_call { kind; arg; distinct } ->
        let idx = find_or_add_agg kind arg distinct e.L.ty in
        { e with L.node = L.Col (nkeys + idx) }
      | L.Col _ ->
        err "column must appear in the GROUP BY clause or inside an aggregate"
      | L.Const _ | L.Subquery _ | L.Exists_sub _ | L.Outer_col _ -> e
      | L.Subquery_corr _ | L.Exists_corr _ | L.In_subquery_corr _ ->
        err
          "correlated subqueries are not supported in grouped queries or HAVING"

      | L.Bin (op, a, b) -> { e with L.node = L.Bin (op, lift a, lift b) }
      | L.Un (op, a) -> { e with L.node = L.Un (op, lift a) }
      | L.Cast (a, ty) -> { e with L.node = L.Cast (lift a, ty) }
      | L.Case (arms, default) ->
        {
          e with
          L.node =
            L.Case
              ( List.map (fun (c, v) -> (lift c, lift v)) arms,
                Option.map lift default );
        }
      | L.Call (b, args) -> { e with L.node = L.Call (b, List.map lift args) }
      | L.Is_null { negated; arg } ->
        { e with L.node = L.Is_null { negated; arg = lift arg } }
      | L.In_list { negated; arg; candidates } ->
        {
          e with
          L.node =
            L.In_list { negated; arg = lift arg; candidates = List.map lift candidates };
        }
      | L.In_subquery { negated; arg; sub } ->
        { e with L.node = L.In_subquery { negated; arg = lift arg; sub } }
      | L.Like { negated; arg; pattern } ->
        { e with L.node = L.Like { negated; arg = lift arg; pattern = lift pattern } })
  in
  lift e

(* ------------------------------------------------------------------ *)
(* Query binding                                                       *)
(* ------------------------------------------------------------------ *)

(* Does a query's FROM (or a nested subquery) reference table [name]?
   Used to tell genuinely recursive CTEs from plain ones declared under
   WITH RECURSIVE. *)
and query_refs_name name (q : A.query) =
  let module N = struct
    let norm = String.lowercase_ascii
  end in
  let target = N.norm name in
  let rec in_query (q : A.query) =
    List.exists in_from q.A.from
    || List.exists (fun (_, b) -> in_query b) q.A.setops
    || Option.fold ~none:false ~some:in_expr q.A.where
    || List.exists (fun (c : A.cte) -> in_query c.A.cte_query) q.A.ctes
  and in_from = function
    | A.From_table (t, _) -> String.equal (N.norm t) target
    | A.From_subquery (sub, _) -> in_query sub
    | A.From_unnest _ -> false
    | A.From_join (l, _, r, _) -> in_from l || in_from r
  and in_expr e =
    A.fold_expr
      (fun acc e ->
        acc
        ||
        match e with
        | A.Exists sub | A.Scalar_subquery sub | A.In_query { query = sub; _ }
          ->
          in_query sub
        | A.Reaches { edge = A.Ref_table t; _ } ->
          String.equal (N.norm t) target
        | A.Reaches { edge = A.Ref_subquery sub; _ } -> in_query sub
        | _ -> false)
      false e
  in
  in_query q

and bind_recursive_cte ctx (cte : A.cte) =
  let name = cte.A.cte_name in
  let base_q, op, step_q =
    match cte.A.cte_query.A.setops with
    | [ (((A.Union | A.Union_all) as op), step) ] ->
      ({ cte.A.cte_query with A.setops = [] }, op, step)
    | _ ->
      err
        "recursive CTE %s must be of the form: base-select UNION [ALL] \
         recursive-select"
        name
  in
  if cte.A.cte_query.A.order_by <> [] || cte.A.cte_query.A.limit <> None then
    err "recursive CTE %s cannot carry ORDER BY or LIMIT" name;
  if query_refs_name name base_q then
    err "recursive CTE %s: the base (first) branch cannot reference %s" name
      name;
  let base = bind_simple ctx base_q in
  let base_schema = L.schema_of base in
  let rec_schema =
    match cte.A.cte_cols with
    | None -> base_schema
    | Some names ->
      if List.length names <> Rschema.arity base_schema then
        err "CTE %s declares %d columns but its query produces %d" name
          (List.length names) (Rschema.arity base_schema);
      Array.of_list
        (List.mapi
           (fun i n -> { (Rschema.field base_schema i) with Rschema.name = n })
           names)
  in
  let self = L.Rec_ref { name = norm name; schema = rec_schema } in
  let step_ctx = { ctx with env = (norm name, self) :: ctx.env } in
  let step = bind_simple step_ctx step_q in
  let step_schema = L.schema_of step in
  if Rschema.arity step_schema <> Rschema.arity rec_schema then
    err "recursive CTE %s: branches have %d vs %d columns" name
      (Rschema.arity rec_schema) (Rschema.arity step_schema);
  Array.iteri
    (fun i (f : Rschema.field) ->
      let g = Rschema.field step_schema i in
      if not (D.equal f.Rschema.ty g.Rschema.ty) then
        err "recursive CTE %s: column %d has type %s in the base and %s in the step"
          name (i + 1) (D.name f.Rschema.ty) (D.name g.Rschema.ty))
    rec_schema;
  L.Rec_cte
    {
      name = norm name;
      base;
      step;
      distinct = (op = A.Union);
      schema = rec_schema;
    }

(* CTEs extend the environment in order. *)
and bind_ctes ctx ctes =
  List.fold_left
    (fun ctx (cte : A.cte) ->
      if cte.A.cte_recursive && query_refs_name cte.A.cte_name cte.A.cte_query
      then
        let plan = bind_recursive_cte ctx cte in
        { ctx with env = (norm cte.A.cte_name, plan) :: ctx.env }
      else bind_plain_cte ctx cte)
    ctx ctes

and bind_plain_cte ctx (cte : A.cte) =
  let plan = bind_query_in ctx cte.A.cte_query in
  let plan =
    match cte.A.cte_cols with
    | None -> plan
    | Some names ->
          let schema = L.schema_of plan in
          if List.length names <> Rschema.arity schema then
            err "CTE %s declares %d columns but its query produces %d"
              cte.A.cte_name (List.length names) (Rschema.arity schema);
          let items =
            List.mapi
              (fun i name ->
                ( { L.node = L.Col i; ty = (Rschema.field schema i).Rschema.ty },
                  name ))
              names
          in
          let out_schema =
            Array.of_list
              (List.mapi
                 (fun i name ->
                   let f = Rschema.field schema i in
                   { f with Rschema.name })
                 names)
          in
          L.Project { input = plan; items; schema = out_schema }
  in
  { ctx with env = (norm cte.A.cte_name, plan) :: ctx.env }

and bind_query_in ctx (q : A.query) : L.plan =
  if q.A.setops <> [] then bind_compound ctx q else bind_simple ctx q

(* Compound queries: UNION [ALL] / INTERSECT / EXCEPT over select cores,
   with ORDER BY / LIMIT applying to the combined result. *)
and bind_compound ctx (q : A.query) : L.plan =
  let ctx = bind_ctes ctx q.A.ctes in
  let strip branch =
    {
      branch with
      A.ctes = [];
      setops = [];
      order_by = [];
      limit = None;
      offset = None;
    }
  in
  let head = bind_simple ctx (strip q) in
  let plan =
    List.fold_left
      (fun left (op, branch) ->
        let right = bind_simple ctx (strip branch) in
        let ls = L.schema_of left and rs = L.schema_of right in
        if Rschema.arity ls <> Rschema.arity rs then
          err "set operation branches have %d vs %d columns"
            (Rschema.arity ls) (Rschema.arity rs);
        Array.iteri
          (fun i (lf : Rschema.field) ->
            let rf = Rschema.field rs i in
            if not (D.equal lf.Rschema.ty rf.Rschema.ty) then
              err "set operation: column %d has type %s on one side and %s on the other"
                (i + 1) (D.name lf.Rschema.ty) (D.name rf.Rschema.ty))
          ls;
        L.Set_op { op; left; right })
      head q.A.setops
  in
  (* ORDER BY binds over the combined output (names or positions). *)
  let out_schema = L.schema_of plan in
  let plan =
    match q.A.order_by with
    | [] -> plan
    | order_keys ->
      let out_scope = [ { r_alias = None; r_fields = out_schema } ] in
      let keys =
        List.map
          (fun (e, dir) ->
            let be =
              match e with
              | A.Lit (A.L_int k) ->
                if k < 1 || k > Rschema.arity out_schema then
                  err "ORDER BY position %d out of range" k;
                {
                  L.node = L.Col (k - 1);
                  ty = (Rschema.field out_schema (k - 1)).Rschema.ty;
                }
              | _ -> bind_expr ctx out_scope plain_mode e
            in
            (be, dir))
          order_keys
      in
      L.Sort { input = plan; keys }
  in
  match q.A.limit, q.A.offset with
  | None, None -> plan
  | limit, offset ->
    L.Limit { input = plan; limit; offset = Option.value offset ~default:0 }

(* A plain (non-compound) SELECT; its own CTEs are still honoured. *)
and bind_simple ctx (q : A.query) : L.plan =
  let ctx = bind_ctes ctx q.A.ctes in
  (* FROM *)
  let from_plan, scope = bind_from ctx q.A.from in
  (* WHERE: split conjuncts into graph predicates and plain filters. *)
  let reaches_asts, filter_conjuncts =
    match q.A.where with
    | None -> ([], [])
    | Some w ->
      let rec split e =
        match e with
        | A.Bin (A.And, a, b) ->
          let ra, fa = split a and rb, fb = split b in
          (ra @ rb, fa @ fb)
        | A.Reaches r -> ([ r ], [])
        | _ ->
          if A.collect_reaches e <> [] then
            err "REACHES must be a top-level conjunct of the WHERE clause";
          ([], [ e ])
      in
      split w
  in
  let bound_filters =
    List.map
      (fun e ->
        let be = bind_expr ctx scope plain_mode e in
        require_bool "WHERE clause" be.L.ty;
        be)
      filter_conjuncts
  in
  let plan =
    match L.conjoin bound_filters with
    | None -> from_plan
    | Some pred -> L.Filter { input = from_plan; pred }
  in
  (* Graph operators. *)
  let ops = List.mapi (fun id r -> bind_reaches ctx scope ~id r) reaches_asts in
  (* Select items: expand stars, register CHEAPEST SUMs. *)
  let items3 = expand_items scope q.A.items in
  let registrations = ref [] in
  List.iteri
    (fun i item -> register_cheapests ctx ops i item registrations)
    items3;
  let registrations = List.rev !registrations in
  (* fix registration order within each op: ob_cheapests was built reversed *)
  List.iter (fun ob -> ob.ob_cheapests <- List.rev ob.ob_cheapests) ops;
  (* Layout of the appended cost/path columns. *)
  let base_arity = scope_arity scope in
  let op_offsets =
    let rec loop off = function
      | [] -> []
      | ob :: rest ->
        let width =
          List.fold_left
            (fun acc (c : L.cheapest) ->
              acc + if c.L.path_name = None then 1 else 2)
            0 ob.ob_cheapests
        in
        (ob, off) :: loop (off + width) rest
    in
    loop base_arity ops
  in
  (* Build the registration queue consumed while binding items: for each
     registration (in document order) compute its cost/path columns. *)
  let queue = Queue.create () in
  let cursor = Hashtbl.create 8 in
  (* per-op running offset *)
  List.iter
    (fun (ob, cost_ty, has_path) ->
      let base =
        match List.find_opt (fun (o, _) -> o == ob) op_offsets with
        | Some (_, off) -> off
        | None -> assert false
      in
      let key = ob.ob_id in
      let used = Option.value (Hashtbl.find_opt cursor key) ~default:0 in
      let cost_col = base + used in
      let width = if has_path then 2 else 1 in
      Hashtbl.replace cursor key (used + width);
      Queue.add
        {
          reg_cost_col = cost_col;
          reg_cost_ty = cost_ty;
          reg_path_col = (if has_path then Some (cost_col + 1) else None);
        }
        queue)
    registrations;
  (* Apply the graph selects in order. *)
  let plan =
    List.fold_left
      (fun input ob ->
        let op =
          {
            L.edge = ob.ob_edge;
            edge_src = ob.ob_src_cols;
            edge_dst = ob.ob_dst_cols;
            src_exprs = ob.ob_src_exprs;
            dst_exprs = ob.ob_dst_exprs;
            cheapests = ob.ob_cheapests;
          }
        in
        L.Graph_select
          { input; op; schema = L.graph_select_schema ~input op })
      plan ops
  in
  let full_schema = L.schema_of plan in
  (* Bind the select items over the FROM scope; CHEAPEST SUM nodes resolve
     through the queue into the appended columns. *)
  let item_mode = { allow_agg = true; cheapest_queue = Some queue } in
  (* a pseudo-scope exposing the appended graph columns for binding *)
  let bound_items =
    List.mapi
      (fun i (e, alias, direct) ->
        let name =
          match alias with
          | A.Alias_name n -> n
          | A.Alias_pair (c, _) -> c
          | A.Alias_none -> (
            match e with
            | A.Col (_, n) -> n
            | A.Cheapest_sum _ -> Printf.sprintf "cost%d" (i + 1)
            | _ -> Printf.sprintf "col%d" (i + 1))
        in
        let bexpr =
          match direct with
          | Some idx ->
            (* star expansion resolved positionally already *)
            { L.node = L.Col idx; ty = (Rschema.field full_schema idx).Rschema.ty }
          | None -> bind_expr ctx scope item_mode e
        in
        (* the AS (cost, path) form appends the path as a second item *)
        let extra =
          match alias, e with
          | A.Alias_pair (_, pname), A.Cheapest_sum _ ->
            (* the path column sits right after the cost column *)
            (match bexpr.L.node with
            | L.Col cost_col ->
              let path_col = cost_col + 1 in
              [
                ( {
                    L.node = L.Col path_col;
                    ty = (Rschema.field full_schema path_col).Rschema.ty;
                  },
                  pname );
              ]
            | _ -> assert false)
          | A.Alias_pair _, _ ->
            err "AS (ident, ident) is only valid for CHEAPEST SUM"
          | _ -> []
        in
        ((bexpr, name) :: extra, ()))
      items3
    |> List.concat_map fst
  in
  (* Aggregation. *)
  let group_keys =
    List.map
      (fun e ->
        (* GROUP BY <n> refers to the n-th select item, as in ORDER BY *)
        let e =
          match e with
          | A.Lit (A.L_int k) -> (
            match List.nth_opt items3 (k - 1) with
            | Some (item_e, _, _) -> item_e
            | None -> err "GROUP BY position %d out of range" k)
          | _ -> e
        in
        let be = bind_expr ctx scope plain_mode e in
        let name =
          match e with A.Col (_, n) -> n | _ -> "key"
        in
        (be, name))
      q.A.group_by
  in
  let bound_having =
    Option.map
      (fun h ->
        let bh = bind_expr ctx scope { item_mode with cheapest_queue = None } h in
        require_bool "HAVING" bh.L.ty;
        bh)
      q.A.having
  in
  let has_agg =
    group_keys <> []
    || List.exists (fun (e, _) -> L.contains_agg e) bound_items
    || Option.fold ~none:false ~some:L.contains_agg bound_having
  in
  let plan, proj_items =
    if not has_agg then (plan, bound_items)
    else begin
      (* dedupe key names *)
      let keys =
        List.mapi
          (fun i (e, n) -> (e, if n = "key" then Printf.sprintf "key%d" (i + 1) else n))
          group_keys
      in
      let aggs = ref [] in
      let lifted_items =
        List.map (fun (e, n) -> (lift_aggregates ~keys ~aggs e, n)) bound_items
      in
      let lifted_having =
        Option.map (lift_aggregates ~keys ~aggs) bound_having
      in
      let agg_schema =
        Array.of_list
          (List.map
             (fun (e, n) ->
               let nested =
                 match e.L.node with
                 | L.Col i -> (Rschema.field full_schema i).Rschema.nested
                 | _ -> None
               in
               { Rschema.name = n; ty = e.L.ty; nested })
             keys
          @ List.map
              (fun (a : L.agg) ->
                { Rschema.name = a.L.out_name; ty = a.L.out_ty; nested = None })
              !aggs)
      in
      let agg_plan =
        L.Aggregate { input = plan; keys; aggs = !aggs; schema = agg_schema }
      in
      let agg_plan =
        match lifted_having with
        | None -> agg_plan
        | Some pred -> L.Filter { input = agg_plan; pred }
      in
      (agg_plan, lifted_items)
    end
  in
  if (not has_agg) && bound_having <> None then
    err "HAVING requires GROUP BY or aggregates";
  (* Projection. *)
  let input_schema = L.schema_of plan in
  let proj_schema =
    Array.of_list
      (List.map
         (fun ((e : L.expr), name) ->
           let nested =
             if D.equal e.L.ty D.TPath then
               match e.L.node with
               | L.Col i -> (Rschema.field input_schema i).Rschema.nested
               | _ -> None
             else None
           in
           { Rschema.name; ty = e.L.ty; nested })
         proj_items)
  in
  (* ORDER BY binds over the projection's output; keys not visible there
     fall back to the pre-projection scope and ride along as hidden
     projection columns, dropped after the sort (non-aggregated,
     non-DISTINCT queries only, as in standard SQL). *)
  let order_keys =
    List.map
      (fun (e, dir) ->
        let out_scope = [ { r_alias = None; r_fields = proj_schema } ] in
        let key =
          match e with
          | A.Lit (A.L_int k) ->
            if k < 1 || k > Rschema.arity proj_schema then
              err "ORDER BY position %d out of range" k;
            `Output
              {
                L.node = L.Col (k - 1);
                ty = (Rschema.field proj_schema (k - 1)).Rschema.ty;
              }
          | _ -> (
            match bind_expr ctx out_scope plain_mode e with
            | be -> `Output be
            | exception Bind_error _ when (not has_agg) && not q.A.distinct ->
              `Hidden (bind_expr ctx scope plain_mode e))
        in
        (key, dir))
      q.A.order_by
  in
  let hidden =
    List.filter_map
      (fun (key, _) -> match key with `Hidden be -> Some be | `Output _ -> None)
      order_keys
  in
  let plan =
    if hidden = [] then
      L.Project { input = plan; items = proj_items; schema = proj_schema }
    else begin
      let hidden_items =
        List.mapi (fun i be -> (be, Printf.sprintf "$sort%d" i)) hidden
      in
      let wide_schema =
        Rschema.append proj_schema
          (Array.of_list
             (List.map
                (fun ((be : L.expr), n) ->
                  { Rschema.name = n; ty = be.L.ty; nested = None })
                hidden_items))
      in
      L.Project
        { input = plan; items = proj_items @ hidden_items; schema = wide_schema }
    end
  in
  let plan = if q.A.distinct then L.Distinct plan else plan in
  let plan =
    match order_keys with
    | [] -> plan
    | _ ->
      let base = List.length proj_items in
      let next_hidden = ref 0 in
      let keys =
        List.map
          (fun (key, dir) ->
            match key with
            | `Output be -> (be, dir)
            | `Hidden be ->
              let idx = base + !next_hidden in
              incr next_hidden;
              ({ L.node = L.Col idx; ty = be.L.ty }, dir))
          order_keys
      in
      L.Sort { input = plan; keys }
  in
  (* drop the hidden sort columns again *)
  let plan =
    if hidden = [] then plan
    else
      L.Project
        {
          input = plan;
          items =
            List.mapi
              (fun i (f : Rschema.field) ->
                ({ L.node = L.Col i; ty = f.Rschema.ty }, f.Rschema.name))
              (Array.to_list proj_schema);
          schema = proj_schema;
        }
  in
  match q.A.limit, q.A.offset with
  | None, None -> plan
  | limit, offset ->
    L.Limit { input = plan; limit; offset = Option.value offset ~default:0 }

let bind_query ~catalog ~params q =
  Telemetry.Trace.span "bind" (fun () ->
      bind_query_in { catalog; params; env = []; outer_scope = [] } q)

(* Bind a scalar expression against a single table's columns (UPDATE SET /
   UPDATE-DELETE WHERE clauses). *)
let bind_over_table ~catalog ~params ~schema e =
  let ctx = { catalog; params; env = []; outer_scope = [] } in
  let scope =
    [ { r_alias = None; r_fields = Rschema.of_storage schema } ]
  in
  bind_expr ctx scope plain_mode e

(* ------------------------------------------------------------------ *)
(* Write rules: INSERT ... VALUES, INSERT ... SELECT and UPDATE         *)
(* ------------------------------------------------------------------ *)

let target_positions ~stmt schema = function
  | None -> List.init (Storage.Schema.arity schema) Fun.id
  | Some cols ->
    List.map
      (fun c ->
        match Storage.Schema.index_of schema c with
        | Some i -> i
        | None -> err "unknown column %s in %s" c stmt)
      cols

let cast_cell ~fail ~stmt schema pos v =
  match V.cast v (Storage.Schema.field schema pos).Storage.Schema.ty with
  | Ok v -> v
  | Error m -> raise (fail (stmt ^ ": " ^ m))

let bind_values ~catalog ~params ~schema ~columns rows =
  let ctx = { catalog; params; env = []; outer_scope = [] } in
  let positions = target_positions ~stmt:"INSERT" schema columns in
  List.map
    (fun row ->
      if List.length row <> List.length positions then
        err "INSERT row has %d values, expected %d" (List.length row)
          (List.length positions);
      let cells = Array.make (Storage.Schema.arity schema) V.Null in
      List.iter2
        (fun pos e ->
          let v = Const_eval.eval_exn (bind_expr ctx [] plain_mode e) in
          cells.(pos) <-
            cast_cell ~fail:(fun m -> Bind_error m) ~stmt:"INSERT" schema pos v)
        positions row;
      cells)
    rows
