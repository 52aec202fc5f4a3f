(** Bound (typed) expressions and logical plans.

    The binder turns the untyped SQL AST into these trees; every column
    reference is a positional index into the input schema of the operator
    that evaluates it. The paper's two added operators appear as
    {!constructor:plan.Graph_select} (σ̂ of §3.1) and
    {!constructor:plan.Graph_join} (⋈̂, produced by the rewriter from
    a cross product underneath a graph select). *)

module Dtype = Storage.Dtype
module Value = Storage.Value

type expr = { node : node; ty : Dtype.t }

and node =
  | Const of Value.t
  | Col of int  (** positional reference into the operator's input schema *)
  | Outer_col of int
      (** inside a correlated subquery: a positional reference into the
          schema of the *enclosing* operator's input (one level up) *)
  | Bin of Sql.Ast.binop * expr * expr
  | Un of Sql.Ast.unop * expr
  | Cast of expr * Dtype.t
  | Case of (expr * expr) list * expr option
  | Call of builtin * expr list
  | Agg_call of { kind : agg_kind; arg : expr option; distinct : bool }
      (** transient: appears only while binding a grouped query, then gets
          lifted into an {!constructor:plan.Aggregate} output column *)
  | Is_null of { negated : bool; arg : expr }
  | In_list of { negated : bool; arg : expr; candidates : expr list }
  | In_subquery of { negated : bool; arg : expr; sub : plan }
      (** [x IN (SELECT ...)], uncorrelated, single column *)
  | Like of { negated : bool; arg : expr; pattern : expr }
  | Subquery of plan  (** uncorrelated scalar subquery: 1 column, <=1 row *)
  | Exists_sub of plan
  | Subquery_corr of plan
      (** correlated scalar subquery: re-evaluated per outer row *)
  | Exists_corr of plan
  | In_subquery_corr of { negated : bool; arg : expr; sub : plan }

and builtin =
  | Abs
  | Upper
  | Lower
  | Length
  | Coalesce
  | Substr   (* SUBSTR(s, start [, len]), 1-based *)
  | Replace  (* REPLACE(s, from, to) *)
  | Trim
  | Ltrim
  | Rtrim
  | Round    (* ROUND(x [, digits]) *)
  | Floor
  | Ceil
  | Sqrt
  | Power
  | Sign
  | Year     (* date part extractors *)
  | Month
  | Day

and agg_kind = Count_star | Count | Sum | Avg | Min | Max

and agg = {
  kind : agg_kind;
  arg : expr option;
  distinct : bool;
  out_name : string;
  out_ty : Dtype.t;
}

and cheapest = {
  weight : expr;  (** over the edge plan's schema; must evaluate > 0 *)
  cost_name : string;
  cost_ty : Dtype.t;  (** TInt, or TFloat for float weights *)
  path_name : string option;  (** Some when the AS (cost, path) form asked for the path *)
}

and graph_op = {
  edge : plan;
  edge_src : int list;  (** S columns within the edge plan (composite keys
                            have several — §2's multi-attribute nodes) *)
  edge_dst : int list;  (** D columns *)
  src_exprs : expr list;  (** X components — over the input (Graph_select)
                              or left (Graph_join) *)
  dst_exprs : expr list;  (** Y components — over the input or right *)
  cheapests : cheapest list;
}

and plan =
  | Scan of { table : string; schema : Rschema.t }
  | One  (** one row, zero columns: the input of a FROM-less SELECT *)
  | Filter of { input : plan; pred : expr }
  | Project of { input : plan; items : (expr * string) list; schema : Rschema.t }
  | Cross of { left : plan; right : plan }
  | Join of {
      left : plan;
      right : plan;
      kind : Sql.Ast.join_kind;
      cond : expr;
    }
  | Aggregate of {
      input : plan;
      keys : (expr * string) list;
      aggs : agg list;
      schema : Rschema.t;
    }
  | Sort of { input : plan; keys : (expr * Sql.Ast.order_dir) list }
  | Distinct of plan
  | Limit of { input : plan; limit : int option; offset : int }
  | Set_op of { op : Sql.Ast.setop; left : plan; right : plan }
      (** UNION [ALL] / INTERSECT / EXCEPT; output schema is the left's *)
  | Rec_ref of { name : string; schema : Rschema.t }
      (** self-reference inside a recursive CTE's step: reads the previous
          iteration's delta (semi-naive evaluation) *)
  | Rec_cte of {
      name : string;
      base : plan;
      step : plan;  (** contains {!constructor:plan.Rec_ref} leaves *)
      distinct : bool;  (** UNION (true) or UNION ALL (false) *)
      schema : Rschema.t;
    }
  | Graph_select of { input : plan; op : graph_op; schema : Rschema.t }
  | Graph_join of {
      left : plan;
      right : plan;
      op : graph_op;
      schema : Rschema.t;
    }
  | Unnest of {
      input : plan;
      path : expr;  (** a TPath-typed expression over the input *)
      edge_schema : Storage.Schema.t;
      ordinality : bool;
      left_outer : bool;
      schema : Rschema.t;
    }

(** [schema_of plan] — the output schema of any plan node. *)
let rec schema_of = function
  | Scan { schema; _ } -> schema
  | One -> [||]
  | Filter { input; _ } | Sort { input; _ } | Limit { input; _ } ->
    schema_of input
  | Distinct input -> schema_of input
  | Set_op { left; _ } -> schema_of left
  | Rec_ref { schema; _ } -> schema
  | Rec_cte { schema; _ } -> schema
  | Project { schema; _ } -> schema
  | Cross { left; right } -> Rschema.append (schema_of left) (schema_of right)
  | Join { left; right; _ } ->
    Rschema.append (schema_of left) (schema_of right)
  | Aggregate { schema; _ } -> schema
  | Graph_select { schema; _ } -> schema
  | Graph_join { schema; _ } -> schema
  | Unnest { schema; _ } -> schema

(** [extras_of_op op] — the Rschema fields a graph operator appends to its
    input: per CHEAPEST SUM, a cost column and optionally a path column. *)
let extras_of_op op =
  let edge_storage = Rschema.to_storage (schema_of op.edge) in
  List.concat_map
    (fun c ->
      let cost =
        { Rschema.name = c.cost_name; ty = c.cost_ty; nested = None }
      in
      match c.path_name with
      | None -> [ cost ]
      | Some p ->
        [
          cost;
          { Rschema.name = p; ty = Dtype.TPath; nested = Some edge_storage };
        ])
    op.cheapests

(** [graph_select_schema ~input op] / [graph_join_schema ~left ~right op] —
    schema constructors used by binder and rewriter. *)
let graph_select_schema ~input op =
  Rschema.append (schema_of input) (Array.of_list (extras_of_op op))

let graph_join_schema ~left ~right op =
  Rschema.append
    (Rschema.append (schema_of left) (schema_of right))
    (Array.of_list (extras_of_op op))

(* ------------------------------------------------------------------ *)
(* Expression utilities                                                *)
(* ------------------------------------------------------------------ *)

(** [map_cols f e] rewrites every column reference through [f]. *)
let rec map_cols f e =
  let recur = map_cols f in
  let node =
    match e.node with
    | Const _ | Subquery _ | Exists_sub _ | Subquery_corr _ | Exists_corr _ ->
      e.node
    | Outer_col _ -> e.node
    | Col i -> Col (f i)
    | Bin (op, a, b) -> Bin (op, recur a, recur b)
    | Un (op, a) -> Un (op, recur a)
    | Cast (a, ty) -> Cast (recur a, ty)
    | Case (arms, default) ->
      Case
        ( List.map (fun (c, v) -> (recur c, recur v)) arms,
          Option.map recur default )
    | Call (b, args) -> Call (b, List.map recur args)
    | Agg_call { kind; arg; distinct } ->
      Agg_call { kind; arg = Option.map recur arg; distinct }
    | Is_null { negated; arg } -> Is_null { negated; arg = recur arg }
    | In_list { negated; arg; candidates } ->
      In_list { negated; arg = recur arg; candidates = List.map recur candidates }
    | In_subquery { negated; arg; sub } ->
      In_subquery { negated; arg = recur arg; sub }
    | In_subquery_corr { negated; arg; sub } ->
      In_subquery_corr { negated; arg = recur arg; sub }
    | Like { negated; arg; pattern } ->
      Like { negated; arg = recur arg; pattern = recur pattern }
  in
  { e with node }

(** [shift_cols delta e]. *)
let shift_cols delta e = map_cols (fun i -> i + delta) e

(** [fold_cols f acc e] — fold over all column references. *)
let rec fold_cols f acc e =
  match e.node with
  | Const _ | Subquery _ | Exists_sub _ | Subquery_corr _ | Exists_corr _ ->
    acc
  | Outer_col _ -> acc
  | Col i -> f acc i
  | Bin (_, a, b) -> fold_cols f (fold_cols f acc a) b
  | Un (_, a) | Cast (a, _) -> fold_cols f acc a
  | Case (arms, default) ->
    let acc =
      List.fold_left
        (fun acc (c, v) -> fold_cols f (fold_cols f acc c) v)
        acc arms
    in
    Option.fold ~none:acc ~some:(fold_cols f acc) default
  | Call (_, args) -> List.fold_left (fold_cols f) acc args
  | Agg_call { arg; _ } -> Option.fold ~none:acc ~some:(fold_cols f acc) arg
  | Is_null { arg; _ } -> fold_cols f acc arg
  | In_list { arg; candidates; _ } ->
    List.fold_left (fold_cols f) (fold_cols f acc arg) candidates
  | In_subquery { arg; _ } | In_subquery_corr { arg; _ } ->
    fold_cols f acc arg
  | Like { arg; pattern; _ } -> fold_cols f (fold_cols f acc arg) pattern

(** [cols_used e] — the set of referenced columns, as a sorted list. *)
let cols_used e =
  List.sort_uniq Int.compare (fold_cols (fun acc i -> i :: acc) [] e)


(** [contains_agg e] — does [e] contain a (not yet lifted) aggregate? *)
let rec contains_agg e =
  match e.node with
  | Agg_call _ -> true
  | Const _ | Col _ | Outer_col _ | Subquery _ | Exists_sub _
  | Subquery_corr _ | Exists_corr _ ->
    false
  | Bin (_, a, b) -> contains_agg a || contains_agg b
  | Un (_, a) | Cast (a, _) -> contains_agg a
  | Case (arms, default) ->
    List.exists (fun (c, v) -> contains_agg c || contains_agg v) arms
    || Option.fold ~none:false ~some:contains_agg default
  | Call (_, args) -> List.exists contains_agg args
  | Is_null { arg; _ } -> contains_agg arg
  | In_list { arg; candidates; _ } ->
    contains_agg arg || List.exists contains_agg candidates
  | In_subquery { arg; _ } | In_subquery_corr { arg; _ } -> contains_agg arg
  | Like { arg; pattern; _ } -> contains_agg arg || contains_agg pattern

(** [expr_equal a b] — structural equality (subquery plans compare by
    physical identity; good enough for GROUP BY matching). *)
let rec expr_equal a b =
  Dtype.equal a.ty b.ty
  &&
  match a.node, b.node with
  | Const x, Const y -> Value.equal x y
  | Col i, Col j -> i = j
  | Bin (o1, a1, b1), Bin (o2, a2, b2) ->
    o1 = o2 && expr_equal a1 a2 && expr_equal b1 b2
  | Un (o1, a1), Un (o2, a2) -> o1 = o2 && expr_equal a1 a2
  | Cast (a1, t1), Cast (a2, t2) -> Dtype.equal t1 t2 && expr_equal a1 a2
  | Case (arms1, d1), Case (arms2, d2) ->
    List.length arms1 = List.length arms2
    && List.for_all2
         (fun (c1, v1) (c2, v2) -> expr_equal c1 c2 && expr_equal v1 v2)
         arms1 arms2
    && Option.equal expr_equal d1 d2
  | Call (b1, args1), Call (b2, args2) ->
    b1 = b2
    && List.length args1 = List.length args2
    && List.for_all2 expr_equal args1 args2
  | ( Agg_call { kind = k1; arg = a1; distinct = d1 },
      Agg_call { kind = k2; arg = a2; distinct = d2 } ) ->
    k1 = k2 && d1 = d2 && Option.equal expr_equal a1 a2
  | Is_null { negated = n1; arg = a1 }, Is_null { negated = n2; arg = a2 } ->
    n1 = n2 && expr_equal a1 a2
  | ( In_list { negated = n1; arg = a1; candidates = c1 },
      In_list { negated = n2; arg = a2; candidates = c2 } ) ->
    n1 = n2 && expr_equal a1 a2
    && List.length c1 = List.length c2
    && List.for_all2 expr_equal c1 c2
  | ( Like { negated = n1; arg = a1; pattern = p1 },
      Like { negated = n2; arg = a2; pattern = p2 } ) ->
    n1 = n2 && expr_equal a1 a2 && expr_equal p1 p2
  | Subquery p1, Subquery p2 -> p1 == p2
  | Exists_sub p1, Exists_sub p2 -> p1 == p2
  | Subquery_corr p1, Subquery_corr p2 -> p1 == p2
  | Exists_corr p1, Exists_corr p2 -> p1 == p2
  | Outer_col i, Outer_col j -> i = j
  | ( In_subquery_corr { negated = n1; arg = a1; sub = s1 },
      In_subquery_corr { negated = n2; arg = a2; sub = s2 } ) ->
    n1 = n2 && expr_equal a1 a2 && s1 == s2
  | ( In_subquery { negated = n1; arg = a1; sub = s1 },
      In_subquery { negated = n2; arg = a2; sub = s2 } ) ->
    n1 = n2 && expr_equal a1 a2 && s1 == s2
  | ( ( Const _ | Col _ | Outer_col _ | Bin _ | Un _ | Cast _ | Case _
      | Call _ | Agg_call _ | Is_null _ | In_list _ | In_subquery _
      | In_subquery_corr _ | Like _ | Subquery _ | Exists_sub _
      | Subquery_corr _ | Exists_corr _ ),
      _ ) ->
    false

(** [split_conjuncts e] — flatten a tree of ANDs. *)
let rec split_conjuncts e =
  match e.node with
  | Bin (Sql.Ast.And, a, b) -> split_conjuncts a @ split_conjuncts b
  | _ -> [ e ]

(** [conjoin es] — AND them back together; [None] for the empty list. *)
let conjoin = function
  | [] -> None
  | e :: rest ->
    Some
      (List.fold_left
         (fun acc c -> { node = Bin (Sql.Ast.And, acc, c); ty = Dtype.TBool })
         e rest)

let const v ty = { node = Const v; ty }
let bool_const b = const (Value.Bool b) Dtype.TBool

(* Does this expression reference the enclosing scope directly? Nested
   correlated subqueries keep their own Outer_cols (they resolve one level
   up from *their* position, not from here). *)
let rec expr_uses_outer e =
  match e.node with
  | Outer_col _ -> true
  | Const _ | Col _ | Subquery _ | Exists_sub _ | Subquery_corr _
  | Exists_corr _ ->
    false
  | Bin (_, a, b) -> expr_uses_outer a || expr_uses_outer b
  | Un (_, a) | Cast (a, _) -> expr_uses_outer a
  | Case (arms, default) ->
    List.exists (fun (c, v) -> expr_uses_outer c || expr_uses_outer v) arms
    || Option.fold ~none:false ~some:expr_uses_outer default
  | Call (_, args) -> List.exists expr_uses_outer args
  | Agg_call { arg; _ } -> Option.fold ~none:false ~some:expr_uses_outer arg
  | Is_null { arg; _ } -> expr_uses_outer arg
  | In_list { arg; candidates; _ } ->
    expr_uses_outer arg || List.exists expr_uses_outer candidates
  | In_subquery { arg; _ } | In_subquery_corr { arg; _ } -> expr_uses_outer arg
  | Like { arg; pattern; _ } -> expr_uses_outer arg || expr_uses_outer pattern

(** [plan_uses_outer p] — does any expression of [p] (not counting nested
    correlated subplans, whose outer is [p] itself) reference the
    enclosing scope? Decides correlated vs. uncorrelated classification. *)
let rec plan_uses_outer = function
  | Scan _ | One | Rec_ref _ -> false
  | Filter { input; pred } -> plan_uses_outer input || expr_uses_outer pred
  | Project { input; items; _ } ->
    plan_uses_outer input || List.exists (fun (e, _) -> expr_uses_outer e) items
  | Cross { left; right } -> plan_uses_outer left || plan_uses_outer right
  | Join { left; right; cond; _ } ->
    plan_uses_outer left || plan_uses_outer right || expr_uses_outer cond
  | Aggregate { input; keys; aggs; _ } ->
    plan_uses_outer input
    || List.exists (fun (e, _) -> expr_uses_outer e) keys
    || List.exists
         (fun a -> Option.fold ~none:false ~some:expr_uses_outer a.arg)
         aggs
  | Sort { input; keys } ->
    plan_uses_outer input || List.exists (fun (e, _) -> expr_uses_outer e) keys
  | Distinct p -> plan_uses_outer p
  | Limit { input; _ } -> plan_uses_outer input
  | Set_op { left; right; _ } -> plan_uses_outer left || plan_uses_outer right
  | Rec_cte { base; step; _ } -> plan_uses_outer base || plan_uses_outer step
  | Graph_select { input; op; _ } -> plan_uses_outer input || op_uses_outer op
  | Graph_join { left; right; op; _ } ->
    plan_uses_outer left || plan_uses_outer right || op_uses_outer op
  | Unnest { input; path; _ } -> plan_uses_outer input || expr_uses_outer path

and op_uses_outer op =
  plan_uses_outer op.edge
  || List.exists expr_uses_outer op.src_exprs
  || List.exists expr_uses_outer op.dst_exprs
  || List.exists (fun c -> expr_uses_outer c.weight) op.cheapests
