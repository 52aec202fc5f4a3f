(** Bound (typed) expressions and logical plans.

    The binder turns the untyped SQL AST into these trees; every column
    reference is a positional index into the input schema of the operator
    that evaluates it. The paper's two added operators appear as
    {!constructor:plan.Graph_select} (the graph select σ̂ of §3.1) and
    {!constructor:plan.Graph_join} (the graph join ⋈̂, produced by the
    rewriter from a cross product underneath a graph select).

    Both the type definitions and the constructors are public: plans are
    plain data built by {!Binder}, transformed by {!Rewriter}, rendered by
    {!Explain} and interpreted by the executor. *)

module Dtype = Storage.Dtype
module Value = Storage.Value

type expr = { node : node; ty : Dtype.t }

and node =
  | Const of Value.t
  | Col of int  (** positional reference into the operator's input schema *)
  | Outer_col of int
      (** inside a correlated subquery: a positional reference into the
          schema of the {e enclosing} operator's input (one level up) *)
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
  | Substr  (** [SUBSTR(s, start [, len])], 1-based *)
  | Replace  (** [REPLACE(s, from, to)] *)
  | Trim
  | Ltrim
  | Rtrim
  | Round  (** [ROUND(x [, digits])] *)
  | Floor
  | Ceil
  | Sqrt
  | Power
  | Sign
  | Year  (** date part extractors *)
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
  path_name : string option;
      (** [Some] when the [AS (cost, path)] form asked for the path *)
}

and graph_op = {
  edge : plan;
  edge_src : int list;
      (** S columns within the edge plan (composite keys have several —
          §2's multi-attribute nodes) *)
  edge_dst : int list;  (** D columns *)
  src_exprs : expr list;
      (** X components — over the input (Graph_select) or left (Graph_join) *)
  dst_exprs : expr list;  (** Y components — over the input or right *)
  cheapests : cheapest list;
}

and plan =
  | Scan of { table : string; schema : Rschema.t }
  | One  (** one row, zero columns: the input of a FROM-less SELECT *)
  | Filter of { input : plan; pred : expr }
  | Project of {
      input : plan;
      items : (expr * string) list;
      schema : Rschema.t;
    }
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
val schema_of : plan -> Rschema.t

(** Schema constructors used by binder and rewriter. *)

val graph_select_schema : input:plan -> graph_op -> Rschema.t
val graph_join_schema : left:plan -> right:plan -> graph_op -> Rschema.t

(** Expression utilities. *)

(** [shift_cols delta e]. *)
val shift_cols : int -> expr -> expr

(** [fold_cols f acc e] — fold over all local column references. *)
val fold_cols : ('a -> int -> 'a) -> 'a -> expr -> 'a

(** [cols_used e] — referenced columns as a sorted, deduplicated list. *)
val cols_used : expr -> int list

(** [contains_agg e] — does [e] contain a not-yet-lifted aggregate? *)
val contains_agg : expr -> bool

(** [expr_equal a b] — structural equality (subquery plans compare by
    physical identity; good enough for GROUP BY matching). *)
val expr_equal : expr -> expr -> bool

(** [split_conjuncts e] — flatten a tree of ANDs. *)
val split_conjuncts : expr -> expr list

(** [conjoin es] — AND them back together; [None] for the empty list. *)
val conjoin : expr list -> expr option

val const : Value.t -> Dtype.t -> expr
val bool_const : bool -> expr

(** [plan_uses_outer p] — does any expression of [p] (not counting nested
    correlated subplans, whose outer is [p] itself) reference the
    enclosing scope? Decides correlated vs. uncorrelated classification. *)
val plan_uses_outer : plan -> bool
