(** The semantic phase (the paper's §3.1 "compiler" work): name resolution,
    type checking, and translation of the AST into a logical plan.

    Graph-specific rules enforced here, straight from §2:
    - [REACHES] predicates must be top-level [WHERE] conjuncts;
      each becomes a graph-select operator.
    - [E.S], [E.D], [X] and [Y] must all have the same type.
    - [CHEAPEST SUM] is only legal in the projection clause; its weight
      expression is bound against the edge table of the REACHES predicate
      it refers to (by tuple variable, or implicitly when there is exactly
      one), and must be numeric.
    - The [AS (cost, path)] form yields two output columns, the path one
      typed as a nested table over the edge schema.
    - [UNNEST] arguments must be path-typed columns; [WITH ORDINALITY]
      appends a 1-based [INTEGER] column.

    Host parameters are substituted at bind time, so a query is bound per
    execution (prepared-statement style). *)

exception Bind_error of string

(** [bind_query ~catalog ~params q] — plan for a SELECT query.
    Raises {!Bind_error} (semantic errors) — parameter count mismatches
    included. *)
val bind_query :
  catalog:Storage.Catalog.t ->
  params:Storage.Value.t array ->
  Sql.Ast.query ->
  Lplan.plan

(** [bind_over_table ~catalog ~params ~schema e] — bind a scalar
    expression whose columns resolve against one table's schema (used by
    UPDATE assignments and UPDATE/DELETE WHERE clauses). *)
val bind_over_table :
  catalog:Storage.Catalog.t ->
  params:Storage.Value.t array ->
  schema:Storage.Schema.t ->
  Sql.Ast.expr ->
  Lplan.expr

(** [target_positions ~stmt schema columns] — the schema positions an
    INSERT's optional column list (or an UPDATE's assigned columns)
    writes: every column in order for [None]. Raises {!Bind_error}
    ["unknown column c in <stmt>"]. *)
val target_positions :
  stmt:string -> Storage.Schema.t -> string list option -> int list

(** [cast_cell ~fail ~stmt schema pos v] — [v] cast to the type of
    column [pos]; raises [fail "<stmt>: <reason>"] when it does not cast.
    The one cast rule of INSERT ... VALUES ([fail] = {!Bind_error}),
    INSERT ... SELECT and UPDATE ({!Scalar.Runtime_error}). *)
val cast_cell :
  fail:(string -> exn) ->
  stmt:string ->
  Storage.Schema.t ->
  int ->
  Storage.Value.t ->
  Storage.Value.t

(** [bind_values ~catalog ~params ~schema ~columns rows] — typecheck and
    evaluate the rows of an [INSERT ... VALUES] against a table schema
    ([columns] is the optional explicit column list). Returns full-width
    rows in schema order, missing columns filled with NULL. *)
val bind_values :
  catalog:Storage.Catalog.t ->
  params:Storage.Value.t array ->
  schema:Storage.Schema.t ->
  columns:string list option ->
  Sql.Ast.expr list list ->
  Storage.Value.t array list
