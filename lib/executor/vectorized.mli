(** Column-at-a-time expression evaluation — MonetDB's execution style
    (the substrate the paper built on evaluates whole columns per
    primitive, not rows). A supported expression evaluates over unboxed
    int/float/bool arrays with a separate null mask, skipping the
    per-row {!Storage.Value.t} boxing of the generic evaluator.

    Supported today: integer and float arithmetic ([+ - *]) over columns
    and constants, [CAST] between INTEGER and FLOAT (truncating toward
    zero, as {!Storage.Value.cast}), comparisons between them (floats
    ordered as {!Storage.Value.compare} orders them),
    [AND]/[OR]/[NOT] over the results, [IS NULL], and plain
    column/constant projection. Anything else returns [None] and the
    caller falls back to {!Eval}.

    Columns are read in place, over the table's rows only: no operand is
    copied, and a constant is never spread over the rows. *)

(** [eval_column ?check table e] — [Some column] when [e] is in the
    vectorizable subset; the result is pointwise identical (including NULL
    semantics) to {!Eval.eval_column}. It allocates one result array; a
    bare column comes back as its O(1) {!Storage.Column.copy}, which
    shares the table's storage without owning it. [check] (site
    "vectorized") fires once per primitive as a cooperative cancellation
    point. *)
val eval_column :
  ?check:Graph.Cancel.checkpoint ->
  Storage.Table.t ->
  Relalg.Lplan.expr ->
  Storage.Column.t option

(** [eval_filter ?check table pred] — [Some kept_rows] for vectorizable
    predicates, matching {!Eval.eval_filter}. It allocates the array of
    kept rows and nothing the size of the table, unless [pred] holds
    arithmetic or a CAST that changes a payload. *)
val eval_filter :
  ?check:Graph.Cancel.checkpoint ->
  Storage.Table.t ->
  Relalg.Lplan.expr ->
  int array option
