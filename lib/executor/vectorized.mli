(** Column-at-a-time expression evaluation — MonetDB's execution style
    (the substrate the paper built on evaluates whole columns per
    primitive, not rows). A supported expression evaluates over unboxed
    int/float/bool arrays with a separate null mask, skipping the
    per-row {!Storage.Value.t} boxing of the generic evaluator.

    Supported today: integer and float arithmetic ([+ - *]) over columns
    and constants, [CAST] between INTEGER and FLOAT (truncating toward
    zero, as {!Storage.Value.cast}), comparisons between them,
    [AND]/[OR]/[NOT] over the results, [IS NULL], and plain
    column/constant projection. Anything else returns [None] and the
    caller falls back to {!Eval}. *)

(** [eval_column ?check table e] — [Some column] when [e] is in the
    vectorizable subset; the result is pointwise identical (including NULL
    semantics) to {!Eval.eval_column}. [check] (site "vectorized") fires
    once per primitive as a cooperative cancellation point. *)
val eval_column :
  ?check:Graph.Cancel.checkpoint ->
  Storage.Table.t ->
  Relalg.Lplan.expr ->
  Storage.Column.t option

(** [eval_filter ?check table pred] — [Some kept_rows] for vectorizable
    predicates, matching {!Eval.eval_filter}. *)
val eval_filter :
  ?check:Graph.Cancel.checkpoint ->
  Storage.Table.t ->
  Relalg.Lplan.expr ->
  int array option
