(** The physical layer: a fully-materialising columnar interpreter for
    bound plans, mirroring MonetDB's execution model ("all intermediate
    results are fully materialised by its operators", §3.3).

    Joins hash on extracted equi-conjuncts and fall back to nested loops;
    graph operators drive {!Graph.Runtime}; an optional {!Graph_index}
    store lets REACHES predicates over indexed base tables skip the
    dominating graph-construction phase. *)

(** Per-execution counters; {!counters} says what each one means and
    where it surfaces. Traversal, scheduler and pool counts are each
    batch's own ({!Graph.Runtime.counts}), added as the batch joins, so a
    statement is never charged for another session's batch on a shared
    cached graph. [gov_*] are filled in by [Sqlgraph.Db] after each
    governed run; [gov_budget_remaining_ms] is [nan] without a timeout.
    All timings use the shared wall clock ([Unix.gettimeofday]). *)
type stats = {
  mutable graph_build_seconds : float;
  mutable graph_traverse_seconds : float;
  mutable graphs_built : int;
  mutable build_dict_seconds : float;
  mutable build_encode_seconds : float;
  mutable build_csr_seconds : float;
  mutable index_hits : int;
  mutable index_misses : int;
  mutable trav_searches : int;
  mutable trav_settled : int;
  mutable trav_peak_frontier : int;
  mutable trav_edges : int;
  mutable trav_waves : int;
  mutable trav_dir_switches : int;
  mutable trav_tasks : int;  (** work-stealing scheduler task executions *)
  mutable trav_steals : int;  (** successful steals between workers *)
  mutable trav_splits : int;  (** adaptive task splits (continuations) *)
  mutable pool_hits : int;
  mutable pool_misses : int;
  mutable vec_ops : int;
  mutable row_ops : int;
  mutable gov_checks : int;
  mutable gov_steps : int;
  mutable gov_peak_frontier : int;
  mutable gov_paths : int;
  mutable gov_budget_remaining_ms : float;
}

(** {2 The counter declaration}

    {!counters} is the one list every statement-counter surface renders
    from: the session registry ([Sqlgraph.Db]), the ["stats"] object of
    the sqlgraph-metrics-v1 JSON, the counter columns of
    [sqlgraph_stat_statements] and the CLI's [\stats]. A counter is a
    {!stats} field, its increment and its row here; a traversal counter
    is bumped on a {!Graph.Workspace.counters} field and summed per batch
    into {!stats} by the executor. *)

(** [Count]: summed. [Seconds]: wall-clock seconds, summed. [Peak]: the
    largest value seen. [Gauge]: a level in milliseconds, [nan] when
    unset. [Count] and [Peak] read as [Int], the others as [Float]. *)
type kind = Count | Seconds | Peak | Gauge

type value = Int of int | Float of float

(** Added to a registry counter, or observed into a registry histogram
    when the guard holds. *)
type registry = Total of string | Histogram of string * (stats -> bool)

type counter = {
  json : string list;
      (** key in the metrics JSON ["stats"] object, or group and key of a
          nested one; a group's rows are adjacent *)
  registry : registry option;
  column : string option;  (** [sqlgraph_stat_statements]; [Count] only *)
  line : (string * string) option;
      (** [\stats] line label and key; key [""] prints the bare value *)
  note : string option;
      (** EXPLAIN ANALYZE operator note that sums (for [Peak]: maxes) to
          this counter *)
  help : string;  (** also the registry help string *)
  kind : kind;
  get : stats -> value;
}

(** In the order of the metrics JSON ["stats"] object. *)
val counters : counter list

type ctx

(** One completed operator of a traced execution (EXPLAIN ANALYZE).
    Entries are emitted in completion (post-) order; [tr_depth] lets a
    renderer rebuild the tree ({!Relalg.Explain.annotated_tree}). *)
type trace_entry = {
  tr_depth : int;  (** nesting depth in the plan tree *)
  tr_label : string;
  tr_rows : int;  (** output cardinality *)
  tr_seconds : float;  (** wall-clock, inclusive of children *)
  tr_detail : (string * string) list;
      (** operator-specific counters: graph build phases, cache outcome,
          traversal counts, evaluation dispatch, ... *)
}

(** [create_ctx ~catalog ~indices ~vectorize ~tracing ~domains ~check ()].
    [vectorize] (default true) tries the column-at-a-time evaluator
    ({!Vectorized}) before the row-at-a-time fallback — the MonetDB-style
    execution path. [tracing] (default false) records a {!trace_entry} per
    executed operator. [domains] (default 1, clamped to >= 1) is the
    traversal parallelism forwarded to {!Graph.Runtime.run_pairs}.
    [check] (default {!Graph.Cancel.none}) is the cooperative cancellation
    checkpoint, fired per operator ("interp"), per recursive-CTE round
    ("rec_cte"), every N join/cross pairs ("join"/"cross"), per vectorized
    primitive ("vectorized"), before graph construction ("graph_build"),
    and inside every graph kernel ("bfs"/"dijkstra"/"all_paths"); raising
    from it unwinds the execution (domains are joined first). *)
val create_ctx :
  catalog:Storage.Catalog.t ->
  ?indices:Graph_index.t ->
  ?vectorize:bool ->
  ?tracing:bool ->
  ?domains:int ->
  ?check:Graph.Cancel.checkpoint ->
  unit ->
  ctx

val stats : ctx -> stats

(** [trace ctx] — completed operators in completion (post-) order; empty
    unless the context was created with [~tracing:true]. *)
val trace : ctx -> trace_entry list

(** [run ?outer ctx plan] — execute to a materialised table. [outer]
    supplies the enclosing row context when [plan] is the body of a
    correlated subquery. Raises {!Relalg.Scalar.Runtime_error} for runtime
    faults (division by zero, scalar subquery cardinality, non-positive
    shortest-path weights, ...). *)
val run : ?outer:Eval.env -> ctx -> Relalg.Lplan.plan -> Storage.Table.t
