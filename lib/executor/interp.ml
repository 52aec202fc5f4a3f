module L = Relalg.Lplan
module V = Storage.Value
module T = Storage.Table
module C = Storage.Column

let rerror fmt = Printf.ksprintf (fun s -> raise (Relalg.Scalar.Runtime_error s)) fmt

(* All instrumentation timings share one wall-clock source with the graph
   runtime's build stats and Db's \timing, so phase times are additive. *)
let now = Unix.gettimeofday

type stats = {
  mutable graph_build_seconds : float;
  mutable graph_traverse_seconds : float;
  mutable graphs_built : int;
  mutable build_dict_seconds : float;
  mutable build_encode_seconds : float;
  mutable build_csr_seconds : float;
  mutable build_reverse_seconds : float;
  mutable index_hits : int;
  mutable index_misses : int;
  mutable reverses_derived : int;
  mutable trav_searches : int;
  mutable trav_settled : int;
  mutable trav_peak_frontier : int;
  mutable trav_edges : int;
  mutable trav_waves : int;
  mutable trav_dir_switches : int;
  mutable trav_tasks : int;
  mutable trav_steals : int;
  mutable trav_splits : int;
  mutable pool_hits : int;
  mutable pool_misses : int;
  mutable vec_ops : int;
  mutable row_ops : int;
  (* copied in by Db from the governor after each run *)
  mutable gov_checks : int;
  mutable gov_steps : int;
  mutable gov_peak_frontier : int;
  mutable gov_paths : int;
  mutable gov_budget_remaining_ms : float;
}

(* The counter declaration: one row per counter, in the order of the
   sqlgraph-metrics-v1 "stats" object, naming it on every surface (see
   interp.mli). Db, Metrics and the CLI render from this list only. *)
type kind = Count | Seconds | Peak | Gauge
type value = Int of int | Float of float
type registry = Total of string | Histogram of string * (stats -> bool)

type counter = {
  json : string list;
  registry : registry option;
  column : string option;
  line : (string * string) option;
  note : string option;
  help : string;
  kind : kind;
  get : stats -> value;
}

let counters =
  let row ?registry ?column ?line ?note json kind help get =
    { json; registry; column; line; note; help; kind; get }
  in
  [
    row [ "graph_build_seconds" ] Seconds
      "Graph construction time per statement (seconds)"
      ~registry:
        (Histogram
           ("sqlgraph_graph_build_seconds", fun s -> s.graphs_built > 0))
      ~line:("build", "") (fun s -> Float s.graph_build_seconds);
    row [ "graph_traverse_seconds" ] Seconds
      "Traversal time per statement (seconds)" ~note:"traverse"
      ~registry:
        (Histogram
           ( "sqlgraph_graph_traverse_seconds",
             fun s -> s.trav_searches > 0 || s.trav_waves > 0 ))
      ~line:("traverse", "") (fun s -> Float s.graph_traverse_seconds);
    row [ "graphs_built" ] Count "Graphs built (dict+encode+CSR)"
      ~registry:(Total "sqlgraph_graphs_built_total")
      ~line:("graphs", "built") (fun s -> Int s.graphs_built);
    row [ "graphs_reused" ] Count "Graph-index cache hits"
      ~registry:(Total "sqlgraph_graphs_reused_total")
      ~line:("graphs", "reused") (fun s -> Int s.index_hits);
    row [ "build_phases"; "dict_seconds" ] Seconds "Graph build: dictionary"
      ~line:("build", "dict") ~note:"dict"
      (fun s -> Float s.build_dict_seconds);
    row [ "build_phases"; "encode_seconds" ] Seconds "Graph build: encoding"
      ~line:("build", "encode") ~note:"encode"
      (fun s -> Float s.build_encode_seconds);
    row [ "build_phases"; "csr_seconds" ] Seconds "Graph build: CSR"
      ~line:("build", "csr") ~note:"csr" (fun s -> Float s.build_csr_seconds);
    row [ "build_phases"; "reverse_seconds" ] Seconds "Graph build: reverse CSR"
      ~line:("build", "reverse") ~note:"rev"
      (fun s -> Float s.build_reverse_seconds);
    row [ "graph_index"; "hits" ] Count "Graph-index lookups served cached"
      ~column:"index_hits" ~line:("index", "hits") (fun s -> Int s.index_hits);
    row [ "graph_index"; "misses" ] Count "Graph-index misses: built/extended"
      ~column:"index_misses" ~line:("index", "misses")
      (fun s -> Int s.index_misses);
    row [ "graph_index"; "reverses_derived" ] Count
      "Reverse CSRs derived from the extended graph's, not rebuilt"
      ~registry:(Total "sqlgraph_graph_reverses_derived_total")
      ~column:"reverses_derived" ~line:("index", "reverses_derived")
      (fun s -> Int s.reverses_derived);
    row [ "traversal"; "searches" ] Count "Single-source searches run"
      ~registry:(Total "sqlgraph_traversal_searches_total") ~note:"groups"
      ~line:("traversal", "searches") (fun s -> Int s.trav_searches);
    row [ "traversal"; "settled" ] Count "Vertices settled across traversals"
      ~registry:(Total "sqlgraph_traversal_settled_total") ~note:"settled"
      ~line:("traversal", "settled") (fun s -> Int s.trav_settled);
    row [ "traversal"; "peak_frontier" ] Peak "Largest frontier of any batch"
      ~line:("traversal", "peak_frontier") ~note:"peak_frontier"
      (fun s -> Int s.trav_peak_frontier);
    row [ "traversal"; "edges_scanned" ] Count "Edges scanned across traversals"
      ~registry:(Total "sqlgraph_traversal_edges_scanned_total")
      ~line:("traversal", "edges_scanned") ~note:"edges_scanned"
      (fun s -> Int s.trav_edges);
    row [ "traversal"; "batched_waves" ] Count "MS-BFS waves run"
      ~registry:(Total "sqlgraph_traversal_waves_total") ~column:"waves"
      ~line:("traversal", "batched_waves") ~note:"batched_waves"
      (fun s -> Int s.trav_waves);
    row [ "traversal"; "dir_switches" ] Count "Direction-optimizing switches"
      ~registry:(Total "sqlgraph_traversal_dir_switches_total")
      ~line:("traversal", "dir_switches") ~note:"dir_switches"
      (fun s -> Int s.trav_dir_switches);
    row [ "scheduler"; "tasks" ] Count "Work-stealing scheduler tasks executed"
      ~registry:(Total "sqlgraph_sched_tasks_total") ~note:"tasks"
      ~line:("scheduler", "tasks") (fun s -> Int s.trav_tasks);
    row [ "scheduler"; "steals" ] Count
      "Work-stealing scheduler successful steals"
      ~registry:(Total "sqlgraph_sched_steals_total") ~column:"steals"
      ~line:("scheduler", "steals") ~note:"steals" (fun s -> Int s.trav_steals);
    row [ "scheduler"; "splits" ] Count
      "Work-stealing scheduler adaptive task splits"
      ~registry:(Total "sqlgraph_sched_splits_total") ~note:"splits"
      ~line:("scheduler", "splits") (fun s -> Int s.trav_splits);
    row [ "workspace_pool"; "hits" ] Count "Workspace pool reuses"
      ~registry:(Total "sqlgraph_workspace_pool_hits_total")
      ~line:("workspace pool", "hits") (fun s -> Int s.pool_hits);
    row [ "workspace_pool"; "misses" ] Count "Workspace pool allocations"
      ~registry:(Total "sqlgraph_workspace_pool_misses_total")
      ~line:("workspace pool", "misses") (fun s -> Int s.pool_misses);
    row [ "evaluation"; "vectorized_ops" ] Count "Vectorized evaluation ops"
      ~registry:(Total "sqlgraph_vectorized_ops_total") ~note:"vectorized"
      ~line:("evaluation", "vectorized") (fun s -> Int s.vec_ops);
    row [ "evaluation"; "row_ops" ] Count "Row-at-a-time evaluation ops"
      ~registry:(Total "sqlgraph_row_ops_total") ~note:"row_eval"
      ~line:("evaluation", "row") (fun s -> Int s.row_ops);
    row [ "governor"; "checks" ] Count "Governor checkpoints evaluated"
      ~registry:(Total "sqlgraph_governor_checks_total")
      ~line:("governor", "checks") (fun s -> Int s.gov_checks);
    row [ "governor"; "steps" ] Count "Governor: traversal steps"
      ~line:("governor", "steps") (fun s -> Int s.gov_steps);
    row [ "governor"; "peak_frontier" ] Peak "Governor: largest frontier"
      ~line:("governor", "peak_frontier") (fun s -> Int s.gov_peak_frontier);
    row [ "governor"; "paths" ] Count "Governor: paths enumerated"
      ~line:("governor", "paths") (fun s -> Int s.gov_paths);
    row [ "governor"; "budget_remaining_ms" ] Gauge
      "Governor: wall-clock budget left (ms)"
      ~line:("governor", "budget_remaining")
      (fun s -> Float s.gov_budget_remaining_ms);
  ]

(* EXPLAIN ANALYZE instrumentation: one entry per completed operator.
   Entries are emitted in completion (post-) order; [tr_depth] lets a
   renderer rebuild the tree (see Relalg.Explain.annotated_tree). *)
type trace_entry = {
  tr_depth : int;
  tr_label : string;
  tr_rows : int;
  tr_seconds : float;
  tr_detail : (string * string) list;
      (* operator-specific counters: graph build phases, cache outcome,
         traversal counts, evaluation dispatch, ... *)
}

type ctx = {
  catalog : Storage.Catalog.t;
  indices : Graph_index.t;
  vectorize : bool;
      (* try the column-at-a-time evaluator before the row-at-a-time one *)
  tracing : bool;
  domains : int;
      (* traversal parallelism (SET parallelism / --domains), forwarded to
         Graph.Runtime.run_pairs; 1 = serial *)
  check : Graph.Cancel.checkpoint;
      (* cooperative cancellation: fired per operator, per fixpoint
         iteration, per N join/cross pairs, and inside every graph kernel *)
  st : stats;
  mutable subquery_memo : (L.plan * T.t) list;
  mutable rec_deltas : (string * T.t) list;
      (* working tables of in-flight recursive CTEs, innermost first *)
  mutable trace_depth : int;
  mutable trace_log : trace_entry list; (* completion order, reversed *)
  mutable trace_notes : (string * string) list;
      (* pending detail for the operator currently executing, reversed *)
}

let create_ctx ~catalog ?(indices = Graph_index.create ()) ?(vectorize = true)
    ?(tracing = false) ?(domains = 1) ?(check = Graph.Cancel.none) () =
  {
    catalog;
    indices;
    vectorize;
    tracing;
    domains = max 1 domains;
    check;
    trace_depth = 0;
    trace_log = [];
    trace_notes = [];
    st =
      {
        graph_build_seconds = 0.;
        graph_traverse_seconds = 0.;
        graphs_built = 0;
        build_dict_seconds = 0.;
        build_encode_seconds = 0.;
        build_csr_seconds = 0.;
        build_reverse_seconds = 0.;
        index_hits = 0;
        index_misses = 0;
        reverses_derived = 0;
        trav_searches = 0;
        trav_settled = 0;
        trav_peak_frontier = 0;
        trav_edges = 0;
        trav_waves = 0;
        trav_dir_switches = 0;
        trav_tasks = 0;
        trav_steals = 0;
        trav_splits = 0;
        pool_hits = 0;
        pool_misses = 0;
        vec_ops = 0;
        row_ops = 0;
        gov_checks = 0;
        gov_steps = 0;
        gov_peak_frontier = 0;
        gov_paths = 0;
        gov_budget_remaining_ms = Float.nan;
      };
    subquery_memo = [];
    rec_deltas = [];
  }

let stats ctx = ctx.st
let trace ctx = List.rev ctx.trace_log

(* Attach a detail pair to the operator currently being traced. *)
let note ctx key value =
  if ctx.tracing then ctx.trace_notes <- (key, value) :: ctx.trace_notes

let note_ms ctx key seconds =
  note ctx key (Printf.sprintf "%.3fms" (seconds *. 1000.))

(* Increment an integer-valued detail (e.g. vectorized-primitive counts). *)
let note_count ctx key =
  if ctx.tracing then begin
    let rec bump = function
      | [] -> [ (key, "1") ]
      | (k, v) :: rest when String.equal k key ->
        (k, string_of_int (1 + int_of_string v)) :: rest
      | kv :: rest -> kv :: bump rest
    in
    ctx.trace_notes <- bump ctx.trace_notes
  end

(* Group keys are lists of cells. *)
module Vkey = struct
  type t = V.t list

  let equal a b = List.length a = List.length b && List.for_all2 V.equal a b

  let hash vs =
    List.fold_left (fun acc v -> (acc * 31) + V.hash v) 17 vs
end

module Vkey_tbl = Hashtbl.Make (Vkey)

module Vtbl = Hashtbl.Make (struct
  type t = V.t

  let equal = V.equal
  let hash = V.hash
end)

(* ------------------------------------------------------------------ *)
(* Aggregate states                                                    *)
(* ------------------------------------------------------------------ *)

type agg_state = {
  mutable a_count : int; (* rows for COUNT STAR, non-null args otherwise *)
  mutable a_sum_i : int;
  mutable a_sum_f : float;
  mutable a_min : V.t;
  mutable a_max : V.t;
  a_seen : unit Vtbl.t option; (* distinct-value filter for DISTINCT aggs *)
}

let fresh_state (a : L.agg) =
  {
    a_count = 0;
    a_sum_i = 0;
    a_sum_f = 0.;
    a_min = V.Null;
    a_max = V.Null;
    a_seen = (if a.L.distinct then Some (Vtbl.create 16) else None);
  }

let update_state (a : L.agg) st value =
  let fresh_distinct =
    match st.a_seen with
    | None -> true
    | Some seen ->
      if V.is_null value || Vtbl.mem seen value then false
      else begin
        Vtbl.add seen value ();
        true
      end
  in
  if fresh_distinct then
  match a.L.kind with
  | L.Count_star -> st.a_count <- st.a_count + 1
  | L.Count -> if not (V.is_null value) then st.a_count <- st.a_count + 1
  | L.Sum | L.Avg ->
    if not (V.is_null value) then begin
      st.a_count <- st.a_count + 1;
      (match value with
      | V.Int x ->
        st.a_sum_i <- st.a_sum_i + x;
        st.a_sum_f <- st.a_sum_f +. float_of_int x
      | V.Float x -> st.a_sum_f <- st.a_sum_f +. x
      | v -> rerror "SUM/AVG over non-numeric value %s" (V.to_display v))
    end
  | L.Min ->
    if not (V.is_null value) then
      if V.is_null st.a_min || V.compare value st.a_min < 0 then
        st.a_min <- value
  | L.Max ->
    if not (V.is_null value) then
      if V.is_null st.a_max || V.compare value st.a_max > 0 then
        st.a_max <- value

let finish_state (a : L.agg) st =
  match a.L.kind with
  | L.Count_star | L.Count -> V.Int st.a_count
  | L.Sum ->
    if st.a_count = 0 then V.Null
    else if Storage.Dtype.equal a.L.out_ty Storage.Dtype.TFloat then
      V.Float st.a_sum_f
    else V.Int st.a_sum_i
  | L.Avg ->
    if st.a_count = 0 then V.Null
    else V.Float (st.a_sum_f /. float_of_int st.a_count)
  | L.Min -> st.a_min
  | L.Max -> st.a_max

(* ------------------------------------------------------------------ *)
(* The interpreter                                                     *)
(* ------------------------------------------------------------------ *)

(* Add one traversal batch's own counts to the statement's stats. *)
let add_batch st (c : Graph.Runtime.counts) ~seconds =
  let w = c.Graph.Runtime.trav in
  st.graph_traverse_seconds <- st.graph_traverse_seconds +. seconds;
  st.trav_searches <- st.trav_searches + w.Graph.Workspace.searches;
  st.trav_settled <- st.trav_settled + w.Graph.Workspace.settled;
  st.trav_peak_frontier <-
    max st.trav_peak_frontier w.Graph.Workspace.peak_frontier;
  st.trav_edges <- st.trav_edges + w.Graph.Workspace.edges_scanned;
  st.trav_waves <- st.trav_waves + w.Graph.Workspace.waves;
  st.trav_dir_switches <- st.trav_dir_switches + w.Graph.Workspace.dir_switches;
  st.trav_tasks <- st.trav_tasks + c.Graph.Runtime.tasks;
  st.trav_steals <- st.trav_steals + c.Graph.Runtime.steals;
  st.trav_splits <- st.trav_splits + c.Graph.Runtime.splits;
  st.pool_hits <- st.pool_hits + c.Graph.Runtime.pool_hits;
  st.pool_misses <- st.pool_misses + c.Graph.Runtime.pool_misses

let node_label = function
  | L.Scan { table; _ } -> "Scan " ^ table
  | L.One -> "One"
  | L.Filter _ -> "Filter"
  | L.Project _ -> "Project"
  | L.Cross _ -> "Cross"
  | L.Join { kind = Sql.Ast.Inner; _ } -> "InnerJoin"
  | L.Join { kind = Sql.Ast.Left_outer; _ } -> "LeftJoin"
  | L.Aggregate _ -> "Aggregate"
  | L.Sort _ -> "Sort"
  | L.Distinct _ -> "Distinct"
  | L.Limit _ -> "Limit"
  | L.Set_op { op = Sql.Ast.Union; _ } -> "Union"
  | L.Set_op { op = Sql.Ast.Union_all; _ } -> "UnionAll"
  | L.Set_op { op = Sql.Ast.Intersect; _ } -> "Intersect"
  | L.Set_op { op = Sql.Ast.Except; _ } -> "Except"
  | L.Rec_ref { name; _ } -> "RecRef " ^ name
  | L.Rec_cte { name; _ } -> "RecursiveCte " ^ name
  | L.Graph_select _ -> "GraphSelect"
  | L.Graph_join _ -> "GraphJoin"
  | L.Unnest _ -> "Unnest"

let rec run ?outer ctx (plan : L.plan) : T.t =
  (* Session tracing (Telemetry.Trace) is independent of EXPLAIN
     ANALYZE's [ctx.tracing]: either may be on; when both are off this
     is one atomic load on top of [run_node]. *)
  let spanning = Telemetry.Trace.enabled () in
  if not (ctx.tracing || spanning) then run_node ?outer ctx plan
  else if not ctx.tracing then
    Telemetry.Trace.span (node_label plan) (fun () ->
        run_node ?outer ctx plan)
  else begin
    let sp =
      if spanning then Telemetry.Trace.begin_span (node_label plan) else -1
    in
    let depth = ctx.trace_depth in
    let saved_notes = ctx.trace_notes in
    ctx.trace_depth <- depth + 1;
    ctx.trace_notes <- [];
    let t0 = now () in
    let result =
      Fun.protect
        ~finally:(fun () ->
          ctx.trace_depth <- depth;
          Telemetry.Trace.end_span sp)
        (fun () -> run_node ?outer ctx plan)
    in
    let detail = List.rev ctx.trace_notes in
    ctx.trace_notes <- saved_notes;
    ctx.trace_log <-
      {
        tr_depth = depth;
        tr_label = node_label plan;
        tr_rows = T.nrows result;
        tr_seconds = now () -. t0;
        tr_detail = detail;
      }
      :: ctx.trace_log;
    result
  end

and run_node ?outer ctx (plan : L.plan) : T.t =
  (* [outer] is the enclosing row context when this plan is the body of a
     correlated subquery; it flows into every expression evaluation. *)
  Graph.Cancel.report ctx.check ~site:"interp" ~steps:1 ();
  match plan with
  | L.Scan { table; _ } -> (
    match Storage.Catalog.find ctx.catalog table with
    | Some t -> t
    | None -> (
      (* virtual system tables materialize fresh per scan *)
      match Storage.Catalog.virtual_provider ctx.catalog table with
      | Some provider -> provider ()
      | None -> rerror "table %s disappeared during execution" table))
  | L.One ->
    (* a single anonymous row feeding FROM-less SELECTs; the hidden column
       is never referenced (the binder gives One an empty schema) *)
    T.of_rows
      (Storage.Schema.of_pairs [ ("$one", Storage.Dtype.TInt) ])
      [ [ V.Int 0 ] ]
  | L.Filter { input; pred } ->
    let t = run ?outer ctx input in
    T.take t (eval_filter ?outer ctx t pred)
  | L.Project { input; items; schema } ->
    let t = run ?outer ctx input in
    let cols = List.map (fun (e, _) -> eval_column ?outer ctx t e) items in
    T.of_columns ~nrows:(T.nrows t) (Relalg.Rschema.to_storage schema) cols
  | L.Cross { left; right } ->
    let lt = run ?outer ctx left and rt = run ?outer ctx right in
    let nl = T.nrows lt and nr = T.nrows rt in
    let lidx = Array.make (nl * nr) 0 and ridx = Array.make (nl * nr) 0 in
    let tk = Graph.Cancel.ticker ~interval:4096 ctx.check ~site:"cross" in
    let k = ref 0 in
    for i = 0 to nl - 1 do
      for j = 0 to nr - 1 do
        lidx.(!k) <- i;
        ridx.(!k) <- j;
        incr k;
        Graph.Cancel.tick tk ~frontier:0
      done
    done;
    T.concat_horizontal (T.take lt lidx) (T.take rt ridx)
  | L.Join { left; right; kind; cond } ->
    exec_join ?outer ctx left right kind cond
  | L.Aggregate { input; keys; aggs; schema } ->
    exec_aggregate ?outer ctx input keys aggs schema
  | L.Sort { input; keys } -> exec_sort ?outer ctx input keys
  | L.Distinct input ->
    let t = run ?outer ctx input in
    let seen = Vkey_tbl.create 64 in
    let kept = ref [] in
    for row = 0 to T.nrows t - 1 do
      let key = Array.to_list (T.row t row) in
      if not (Vkey_tbl.mem seen key) then begin
        Vkey_tbl.add seen key ();
        kept := row :: !kept
      end
    done;
    T.take t (Array.of_list (List.rev !kept))
  | L.Limit { input; limit; offset } ->
    let t = run ?outer ctx input in
    let n = T.nrows t in
    let start = min offset n in
    let stop =
      match limit with None -> n | Some l -> min n (start + max l 0)
    in
    T.take t (Array.init (stop - start) (fun i -> start + i))
  | L.Set_op { op; left; right } -> exec_set_op ?outer ctx op left right
  | L.Rec_ref { name; schema } -> (
    match List.assoc_opt name ctx.rec_deltas with
    | Some t -> t
    | None ->
      (* a Rec_ref outside its fixpoint loop reads an empty delta *)
      T.create (Relalg.Rschema.to_storage schema))
  | L.Rec_cte { name; base; step; distinct; schema } ->
    exec_rec_cte ?outer ctx name base step distinct schema
  | L.Graph_select { input; op; schema } ->
    exec_graph_select ?outer ctx input op schema
  | L.Graph_join { left; right; op; schema } ->
    exec_graph_join ?outer ctx left right op schema
  | L.Unnest { input; path; edge_schema; ordinality; left_outer; schema } ->
    exec_unnest ?outer ctx input path edge_schema ordinality left_outer schema

(* Uncorrelated subqueries run once per plan node per query. *)
and run_subplan ctx plan =
  match List.find_opt (fun (p, _) -> p == plan) ctx.subquery_memo with
  | Some (_, t) -> t
  | None ->
    let t = run ctx plan in
    ctx.subquery_memo <- (plan, t) :: ctx.subquery_memo;
    t

(* Correlated subplans re-run for every outer row, never memoised. *)
and run_correlated ctx plan outer_env = run ~outer:outer_env ctx plan

and eval_column ?outer ctx t e =
  match
    if ctx.vectorize then Vectorized.eval_column ~check:ctx.check t e else None
  with
  | Some col ->
    ctx.st.vec_ops <- ctx.st.vec_ops + 1;
    note_count ctx "vectorized";
    col
  | None ->
    ctx.st.row_ops <- ctx.st.row_ops + 1;
    note_count ctx "row_eval";
    Eval.eval_column ~run_subplan:(run_subplan ctx) ?outer
      ~run_correlated:(run_correlated ctx) t e

and eval_filter ?outer ctx t pred =
  match
    if ctx.vectorize then Vectorized.eval_filter ~check:ctx.check t pred
    else None
  with
  | Some kept ->
    ctx.st.vec_ops <- ctx.st.vec_ops + 1;
    note_count ctx "vectorized";
    kept
  | None ->
    ctx.st.row_ops <- ctx.st.row_ops + 1;
    note_count ctx "row_eval";
    Eval.eval_filter ~run_subplan:(run_subplan ctx) ?outer
      ~run_correlated:(run_correlated ctx) t pred

(* ------------------------------------------------------------------ *)
(* Recursive CTEs                                                      *)
(* ------------------------------------------------------------------ *)

(* Semi-naive fixpoint: the self-reference inside [step] sees only the
   rows produced by the previous iteration. UNION dedupes against the
   accumulated result (terminating on cyclic data); UNION ALL keeps
   everything and relies on the iteration cap to stop runaways. *)
and exec_rec_cte ?outer ctx name base step distinct schema =
  let storage_schema = Relalg.Rschema.to_storage schema in
  let seen = Vkey_tbl.create 256 in
  let dedupe t =
    let kept = ref [] in
    for row = 0 to T.nrows t - 1 do
      let key = Array.to_list (T.row t row) in
      if not (Vkey_tbl.mem seen key) then begin
        Vkey_tbl.add seen key ();
        kept := row :: !kept
      end
    done;
    T.take t (Array.of_list (List.rev !kept))
  in
  let normalise t =
    (* positions matter, the CTE's declared names win *)
    T.of_columns ~nrows:(T.nrows t) storage_schema
      (List.init (T.arity t) (T.column t))
  in
  let acc = ref (normalise (run ?outer ctx base)) in
  let acc_delta = if distinct then dedupe !acc else !acc in
  let delta = ref acc_delta in
  acc := acc_delta;
  let iterations = ref 0 in
  while T.nrows !delta > 0 do
    incr iterations;
    if !iterations > 10_000 then
      rerror "recursive CTE %s exceeded 10000 iterations (runaway recursion?)"
        name;
    (* one checkpoint per fixpoint round: the accumulated row count feeds
       the row budget, the delta width stands in for the frontier *)
    Graph.Cancel.report ctx.check ~site:"rec_cte" ~steps:1
      ~frontier:(T.nrows !delta) ~rows:(T.nrows !acc) ();
    ctx.rec_deltas <- (name, !delta) :: ctx.rec_deltas;
    let produced =
      Fun.protect
        ~finally:(fun () -> ctx.rec_deltas <- List.tl ctx.rec_deltas)
        (fun () -> normalise (run ?outer ctx step))
    in
    let fresh = if distinct then dedupe produced else produced in
    if T.nrows fresh > 0 then acc := T.concat_vertical !acc fresh;
    delta := fresh
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Set operations                                                      *)
(* ------------------------------------------------------------------ *)

and exec_set_op ?outer ctx op left right =
  let lt = run ?outer ctx left and rt = run ?outer ctx right in
  let distinct_rows t =
    let seen = Vkey_tbl.create 64 in
    let kept = ref [] in
    for row = 0 to T.nrows t - 1 do
      let key = Array.to_list (T.row t row) in
      if not (Vkey_tbl.mem seen key) then begin
        Vkey_tbl.add seen key ();
        kept := row :: !kept
      end
    done;
    T.take t (Array.of_list (List.rev !kept))
  in
  match op with
  | Sql.Ast.Union_all -> T.concat_vertical lt rt
  | Sql.Ast.Union -> distinct_rows (T.concat_vertical lt rt)
  | Sql.Ast.Intersect | Sql.Ast.Except ->
    let right_set = Vkey_tbl.create (max 16 (T.nrows rt)) in
    for row = 0 to T.nrows rt - 1 do
      Vkey_tbl.replace right_set (Array.to_list (T.row rt row)) ()
    done;
    let keep_if_present = op = Sql.Ast.Intersect in
    let seen = Vkey_tbl.create 64 in
    let kept = ref [] in
    for row = 0 to T.nrows lt - 1 do
      let key = Array.to_list (T.row lt row) in
      if not (Vkey_tbl.mem seen key) then begin
        Vkey_tbl.add seen key ();
        if Vkey_tbl.mem right_set key = keep_if_present then
          kept := row :: !kept
      end
    done;
    T.take lt (Array.of_list (List.rev !kept))

(* ------------------------------------------------------------------ *)
(* Joins                                                               *)
(* ------------------------------------------------------------------ *)

(* Extract equi-conjuncts [Col a = Col b] spanning the two sides; returns
   (left keys, right keys local to right side, residual conjuncts). *)
and split_equi_cond ~left_arity cond =
  let conjuncts = L.split_conjuncts cond in
  List.fold_left
    (fun (lk, rk, residual) c ->
      match c.L.node with
      | L.Bin (Sql.Ast.Eq, { L.node = L.Col a; _ }, { L.node = L.Col b; _ })
        when a < left_arity && b >= left_arity ->
        (a :: lk, (b - left_arity) :: rk, residual)
      | L.Bin (Sql.Ast.Eq, { L.node = L.Col b; _ }, { L.node = L.Col a; _ })
        when a < left_arity && b >= left_arity ->
        (a :: lk, (b - left_arity) :: rk, residual)
      | _ -> (lk, rk, c :: residual))
    ([], [], []) conjuncts

and exec_join ?outer ctx left right kind cond =
  let lt = run ?outer ctx left and rt = run ?outer ctx right in
  let la = T.arity lt in
  let lk, rk, residual = split_equi_cond ~left_arity:la cond in
  let residual_pred = L.conjoin (List.rev residual) in
  let run_sub = run_subplan ctx in
  let join_env =
    {
      Eval.segments = [| (lt, 0); (rt, 0) |];
      run_subplan = run_sub;
      in_sets = [];
      outer;
      run_correlated = run_correlated ctx;
    }
  in
  let pair_passes lrow rrow =
    match residual_pred with
    | None -> true
    | Some pred ->
      join_env.Eval.segments.(0) <- (lt, lrow);
      join_env.Eval.segments.(1) <- (rt, rrow);
      Relalg.Scalar.is_true (Eval.eval join_env pred)
  in
  (* candidate right rows per left row *)
  let candidates : int -> int Seq.t =
    if lk = [] then fun _ -> Seq.init (T.nrows rt) Fun.id
    else begin
      let tbl = Vkey_tbl.create (max 16 (T.nrows rt)) in
      for j = 0 to T.nrows rt - 1 do
        let key = List.map (fun c -> T.get rt ~row:j ~col:c) rk in
        if not (List.exists V.is_null key) then
          Vkey_tbl.replace tbl key
            (j :: Option.value (Vkey_tbl.find_opt tbl key) ~default:[])
      done;
      fun i ->
        let key = List.map (fun c -> T.get lt ~row:i ~col:c) lk in
        if List.exists V.is_null key then Seq.empty
        else
          List.to_seq
            (List.rev (Option.value (Vkey_tbl.find_opt tbl key) ~default:[]))
    end
  in
  let lidx = ref [] and ridx = ref [] in
  let emit i j =
    lidx := i :: !lidx;
    ridx := j :: !ridx
  in
  let tk = Graph.Cancel.ticker ~interval:1024 ctx.check ~site:"join" in
  for i = 0 to T.nrows lt - 1 do
    let matched = ref false in
    Seq.iter
      (fun j ->
        Graph.Cancel.tick tk ~frontier:0;
        if pair_passes i j then begin
          matched := true;
          emit i j
        end)
      (candidates i);
    if (not !matched) && kind = Sql.Ast.Left_outer then emit i (-1)
  done;
  let lidx = Array.of_list (List.rev !lidx) in
  let ridx = Array.of_list (List.rev !ridx) in
  let lout = T.take lt lidx in
  (* right side with NULL padding for unmatched left rows *)
  let rout =
    let cols =
      List.init (T.arity rt) (fun c ->
          let src = T.column rt c in
          let col = C.create ~capacity:(max 1 (Array.length ridx)) (C.dtype src) in
          Array.iter
            (fun j -> C.append col (if j < 0 then V.Null else C.get src j))
            ridx;
          col)
    in
    T.of_columns (T.schema rt) cols
  in
  T.concat_horizontal lout rout

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

and exec_aggregate ?outer ctx input keys aggs schema =
  let t = run ?outer ctx input in
  let key_cols = List.map (fun (e, _) -> eval_column ?outer ctx t e) keys in
  let arg_cols =
    List.map
      (fun (a : L.agg) -> Option.map (eval_column ?outer ctx t) a.L.arg)
      aggs
  in
  let groups = Vkey_tbl.create 64 in
  let order = ref [] in
  for row = 0 to T.nrows t - 1 do
    let key = List.map (fun c -> C.get c row) key_cols in
    let states =
      match Vkey_tbl.find_opt groups key with
      | Some s -> s
      | None ->
        let s = List.map fresh_state aggs in
        Vkey_tbl.add groups key s;
        order := key :: !order;
        s
    in
    List.iteri
      (fun ai st ->
        let a = List.nth aggs ai in
        let v =
          match List.nth arg_cols ai with
          | None -> V.Null (* COUNT STAR ignores the argument *)
          | Some col -> C.get col row
        in
        update_state a st v)
      states
  done;
  (* global aggregation over an empty input still yields one group *)
  let group_keys =
    match List.rev !order, keys with
    | [], [] ->
      let s = List.map fresh_state aggs in
      Vkey_tbl.add groups [] s;
      [ [] ]
    | gs, _ -> gs
  in
  let out = T.create (Relalg.Rschema.to_storage schema) in
  List.iter
    (fun key ->
      let states = Vkey_tbl.find groups key in
      let aggregate_cells = List.map2 finish_state aggs states in
      T.append_row out (Array.of_list (key @ aggregate_cells)))
    group_keys;
  out

(* ------------------------------------------------------------------ *)
(* Sorting                                                             *)
(* ------------------------------------------------------------------ *)

and exec_sort ?outer ctx input keys =
  let t = run ?outer ctx input in
  let key_cols =
    List.map (fun (e, dir) -> (eval_column ?outer ctx t e, dir)) keys
  in
  let idx = Array.init (T.nrows t) Fun.id in
  let cmp i j =
    let rec loop = function
      | [] -> 0
      | (col, dir) :: rest ->
        let c = V.compare (C.get col i) (C.get col j) in
        let c = match dir with Sql.Ast.Asc -> c | Sql.Ast.Desc -> -c in
        if c <> 0 then c else loop rest
    in
    loop key_cols
  in
  Array.stable_sort cmp idx;
  T.take t idx

(* ------------------------------------------------------------------ *)
(* Graph operators                                                     *)
(* ------------------------------------------------------------------ *)

(* Materialise the edge table and obtain a built graph, through the index
   cache when one is enabled for this (table, S, D). The third component
   is the index key when the graph is cached, for the weight memo. *)
and obtain_graph ctx (op : L.graph_op) =
  (* a graph built (or extended) for this statement *)
  let built rt =
    let bs = Graph.Runtime.stats rt in
    ctx.st.graph_build_seconds <-
      ctx.st.graph_build_seconds +. bs.Graph.Runtime.total_seconds;
    ctx.st.graphs_built <- ctx.st.graphs_built + 1;
    ctx.st.build_dict_seconds <-
      ctx.st.build_dict_seconds +. bs.Graph.Runtime.dict_seconds;
    ctx.st.build_encode_seconds <-
      ctx.st.build_encode_seconds +. bs.Graph.Runtime.encode_seconds;
    ctx.st.build_csr_seconds <-
      ctx.st.build_csr_seconds +. bs.Graph.Runtime.csr_seconds;
    note_ms ctx "dict" bs.Graph.Runtime.dict_seconds;
    note_ms ctx "encode" bs.Graph.Runtime.encode_seconds;
    note_ms ctx "csr" bs.Graph.Runtime.csr_seconds;
    (* a cached graph's reverse CSR, obtained before it entered the cache *)
    Option.iter
      (fun origin ->
        ctx.st.build_reverse_seconds <-
          ctx.st.build_reverse_seconds +. bs.Graph.Runtime.reverse_seconds;
        (match origin with
        | Graph.Runtime.Derived ->
          ctx.st.reverses_derived <- ctx.st.reverses_derived + 1;
          note ctx "reverse" "derived"
        | Graph.Runtime.Built -> note ctx "reverse" "built");
        note_ms ctx "rev" bs.Graph.Runtime.reverse_seconds)
      bs.Graph.Runtime.reverse
  in
  let describe rt =
    note ctx "vertices" (string_of_int (Graph.Runtime.vertex_count rt));
    note ctx "graph_edges" (string_of_int (Graph.Runtime.edge_count rt));
    if Graph.Runtime.has_bidir rt then note ctx "bidir" "on"
  in
  let key =
    match op.L.edge with
    | L.Scan { table; _ } ->
      Some { Graph_index.table; src = op.L.edge_src; dst = op.L.edge_dst }
    | _ -> None
  in
  match key with
  | Some key when Graph_index.is_enabled ctx.indices key ->
    let version =
      Option.value
        (Storage.Catalog.version ctx.catalog key.Graph_index.table)
        ~default:0
    in
    let rt, edges, source =
      Graph_index.obtain ~check:ctx.check ctx.indices key ~version
        ~edges:(fun () -> run ctx op.L.edge)
    in
    (match source with
    | Graph_index.Hit ->
      ctx.st.index_hits <- ctx.st.index_hits + 1;
      note ctx "cache" "hit"
    | Graph_index.Extended appended ->
      ctx.st.index_misses <- ctx.st.index_misses + 1;
      note ctx "cache" "extend";
      note ctx "appended" (string_of_int appended);
      built rt
    | Graph_index.Built ->
      ctx.st.index_misses <- ctx.st.index_misses + 1;
      note ctx "cache" "miss";
      built rt);
    describe rt;
    (edges, rt, Some key)
  | _ ->
    let edges = run ctx op.L.edge in
    note ctx "cache" "off";
    Graph.Cancel.report ctx.check ~site:"graph_build" ();
    let rt =
      Graph.Runtime.build_multi
        ~src:(List.map (T.column edges) op.L.edge_src)
        ~dst:(List.map (T.column edges) op.L.edge_dst)
    in
    built rt;
    describe rt;
    (edges, rt, None)

(* Evaluate and validate a CHEAPEST SUM weight expression over the whole
   edge table (§2: strictly positive, so NULL is also rejected). The
   validation reads the unboxed column; only an error boxes its cell. *)
and eval_weights ctx edges (c : L.cheapest) =
  let col = eval_column ctx edges c.L.weight in
  let n = C.length col in
  let null i = C.null_count col > 0 && C.is_null col i in
  let bad i =
    raise
      (Graph.Runtime.Weight_error
         (Printf.sprintf "CHEAPEST SUM weight must be > 0, got %s at edge row %d"
            (V.to_display (C.get col i)) i))
  in
  let float_cost = Storage.Dtype.equal c.L.cost_ty Storage.Dtype.TFloat in
  match C.raw_int col, C.raw_float col with
  | Some a, _ when float_cost ->
    Graph.Runtime.Float_weights
      (Array.init n (fun i ->
           if null i || a.(i) <= 0 then bad i else float_of_int a.(i)))
  | Some a, _ ->
    Graph.Runtime.Int_weights
      (Array.init n (fun i -> if null i || a.(i) <= 0 then bad i else a.(i)))
  | None, Some a when float_cost ->
    Graph.Runtime.Float_weights
      (Array.init n (fun i ->
           if null i || not (a.(i) > 0.) then bad i else a.(i)))
  | _ ->
    (* no other column type holds a valid weight: the first row is bad *)
    if n > 0 then bad 0
    else if float_cost then Graph.Runtime.Float_weights [||]
    else Graph.Runtime.Int_weights [||]

(* The validated, CSR-aligned weights of one CHEAPEST SUM: from the
   graph-index memo when the graph is cached and the expression is
   memoizable, otherwise evaluated (and then memoized when it can be). *)
and cheapest_weights ctx rt edges cached (c : L.cheapest) =
  let memo =
    match cached with
    | Some key ->
      Graph_index.find_weights ctx.indices key rt c.L.weight
        ~cost_ty:c.L.cost_ty
    | None -> None
  in
  match memo with
  | Some aligned ->
    note ctx "weights" "memo";
    aligned
  | None ->
    note ctx "weights" "eval";
    let t0 = now () in
    let aligned = Graph.Runtime.align_weights rt (eval_weights ctx edges c) in
    note_ms ctx "weights_ms" (now () -. t0);
    Option.iter
      (fun key ->
        Graph_index.store_weights ctx.indices key rt c.L.weight
          ~cost_ty:c.L.cost_ty aligned)
      cached;
    aligned

(* Is the weight the literal 1 (the unweighted case, computed by BFS)? *)
and is_unweighted (c : L.cheapest) =
  match c.L.weight.L.node with
  | L.Const (V.Int 1) -> true
  | _ -> false

(* Shared tail of graph select/join: compute outcomes per cheapest. *)
and run_cheapests ctx rt edges cached (op : L.graph_op) pairs =
  note ctx "pairs" (string_of_int (Array.length pairs));
  if ctx.domains > 1 then note ctx "domains" (string_of_int ctx.domains);
  (* one record per batch: the statement's stats and this operator's
     notes read the same counts *)
  let traverse f =
    let c = Graph.Runtime.fresh_counts () in
    let t0 = now () in
    let r = f c in
    let dt = now () -. t0 in
    add_batch ctx.st c ~seconds:dt;
    let w = c.Graph.Runtime.trav in
    let note_int key n = note ctx key (string_of_int n) in
    note_int "groups" w.Graph.Workspace.searches;
    note_int "settled" w.Graph.Workspace.settled;
    note_int "edges_scanned" w.Graph.Workspace.edges_scanned;
    note_int "peak_frontier" w.Graph.Workspace.peak_frontier;
    if w.Graph.Workspace.waves > 0 then
      note_int "batched_waves" w.Graph.Workspace.waves;
    if w.Graph.Workspace.dir_switches > 0 then
      note_int "dir_switches" w.Graph.Workspace.dir_switches;
    (* Work-stealing scheduler section: present whenever this batch ran
       the scheduler — every batch but the bidirectional single pair,
       serial ones included (workers=1). *)
    if c.Graph.Runtime.tasks > 0 then begin
      note_int "tasks" c.Graph.Runtime.tasks;
      note_int "steals" c.Graph.Runtime.steals;
      note_int "splits" c.Graph.Runtime.splits;
      note_int "workers" c.Graph.Runtime.workers;
      note ctx "imbalance"
        (string_of_int c.Graph.Runtime.imbalance_pct ^ "%")
    end;
    (let taken = c.Graph.Runtime.pool_hits + c.Graph.Runtime.pool_misses in
     if taken > 0 then
       note ctx "pool_reuse"
         (Printf.sprintf "%d/%d" c.Graph.Runtime.pool_hits taken));
    note_ms ctx "traverse" dt;
    r
  in
  match op.L.cheapests with
  | [] ->
    let reach =
      traverse (fun counts ->
          Graph.Runtime.reachable ~check:ctx.check ~domains:ctx.domains
            ~note:(note ctx) ~counts rt ~pairs)
    in
    (reach, [])
  | cheapests ->
    let outcomes =
      List.map
        (fun c ->
          let weights =
            if is_unweighted c then Graph.Runtime.Unweighted
            else Graph.Runtime.Aligned (cheapest_weights ctx rt edges cached c)
          in
          ( c,
            traverse (fun counts ->
                Graph.Runtime.run_pairs rt ~weights ~domains:ctx.domains
                  ~check:ctx.check ~paths:(c.L.path_name <> None)
                  ~note:(note ctx) ~counts ~pairs ()) ))
        cheapests
    in
    let _, first = List.hd outcomes in
    let reach =
      Array.map
        (function Graph.Runtime.Unreachable -> false | Graph.Runtime.Reached _ -> true)
        first
    in
    (reach, outcomes)

and extra_columns edges outcomes kept =
  List.concat_map
    (fun ((c : L.cheapest), (res : Graph.Runtime.outcome array)) ->
      let cost_col = C.create ~capacity:(max 1 (Array.length kept)) c.L.cost_ty in
      Array.iter
        (fun i ->
          match res.(i) with
          | Graph.Runtime.Reached { cost; _ } -> C.append cost_col cost
          | Graph.Runtime.Unreachable -> C.append cost_col V.Null)
        kept;
      match c.L.path_name with
      | None -> [ cost_col ]
      | Some _ ->
        let path_col =
          C.create ~capacity:(max 1 (Array.length kept)) Storage.Dtype.TPath
        in
        Array.iter
          (fun i ->
            match res.(i) with
            | Graph.Runtime.Reached { edge_rows; _ } ->
              C.append path_col (Nested.make ~edges ~rows:edge_rows)
            | Graph.Runtime.Unreachable -> C.append path_col V.Null)
          kept;
        [ cost_col; path_col ])
    outcomes

(* Evaluate one endpoint's components over [t]; composite endpoints zip
   into Tuple values (NULL in any component yields Null, i.e. no vertex). *)
and endpoint_values ?outer ctx t exprs =
  match exprs with
  | [ e ] ->
    let col = eval_column ?outer ctx t e in
    Array.init (T.nrows t) (C.get col)
  | es ->
    let cols = List.map (eval_column ?outer ctx t) es in
    Array.init (T.nrows t) (fun i ->
        let cells = List.map (fun c -> C.get c i) cols in
        if List.exists V.is_null cells then V.Null
        else V.Tuple (Array.of_list cells))

and exec_graph_select ?outer ctx input op schema =
  let t = run ?outer ctx input in
  let edges, rt, cached = obtain_graph ctx op in
  let xs = endpoint_values ?outer ctx t op.L.src_exprs in
  let ys = endpoint_values ?outer ctx t op.L.dst_exprs in
  let pairs = Array.init (T.nrows t) (fun i -> (xs.(i), ys.(i))) in
  let reach, outcomes = run_cheapests ctx rt edges cached op pairs in
  let kept =
    Array.of_list
      (List.filter (fun i -> reach.(i)) (List.init (T.nrows t) Fun.id))
  in
  let base = T.take t kept in
  let extras = extra_columns edges outcomes kept in
  (* the physical input may carry One's hidden column: keep only the
     columns the bound schema knows about *)
  let input_arity = Relalg.Rschema.arity (L.schema_of input) in
  T.of_columns ~nrows:(Array.length kept)
    (Relalg.Rschema.to_storage schema)
    (List.init input_arity (T.column base) @ extras)

and exec_graph_join ?outer ctx left right op schema =
  let lt = run ?outer ctx left and rt_tbl = run ?outer ctx right in
  let edges, grt, cached = obtain_graph ctx op in
  let xs = endpoint_values ?outer ctx lt op.L.src_exprs in
  let ys = endpoint_values ?outer ctx rt_tbl op.L.dst_exprs in
  (* group row ids by key value, keeping first-appearance order *)
  let group col n =
    let tbl = Vtbl.create 64 in
    let order = ref [] in
    for i = 0 to n - 1 do
      let v = col.(i) in
      (match Vtbl.find_opt tbl v with
      | Some l -> Vtbl.replace tbl v (i :: l)
      | None ->
        Vtbl.add tbl v [ i ];
        order := v :: !order)
    done;
    ( List.rev !order,
      fun v -> List.rev (Option.value (Vtbl.find_opt tbl v) ~default:[]) )
  in
  let xvals, xrows = group xs (T.nrows lt) in
  let yvals, yrows = group ys (T.nrows rt_tbl) in
  let combos =
    Array.of_list
      (List.concat_map (fun x -> List.map (fun y -> (x, y)) yvals) xvals)
  in
  let reach, outcomes = run_cheapests ctx grt edges cached op combos in
  (* expand surviving (x, y) combos back to row pairs *)
  let lidx = ref [] and ridx = ref [] and combo_of_out = ref [] in
  Array.iteri
    (fun k (x, y) ->
      if reach.(k) then
        List.iter
          (fun i ->
            List.iter
              (fun j ->
                lidx := i :: !lidx;
                ridx := j :: !ridx;
                combo_of_out := k :: !combo_of_out)
              (yrows y))
          (xrows x))
    combos;
  let lidx = Array.of_list (List.rev !lidx) in
  let ridx = Array.of_list (List.rev !ridx) in
  let combo_of_out = Array.of_list (List.rev !combo_of_out) in
  let base = T.concat_horizontal (T.take lt lidx) (T.take rt_tbl ridx) in
  let extras = extra_columns edges outcomes combo_of_out in
  T.of_columns ~nrows:(Array.length lidx)
    (Relalg.Rschema.to_storage schema)
    (List.init (T.arity base) (T.column base) @ extras)

(* ------------------------------------------------------------------ *)
(* UNNEST                                                              *)
(* ------------------------------------------------------------------ *)

and exec_unnest ?outer ctx input path edge_schema ordinality left_outer schema =
  let t = run ?outer ctx input in
  let paths = eval_column ?outer ctx t path in
  let edge_arity = Storage.Schema.arity edge_schema in
  let in_idx = ref [] in
  let edge_cells = Array.init edge_arity (fun _ -> ref []) in
  let ordinals = ref [] in
  let emit row cells ordinal =
    in_idx := row :: !in_idx;
    Array.iteri (fun c r -> r := cells c :: !r) edge_cells;
    ordinals := ordinal :: !ordinals
  in
  for row = 0 to T.nrows t - 1 do
    match Nested.destruct (C.get paths row) with
    | Some (edges, rows) when Array.length rows > 0 ->
      Array.iteri
        (fun k er ->
          emit row (fun c -> T.get edges ~row:er ~col:c) (V.Int (k + 1)))
        rows
    | Some _ | None ->
      (* empty path or NULL: dropped by the lateral inner join, padded by
         the left outer one — the appendix's Mahinda Perera case *)
      if left_outer then emit row (fun _ -> V.Null) V.Null
  done;
  let in_idx = Array.of_list (List.rev !in_idx) in
  let base = T.take t in_idx in
  let edge_cols =
    List.init edge_arity (fun c ->
        let ty = (Storage.Schema.field edge_schema c).Storage.Schema.ty in
        let col = C.create ~capacity:(max 1 (Array.length in_idx)) ty in
        List.iter (C.append col) (List.rev !(edge_cells.(c)));
        col)
  in
  let ord_cols =
    if ordinality then begin
      let col =
        C.create ~capacity:(max 1 (Array.length in_idx)) Storage.Dtype.TInt
      in
      List.iter (C.append col) (List.rev !ordinals);
      [ col ]
    end
    else []
  in
  T.of_columns (Relalg.Rschema.to_storage schema)
    (List.init (T.arity base) (T.column base) @ edge_cols @ ord_cols)
