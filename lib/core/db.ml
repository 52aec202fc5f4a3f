module V = Storage.Value

(* Hooks installed by the Wal layer when the session runs durable.  The
   Db calls them around DML so write-ahead logging stays a pure layering
   concern: in autocommit [dur_log] runs *before* the statement applies
   (log-before-apply) and [dur_abort] erases the record if the apply then
   fails; inside an open transaction applied statements are buffered with
   [dur_buffer] and only reach the log at COMMIT via [dur_commit] (group
   commit), while [dur_rollback] discards the buffer. *)
type durability = {
  dur_log : sql:string -> params:Storage.Value.t array -> unit;
  dur_abort : unit -> unit;
  dur_buffer : sql:string -> params:Storage.Value.t array -> unit;
  dur_commit : unit -> unit;
  dur_rollback : unit -> unit;
}

(* Where the per-statement records go: the slow-query log and the
   --json-metrics-append firehose.  One value is shared by every Db of a
   server, so its mutex serializes appends from concurrent sessions. *)
type logs = {
  slow_log : string option;
  firehose : string option;
  logs_mu : Mutex.t;
}

let create_logs ?slow_log ?firehose () =
  { slow_log; firehose; logs_mu = Mutex.create () }

let no_logs = create_logs ()

type t = {
  catalog : Storage.Catalog.t;
  indices : Executor.Graph_index.t;
  mutable last_stats : Executor.Interp.stats option;
  mutable snapshot : (string * Storage.Table.t) list option;
      (* deep copy of every table at BEGIN; None = autocommit mode *)
  mutable parallelism : int;
      (* traversal domains per run_pairs batch (SET parallelism / CLI
         --domains); 1 = serial *)
  registry : Telemetry.Registry.t;
      (* cumulative session metrics; every statement absorbs its stats
         here (see [observe]) *)
  mutable slow_query_ms : int option;
      (* SET slow_query_ms / CLI --slow-query-ms; None = off *)
  mutable logs : logs; (* record destinations; see [observe] *)
  mutable replaying : bool;
      (* inside [without_logs]; a flag, so a session spawned meanwhile
         still copies the real [logs] *)
  mutable durability : durability option;
      (* WAL hooks; None = plain in-memory session *)
  mutable readonly : bool;
      (* inspection mode (--readonly): every catalog-mutating statement
         is refused before it applies *)
  mutable stat_store : Stat_store.t;
      (* per-fingerprint cumulative statement stats
         (sqlgraph_stat_statements); the server swaps in its shared
         store so every session feeds one view *)
  mutable stmt_seq : int; (* the default :<seq> of query ids; see [observe] *)
  mutable last_query_id : string option; (* "<fp-hex>:<seq>" of the last stmt *)
  created_at : float; (* Unix time of create; drives sqlgraph_uptime_seconds *)
}

(* --- system tables (DESIGN.md §14) --------------------------------- *)

let reserved_prefix = "sqlgraph_"

let is_reserved_name name =
  let n = String.lowercase_ascii name in
  String.length n >= String.length reserved_prefix
  && String.sub n 0 (String.length reserved_prefix) = reserved_prefix

let refuse_reserved name =
  if is_reserved_name name then
    raise
      (Relalg.Binder.Bind_error
         (Printf.sprintf
            "%s is a reserved name: sqlgraph_* tables are read-only system \
             tables"
            name))

(* The declared counters with a sqlgraph_stat_statements column, in
   declaration order: the columns after [rows], and the order of each
   Stat_store entry's [counters]. *)
let stat_counters =
  List.filter_map
    (fun (c : Executor.Interp.counter) ->
      let count s = match c.get s with Executor.Interp.Int n -> n | _ -> 0 in
      Option.map (fun col -> (col, count)) c.column)
    Executor.Interp.counters

let stat_statements_schema =
  Storage.Schema.of_pairs
    ([
       ("fingerprint", Storage.Dtype.TStr);
       ("query", Storage.Dtype.TStr);
       ("calls", Storage.Dtype.TInt);
       ("failures", Storage.Dtype.TInt);
       ("gov_aborts", Storage.Dtype.TInt);
       ("total_ms", Storage.Dtype.TFloat);
       ("min_ms", Storage.Dtype.TFloat);
       ("max_ms", Storage.Dtype.TFloat);
       ("mean_ms", Storage.Dtype.TFloat);
       ("rows", Storage.Dtype.TInt);
     ]
    @ List.map (fun (col, _) -> (col, Storage.Dtype.TInt)) stat_counters)

let stat_statements_table store =
  Storage.Table.of_rows stat_statements_schema
    (List.map
       (fun (e : Stat_store.entry) ->
         [
           V.Str (Sql.Fingerprint.to_hex e.Stat_store.fingerprint);
           V.Str e.Stat_store.query;
           V.Int e.Stat_store.calls;
           V.Int e.Stat_store.failures;
           V.Int e.Stat_store.gov_aborts;
           V.Float e.Stat_store.total_ms;
           V.Float (if e.Stat_store.calls = 0 then 0. else e.Stat_store.min_ms);
           V.Float e.Stat_store.max_ms;
           V.Float
             (if e.Stat_store.calls = 0 then 0.
              else e.Stat_store.total_ms /. float_of_int e.Stat_store.calls);
           V.Int e.Stat_store.rows;
         ]
         @ Array.to_list (Array.map (fun n -> V.Int n) e.Stat_store.counters))
       (Stat_store.entries store))

let stat_graph_schema =
  Storage.Schema.of_pairs
    [
      ("edge_table", Storage.Dtype.TStr);
      ("src_cols", Storage.Dtype.TStr);
      ("dst_cols", Storage.Dtype.TStr);
      ("hits", Storage.Dtype.TInt);
      ("misses", Storage.Dtype.TInt);
    ]

(* One row per enabled graph index; the hit/miss counters are
   index-subsystem-wide (repeated per row).  With no index enabled a
   single all-NULL-keys row still carries the counters. *)
let stat_graph_table indices =
  let hits = Executor.Graph_index.hits indices in
  let misses = Executor.Graph_index.misses indices in
  let cols l = String.concat "," (List.map string_of_int l) in
  let rows =
    match Executor.Graph_index.keys indices with
    | [] -> [ [ V.Null; V.Null; V.Null; V.Int hits; V.Int misses ] ]
    | keys ->
      List.map
        (fun (k : Executor.Graph_index.key) ->
          [
            V.Str k.Executor.Graph_index.table;
            V.Str (cols k.Executor.Graph_index.src);
            V.Str (cols k.Executor.Graph_index.dst);
            V.Int hits;
            V.Int misses;
          ])
        keys
  in
  Storage.Table.of_rows stat_graph_schema rows

let stat_wal_schema =
  Storage.Schema.of_pairs
    [
      ("dir", Storage.Dtype.TStr);
      ("generation", Storage.Dtype.TInt);
      ("logical_end", Storage.Dtype.TInt);
      ("wal_path", Storage.Dtype.TStr);
      ("readonly", Storage.Dtype.TBool);
    ]

let stat_sessions_schema =
  Storage.Schema.of_pairs
    [
      ("sid", Storage.Dtype.TInt);
      ("statements", Storage.Dtype.TInt);
      ("last_qid", Storage.Dtype.TStr);
      ("snapshot", Storage.Dtype.TInt);
      ("in_txn", Storage.Dtype.TBool);
      ("connected_seconds", Storage.Dtype.TFloat);
    ]

(* One row per replication link: on a primary, one per attached replica;
   on a replica, one for its upstream.  Empty outside a replicated
   server (the default provider below); lib/server/replication.ml
   installs the live provider. *)
let stat_replication_schema =
  Storage.Schema.of_pairs
    [
      ("role", Storage.Dtype.TStr);
      ("state", Storage.Dtype.TStr);
      ("peer", Storage.Dtype.TStr);
      ("generation", Storage.Dtype.TInt);
      ("shipped_offset", Storage.Dtype.TInt);
      ("applied_offset", Storage.Dtype.TInt);
      ("lag_bytes", Storage.Dtype.TInt);
      ("last_heartbeat_seconds", Storage.Dtype.TFloat);
    ]

let register_virtual_table t ~name provider =
  Storage.Catalog.register_virtual t.catalog name provider

(* Default providers for a standalone (in-process) session.  The WAL
   layer overrides sqlgraph_stat_wal with a live provider when a store
   attaches; the server overrides sqlgraph_stat_sessions and
   sqlgraph_metrics on each session Db with providers that close over
   its shared state. *)
let install_system_tables t =
  register_virtual_table t ~name:"sqlgraph_stat_statements" (fun () ->
      stat_statements_table t.stat_store);
  register_virtual_table t ~name:"sqlgraph_stat_graph" (fun () ->
      stat_graph_table t.indices);
  register_virtual_table t ~name:"sqlgraph_stat_wal" (fun () ->
      Storage.Table.of_rows stat_wal_schema []);
  register_virtual_table t ~name:"sqlgraph_stat_sessions" (fun () ->
      Storage.Table.of_rows stat_sessions_schema []);
  register_virtual_table t ~name:"sqlgraph_stat_replication" (fun () ->
      Storage.Table.of_rows stat_replication_schema []);
  register_virtual_table t ~name:"sqlgraph_metrics" (fun () ->
      Metrics.registry_table [ t.registry ])

let create ?indices () =
  let t =
    {
      catalog = Storage.Catalog.create ();
      indices =
        (match indices with
        | Some ix -> ix
        | None -> Executor.Graph_index.create ());
      last_stats = None;
      snapshot = None;
      parallelism = 1;
      registry = Telemetry.Registry.create ();
      slow_query_ms = None;
      logs = no_logs;
      replaying = false;
      durability = None;
      readonly = false;
      stat_store = Stat_store.create ();
      stmt_seq = 0;
      last_query_id = None;
      created_at = Unix.gettimeofday ();
    }
  in
  install_system_tables t;
  t

let catalog t = t.catalog
let stat_store t = t.stat_store
let set_stat_store t s = t.stat_store <- s
let reset_statement_stats t = Stat_store.reset t.stat_store
let last_query_id t = t.last_query_id
let logs t = t.logs
let set_logs t l = t.logs <- l

let without_logs t f =
  t.replaying <- true;
  Fun.protect ~finally:(fun () -> t.replaying <- false) f
let set_durability t d = t.durability <- d
let in_transaction t = t.snapshot <> None
let load_table ?version t ~name table =
  match version with
  | None -> Storage.Catalog.replace t.catalog name table
  | Some v -> Storage.Catalog.replace_at t.catalog name table ~version:v

let indices t = t.indices

(* Pre-build every enabled graph index over the current catalog (the
   replica's warm path; see Graph_index.warm). *)
let warm_graph_indexes t = Executor.Graph_index.warm t.indices ~catalog:t.catalog
let parallelism t = t.parallelism
let set_parallelism t n = t.parallelism <- max 1 n
let registry t = t.registry
let slow_query_ms t = t.slow_query_ms
let set_slow_query_ms t v = t.slow_query_ms <- Option.map (max 0) v
let readonly t = t.readonly
let set_readonly t b = t.readonly <- b

type exec_outcome =
  | Created
  | Dropped
  | Inserted of int
  | Updated of int
  | Deleted of int
  | Selected of Resultset.t
  | Explained of string
  | Option_set of string * int
  | Began
  | Committed
  | Rolled_back

(* Run [f], mapping every layer's exception into Error.t. Statements are
   atomic by construction (UPDATE/DELETE evaluate and cast everything into
   a replacement table before one [Catalog.replace], INSERT evaluates every
   row before appending any),
   so unwinding here never leaves a table half-mutated — a failed
   statement inside an open transaction leaves the snapshot intact and
   COMMIT/ROLLBACK working. *)
let guard f =
  match f () with
  | v -> Ok v
  | exception Sql.Lexer.Lex_error (m, line, col) ->
    Error (Error.Parse_error { message = m; line; col })
  | exception Sql.Parser.Parse_error (m, line, col) ->
    Error (Error.Parse_error { message = m; line; col })
  | exception Relalg.Binder.Bind_error m -> Error (Error.Bind_error m)
  | exception Relalg.Scalar.Runtime_error m -> Error (Error.Runtime_error m)
  | exception Graph.Runtime.Weight_error m -> Error (Error.Runtime_error m)
  | exception Governor.Resource_error { kind; spent; limit; site } ->
    Error (Error.Resource_error { kind; spent; limit; site })
  | exception Fault.Injected { site; checks } ->
    Error
      (Error.Resource_error
         {
           kind = Error.Fault;
           spent = float_of_int checks;
           limit = float_of_int checks;
           site;
         })
  | exception Error.Csv_error m -> Error (Error.Io_error m)
  | exception Sys_error m -> Error (Error.Io_error m)
  | exception Unix.Unix_error (e, fn, arg) ->
    Error
      (Error.Io_error (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e)))
  | exception Invalid_argument m ->
    Error (Error.Runtime_error ("internal: " ^ m))
  | exception Not_found -> Error (Error.Internal_error "Not_found escaped")
  | exception Stack_overflow ->
    Error
      (Error.Internal_error
         "stack overflow (query nesting or graph recursion too deep)")
  | exception Out_of_memory -> Error (Error.Internal_error "out of memory")

let protect = guard

let fresh_ctx ?(tracing = false) t gov =
  Executor.Interp.create_ctx ~catalog:t.catalog ~indices:t.indices ~tracing
    ~domains:t.parallelism
    ~check:(Governor.checkpoint gov) ()

(* Merge the governor's counters into the per-query stats record. *)
let merge_counters gov (stats : Executor.Interp.stats) =
  let c = Governor.counters gov in
  stats.Executor.Interp.gov_checks <- c.Governor.checks;
  stats.Executor.Interp.gov_steps <- c.Governor.steps;
  stats.Executor.Interp.gov_peak_frontier <- c.Governor.peak_frontier;
  stats.Executor.Interp.gov_paths <- c.Governor.paths;
  stats.Executor.Interp.gov_budget_remaining_ms <-
    (match c.Governor.remaining_ms with Some r -> r | None -> Float.nan)

let run_select t ~params ~optimize ~gov q =
  let plan = Relalg.Binder.bind_query ~catalog:t.catalog ~params q in
  let plan = Relalg.Rewriter.rewrite ~options:optimize plan in
  let ctx = fresh_ctx t gov in
  let table =
    Telemetry.Trace.span "execute" (fun () -> Executor.Interp.run ctx plan)
  in
  (* the result-row budget tests the final cardinality *)
  Governor.check gov ~site:"result" ~rows:(Storage.Table.nrows table) ();
  let stats = Executor.Interp.stats ctx in
  merge_counters gov stats;
  t.last_stats <- Some stats;
  Resultset.of_table table

let find_table t name =
  match Storage.Catalog.find t.catalog name with
  | Some tbl -> tbl
  | None ->
    raise (Relalg.Binder.Bind_error (Printf.sprintf "unknown table %s" name))

let runtime_error m = Relalg.Scalar.Runtime_error m

(* The rows of [target] an UPDATE/DELETE touches, as a per-row mask and
   as ascending positions. The governor's "dml" site fires once per
   statement, charged the scanned rows; the WHERE then runs through the
   executor's own evaluator, whose primitives checkpoint as in a query. *)
let dml_hits t gov ~stmt ~params target where =
  let n = Storage.Table.nrows target in
  let pred =
    Option.map
      (fun w ->
        let bw =
          Relalg.Binder.bind_over_table ~catalog:t.catalog ~params
            ~schema:(Storage.Table.schema target) w
        in
        if not (Storage.Dtype.equal bw.Relalg.Lplan.ty Storage.Dtype.TBool)
        then raise (Relalg.Binder.Bind_error (stmt ^ " WHERE must be boolean"));
        bw)
      where
  in
  Governor.check gov ~site:"dml" ~steps:n ();
  let ctx = fresh_ctx t gov in
  let hits =
    match pred with
    | None -> Array.init n Fun.id
    | Some p -> Executor.Interp.eval_filter ctx target p
  in
  let hit = Array.make n false in
  Array.iter (fun row -> hit.(row) <- true) hits;
  (ctx, hit, hits)

(* Each SET expression is evaluated over the matched rows only, always
   against the old row. An unassigned column is a storage-sharing copy;
   an assigned one is one pass merging old cells with the new ones. *)
let exec_update t ~params ~gov ~table ~assignments ~where =
  let target = find_table t table in
  let schema = Storage.Table.schema target in
  let positions =
    Relalg.Binder.target_positions ~stmt:"UPDATE" schema
      (Some (List.map fst assignments))
  in
  let exprs =
    List.map
      (fun (_, e) ->
        Relalg.Binder.bind_over_table ~catalog:t.catalog ~params ~schema e)
      assignments
  in
  let ctx, hit, hits = dml_hits t gov ~stmt:"UPDATE" ~params target where in
  let matched =
    if Array.length hits = Storage.Table.nrows target then target
    else Storage.Table.take target hits
  in
  (* reversed, so a later assignment to the same column wins *)
  let fresh =
    List.rev_map2
      (fun pos e -> (pos, Executor.Interp.eval_column ctx matched e))
      positions exprs
  in
  let column pos =
    let old = Storage.Table.column target pos in
    match List.assoc_opt pos fresh with
    | None -> Storage.Column.copy old
    | Some cells ->
      let n = Storage.Table.nrows target in
      let col =
        Storage.Column.create ~capacity:(max 1 n) (Storage.Column.dtype old)
      in
      let k = ref 0 in
      for row = 0 to n - 1 do
        if hit.(row) then begin
          Storage.Column.append col
            (Relalg.Binder.cast_cell ~fail:runtime_error ~stmt:"UPDATE" schema
               pos
               (Storage.Column.get cells !k));
          incr k
        end
        else Storage.Column.append col (Storage.Column.get old row)
      done;
      col
  in
  let out =
    Storage.Table.of_columns ~nrows:(Storage.Table.nrows target) schema
      (List.init (Storage.Schema.arity schema) column)
  in
  Storage.Catalog.replace t.catalog table out;
  Updated (Array.length hits)

(* The kept rows are the complement of the hits: a NULL WHERE keeps. *)
let exec_delete t ~params ~gov ~table ~where =
  let target = find_table t table in
  let _, hit, hits = dml_hits t gov ~stmt:"DELETE" ~params target where in
  let keep =
    Array.of_seq
      (Seq.filter (fun row -> not hit.(row))
         (Seq.init (Storage.Table.nrows target) Fun.id))
  in
  Storage.Catalog.replace t.catalog table (Storage.Table.take target keep);
  Deleted (Array.length hits)

let txn_error m = raise (Relalg.Binder.Bind_error m)

let exec_begin t =
  if t.snapshot <> None then txn_error "already inside a transaction";
  t.snapshot <-
    Some
      (List.map
         (fun name ->
           (name, Storage.Table.copy (Option.get (Storage.Catalog.find t.catalog name))))
         (Storage.Catalog.names t.catalog));
  Began

let exec_commit t =
  if t.snapshot = None then txn_error "COMMIT outside a transaction";
  t.snapshot <- None;
  Committed

let exec_rollback t =
  match t.snapshot with
  | None -> txn_error "ROLLBACK outside a transaction"
  | Some saved ->
    (* drop everything touched since BEGIN, restore the copies; they get
       versions never handed out before, so every cached graph of them is
       stale and checked against the restored rows *)
    List.iter
      (fun name -> ignore (Storage.Catalog.drop t.catalog name))
      (Storage.Catalog.names t.catalog);
    List.iter
      (fun (name, table) -> Storage.Catalog.replace t.catalog name table)
      saved;
    t.snapshot <- None;
    Rolled_back

let exec_stmt_mem t ~params ~optimize ~gov stmt =
  match stmt with
  | Sql.Ast.Select q -> Selected (run_select t ~params ~optimize ~gov q)
  | Sql.Ast.Begin_txn -> exec_begin t
  | Sql.Ast.Commit_txn -> exec_commit t
  | Sql.Ast.Rollback_txn -> exec_rollback t
  | Sql.Ast.Explain { query = q; analyze } ->
    let plan = Relalg.Binder.bind_query ~catalog:t.catalog ~params q in
    let plan = Relalg.Rewriter.rewrite ~options:optimize plan in
    let rendered = Relalg.Explain.plan_to_string plan in
    if not analyze then Explained rendered
    else begin
      let ctx = fresh_ctx ~tracing:true t gov in
      let t0 = Unix.gettimeofday () in
      let table = Executor.Interp.run ctx plan in
      let total = Unix.gettimeofday () -. t0 in
      let stats = Executor.Interp.stats ctx in
      merge_counters gov stats;
      t.last_stats <- Some stats;
      let annots =
        List.map
          (fun (e : Executor.Interp.trace_entry) ->
            {
              Relalg.Explain.a_depth = e.Executor.Interp.tr_depth;
              a_label = e.Executor.Interp.tr_label;
              a_rows = e.Executor.Interp.tr_rows;
              a_seconds = e.Executor.Interp.tr_seconds;
              a_detail = e.Executor.Interp.tr_detail;
            })
          (Executor.Interp.trace ctx)
      in
      let buf = Buffer.create 256 in
      Buffer.add_string buf rendered;
      Buffer.add_string buf "-- analyze --\n";
      Buffer.add_string buf (Relalg.Explain.annotated_tree annots);
      Buffer.add_string buf
        (Printf.sprintf "result: %d rows in %.3fms\n"
           (Storage.Table.nrows table) (total *. 1000.));
      Explained (Buffer.contents buf)
    end
  | Sql.Ast.Set_option { name; value } -> (
    match name with
    | "parallelism" ->
      if value < 1 then
        raise (Relalg.Binder.Bind_error "SET parallelism expects a value >= 1");
      set_parallelism t value;
      Option_set (name, t.parallelism)
    | "slow_query_ms" ->
      (* threshold in milliseconds; 0 logs every statement that
         [observe] sees on this Db *)
      if value < 0 then
        raise
          (Relalg.Binder.Bind_error "SET slow_query_ms expects a value >= 0");
      set_slow_query_ms t (Some value);
      Option_set (name, value)
    | other ->
      raise
        (Relalg.Binder.Bind_error
           (Printf.sprintf
              "unknown option %s (available: parallelism, slow_query_ms)"
              other)))
  | Sql.Ast.Update { table; assignments; where } ->
    refuse_reserved table;
    exec_update t ~params ~gov ~table ~assignments ~where
  | Sql.Ast.Delete { table; where } ->
    refuse_reserved table;
    exec_delete t ~params ~gov ~table ~where
  | Sql.Ast.Create_table (name, defs) ->
    refuse_reserved name;
    if Storage.Catalog.mem t.catalog name then
      raise
        (Relalg.Binder.Bind_error (Printf.sprintf "table %s already exists" name));
    let fields =
      List.map
        (fun (d : Sql.Ast.column_def) ->
          match Storage.Dtype.of_name d.Sql.Ast.col_type with
          | Some ty -> { Storage.Schema.name = d.Sql.Ast.col_name; ty }
          | None ->
            raise
              (Relalg.Binder.Bind_error
                 (Printf.sprintf "unknown type %s for column %s"
                    d.Sql.Ast.col_type d.Sql.Ast.col_name)))
        defs
    in
    Storage.Catalog.add t.catalog name
      (Storage.Table.create (Storage.Schema.make fields));
    Created
  | Sql.Ast.Drop_table name ->
    refuse_reserved name;
    if not (Storage.Catalog.drop t.catalog name) then
      raise
        (Relalg.Binder.Bind_error (Printf.sprintf "unknown table %s" name));
    Dropped
  | Sql.Ast.Create_table_as (name, q) ->
    refuse_reserved name;
    if Storage.Catalog.mem t.catalog name then
      raise
        (Relalg.Binder.Bind_error (Printf.sprintf "table %s already exists" name));
    let rs = run_select t ~params ~optimize ~gov q in
    let result = Resultset.to_table rs in
    (* results may repeat column names; a stored table may not *)
    let schema =
      Storage.Schema.make (Storage.Schema.fields (Storage.Table.schema result))
    in
    List.iter
      (fun (f : Storage.Schema.field) ->
        if Storage.Dtype.equal f.Storage.Schema.ty Storage.Dtype.TPath then
          raise
            (Relalg.Binder.Bind_error
               (Printf.sprintf
                  "column %s: paths cannot be permanently stored (flatten \
                   with UNNEST first)"
                  f.Storage.Schema.name)))
      (Storage.Schema.fields schema);
    Storage.Catalog.add t.catalog name
      (Storage.Table.of_columns ~nrows:(Storage.Table.nrows result) schema
         (List.init (Storage.Table.arity result) (Storage.Table.column result)));
    Created
  | Sql.Ast.Insert { table; columns; source } -> (
    refuse_reserved table;
    match Storage.Catalog.find t.catalog table with
    | None ->
      raise (Relalg.Binder.Bind_error (Printf.sprintf "unknown table %s" table))
    | Some target -> (
      let schema = Storage.Table.schema target in
      match source with
      | Sql.Ast.Insert_values rows ->
        let cells =
          Relalg.Binder.bind_values ~catalog:t.catalog ~params ~schema
            ~columns rows
        in
        List.iter (Storage.Table.append_row target) cells;
        Storage.Catalog.touch t.catalog table;
        Inserted (List.length cells)
      | Sql.Ast.Insert_query q ->
        let rs = run_select t ~params ~optimize ~gov q in
        let src = Resultset.to_table rs in
        let positions =
          Relalg.Binder.target_positions ~stmt:"INSERT" schema columns
        in
        if Storage.Table.arity src <> List.length positions then
          raise
            (Relalg.Binder.Bind_error
               (Printf.sprintf
                  "INSERT ... SELECT provides %d columns, expected %d"
                  (Storage.Table.arity src) (List.length positions)));
        let arity = Storage.Schema.arity schema in
        (* statement atomicity: evaluate and cast every row before
           appending any, so a mid-statement cast failure (or injected
           fault) cannot leave a partial insert behind *)
        let staged =
          List.init (Storage.Table.nrows src) (fun row ->
              let cells = Array.make arity Storage.Value.Null in
              List.iteri
                (fun srccol pos ->
                  cells.(pos) <-
                    Relalg.Binder.cast_cell ~fail:runtime_error ~stmt:"INSERT"
                      schema pos
                      (Storage.Table.get src ~row ~col:srccol))
                positions;
              cells)
        in
        List.iter (Storage.Table.append_row target) staged;
        Storage.Catalog.touch t.catalog table;
        Inserted (Storage.Table.nrows src)))

let mutates_catalog = function
  | Sql.Ast.Insert _ | Sql.Ast.Update _ | Sql.Ast.Delete _
  | Sql.Ast.Create_table _ | Sql.Ast.Create_table_as _ | Sql.Ast.Drop_table _
    ->
    true
  | Sql.Ast.Select _ | Sql.Ast.Explain _ | Sql.Ast.Set_option _
  | Sql.Ast.Begin_txn | Sql.Ast.Commit_txn | Sql.Ast.Rollback_txn ->
    false

(* The durable statement wrapper.  [sql] is the statement's own text
   (the raw input for [exec] and the server, the pretty-printed form
   for scripts); its only use is as what the WAL records and what
   recovery replays.  The invariant maintained here is prefix
   consistency: at every instant the log contains exactly the
   acknowledged, committed statements, in order.

   - autocommit DML: log (append + fsync) *before* applying; if the
     apply then fails, [dur_abort] truncates the record back out.
   - DML inside BEGIN..COMMIT: apply first, buffer the text; COMMIT
     flushes the whole buffer plus a commit marker under one fsync
     (group commit).  A replayer discards trailing statements with no
     marker, so a crash mid-COMMIT loses the whole transaction — which
     was never acknowledged as committed.
   - COMMIT whose log flush fails: roll the in-memory state back to the
     BEGIN snapshot and surface the error; memory and log again agree.
   - ROLLBACK: discard the buffer. *)
let exec_stmt t ~sql ~params ~optimize ~gov stmt =
  (* read-only sessions refuse mutation *before* anything applies — a
     hook-based refusal would be too late inside a transaction, where
     [dur_buffer] only runs after the statement has mutated the catalog *)
  if t.readonly && mutates_catalog stmt then
    raise
      (Relalg.Scalar.Runtime_error
         "read-only session: DML/DDL refused (opened with --readonly)");
  match t.durability with
  | None -> exec_stmt_mem t ~params ~optimize ~gov stmt
  | Some d ->
    if mutates_catalog stmt then
      if t.snapshot <> None then begin
        let out = exec_stmt_mem t ~params ~optimize ~gov stmt in
        d.dur_buffer ~sql ~params;
        out
      end
      else begin
        d.dur_log ~sql ~params;
        match exec_stmt_mem t ~params ~optimize ~gov stmt with
        | out -> out
        | exception e ->
          (try d.dur_abort () with _ -> ());
          raise e
      end
    else begin
      match stmt with
      | Sql.Ast.Commit_txn when t.snapshot <> None ->
        (try d.dur_commit ()
         with e ->
           ignore (exec_rollback t);
           raise e);
        exec_commit t
      | Sql.Ast.Rollback_txn when t.snapshot <> None ->
        let out = exec_stmt_mem t ~params ~optimize ~gov stmt in
        d.dur_rollback ();
        out
      | _ -> exec_stmt_mem t ~params ~optimize ~gov stmt
    end

(* Fold one statement's execution into the session registry.  [delta] is
   the stats record [run_select] installed for this statement, if any —
   DML/DDL never produce one, and a failed statement's partial counters
   are deliberately not absorbed. *)
module Reg = Telemetry.Registry

let absorb_stats t ~dt ~failed ~delta =
  let reg = t.registry in
  Reg.inc reg "sqlgraph_statements_total" 1 ~help:"Statements executed";
  if failed then
    Reg.inc reg "sqlgraph_statements_failed_total" 1
      ~help:"Statements that returned an error";
  Reg.observe reg "sqlgraph_statement_seconds" dt
    ~help:"Wall-clock statement latency (seconds)";
  Reg.set_gauge reg "sqlgraph_parallelism"
    (float_of_int t.parallelism)
    ~help:"Traversal domains per batch (SET parallelism)";
  Reg.set_gauge reg "sqlgraph_uptime_seconds"
    (Unix.gettimeofday () -. t.created_at)
    ~help:"Seconds since this session's Db was created";
  match delta with
  | None -> ()
  | Some (s : Executor.Interp.stats) ->
    (* counters first, then histograms: the registry renders in
       registration order *)
    List.iter
      (fun (c : Executor.Interp.counter) ->
        match c.registry, c.get s with
        | Some (Executor.Interp.Total name), Executor.Interp.Int n ->
          Reg.inc reg name n ~help:c.help
        | _ -> ())
      Executor.Interp.counters;
    List.iter
      (fun (c : Executor.Interp.counter) ->
        match c.registry, c.get s with
        | Some (Executor.Interp.Histogram (name, guard)), Executor.Interp.Float v
          when guard s ->
          Reg.observe reg name v ~help:c.help
        | _ -> ())
      Executor.Interp.counters

let outcome_rows = function
  | Selected r -> Some (Resultset.nrows r)
  | Inserted n | Updated n | Deleted n -> Some n
  | Created | Dropped | Explained _ | Option_set _ | Began | Committed
  | Rolled_back ->
    None

(* The --json-metrics-append record (every statement) and the slow-query
   record (at or over the threshold), each one O_APPEND write of one
   whole line under the logs' mutex, so concurrent sessions' records
   never interleave. *)
let write_records t ~sql ~fp_hex ~qid ~ms ~stats ~rows r =
  let module M = Metrics in
  let append path fields =
    let line = M.to_compact_string (M.Obj fields) ^ "\n" in
    try
      Mutex.protect t.logs.logs_mu (fun () ->
          Out_channel.with_open_gen [ Open_wronly; Open_append; Open_creat ]
            0o644 path (fun oc -> Out_channel.output_string oc line))
    with Sys_error _ ->
      Reg.inc t.registry "sqlgraph_statement_log_errors_total" 1
        ~help:"Statement log records that could not be written"
  in
  let ids =
    [ ("fingerprint", M.String fp_hex); ("qid", M.String qid); ("ms", M.num ms) ]
  in
  Option.iter
    (fun path ->
      append path
        ((("schema", M.String "sqlgraph-metrics-v1") :: ("sql", M.String sql)
         :: ids)
        @ [
            ("ok", M.Bool (Result.is_ok r));
            ("stats", Option.fold ~none:M.Null ~some:M.stats_json stats);
          ]))
    t.logs.firehose;
  match (t.logs.slow_log, t.slow_query_ms) with
  | Some path, Some thr when ms >= float_of_int thr ->
    let spans =
      (* with recording off the track's id is a stale statement's *)
      (if Telemetry.Trace.enabled () then
         Telemetry.Trace.self_ms_by_name
           ~query:(Telemetry.Trace.current_query ())
       else [])
      |> List.filteri (fun i _ -> i < 3)
      |> List.map (fun (name, self_ms) ->
             M.Obj [ ("name", M.String name); ("self_ms", M.num self_ms) ])
    in
    let verdict = function
      | Ok _ -> "ok"
      | Error (Error.Resource_error { kind; _ }) -> Error.resource_kind_name kind
      | Error _ -> "error"
    in
    append path
      ((("ts", M.num (Unix.gettimeofday ())) :: ("query", M.String sql) :: ids)
      @ [
          ("rows", Option.fold ~none:M.Null ~some:(fun n -> M.Int n) rows);
          ("verdict", M.String (verdict r));
          ( "error",
            Result.fold r ~ok:(fun _ -> M.Null) ~error:(fun e ->
                M.String (Error.to_string e)) );
          ("spans", M.List spans);
        ])
  | _ -> ()

(* Every statement is observed here, once, after it was parsed: [fp] is
   the fingerprint of its AST, or of the rejected text when it did not
   parse.  The one place a query id is composed: fingerprint hex plus
   [seq], the caller's (a server session's own counter) or this Db's.
   Run [f] under a "statement" span stamped with the id (the trace's
   statement id, allocated by [parse], is shared with the "parse"
   span), time it, absorb counters into the registry and the
   fingerprint store, write the log records, and — the stale-stats fix
   — clear [last_stats] on failure so [\stats] can never silently
   report the previous statement.  The histogram, the store and both
   records see the *same* delta, which excludes the parse. *)
let observe t ?seq ~sql ~rows_of (fp, norm) f =
  if seq = None then t.stmt_seq <- t.stmt_seq + 1;
  let fp_hex = Sql.Fingerprint.to_hex fp in
  let qid =
    Printf.sprintf "%s:%d" fp_hex (Option.value seq ~default:t.stmt_seq)
  in
  t.last_query_id <- Some qid;
  let before = t.last_stats in
  let t0 = Unix.gettimeofday () in
  let r =
    guard (fun () -> Telemetry.Trace.span ~attrs:[ ("qid", qid) ] "statement" f)
  in
  let dt = Unix.gettimeofday () -. t0 in
  let ms = dt *. 1000. in
  let failed = Result.is_error r in
  if failed then t.last_stats <- None;
  let delta =
    match t.last_stats with
    | Some s when not (before == t.last_stats) -> Some s
    | _ -> None
  in
  absorb_stats t ~dt ~failed ~delta;
  let gov_abort =
    match r with Error (Error.Resource_error _) -> true | _ -> false
  in
  let counters =
    Array.of_list
      (List.map (fun (_, count) -> Option.fold ~none:0 ~some:count delta)
         stat_counters)
  in
  let rows = match r with Ok v -> rows_of v | Error _ -> None in
  Stat_store.record t.stat_store ~fingerprint:fp ~query:norm ~ms
    ~rows:(Option.value rows ~default:0)
    ~failed ~gov_abort ~counters;
  if not (t.replaying || t.logs == no_logs) then
    write_records t ~sql ~fp_hex ~qid ~ms ~stats:delta ~rows r;
  r

(* A statement refused before it runs still counts as a failed call of
   its fingerprint. *)
let refuse t ?seq ~sql fp exn =
  observe t ?seq ~sql ~rows_of:(fun _ -> None) fp (fun () -> raise exn)

let exec_parsed t ?seq ~params ~optimize ~gov ~sql stmt =
  observe t ?seq ~sql ~rows_of:outcome_rows (Sql.Fingerprint.of_stmt stmt)
    (fun () -> exec_stmt t ~sql ~params ~optimize ~gov stmt)

let parse t ?seq sql =
  ignore (Telemetry.Trace.next_query ());
  match Telemetry.Trace.span "parse" (fun () -> Sql.Parser.parse_stmt sql) with
  | stmt -> Ok stmt
  | exception e -> refuse t ?seq ~sql (Sql.Fingerprint.of_unparsed sql) e

let exec t ?(params = [||]) ?(budget = Governor.no_limits) ?governor sql =
  (* [?governor] lets a caller hold the governor while the statement
     runs — the CLI's SIGINT handler cancels it cooperatively, the
     server cancels it on shutdown — instead of the per-call default. *)
  let gov = match governor with Some g -> g | None -> Governor.start budget in
  Result.bind (parse t sql)
    (exec_parsed t ~params ~optimize:Relalg.Rewriter.default_options ~gov ~sql)

let exec_exn t ?params ?budget sql =
  match exec t ?params ?budget sql with
  | Ok o -> o
  | Error e -> failwith (Error.to_string e)

let exec_script_each t ?(budget = Governor.no_limits) ~f sql =
  (* each statement gets its own governor: the budget is per statement,
     not per script *)
  match
    guard (fun () ->
        Telemetry.Trace.span "parse" (fun () -> Sql.Parser.parse_script sql))
  with
  | Error e -> Error e
  | Ok stmts ->
    let rec go = function
      | [] -> Ok ()
      | stmt :: rest ->
        let sql = Sql.Pretty.stmt_to_string stmt in
        ignore (Telemetry.Trace.next_query ());
        let r =
          exec_parsed t ~params:[||] ~optimize:Relalg.Rewriter.default_options
            ~gov:(Governor.start budget) ~sql stmt
        in
        f r;
        Result.bind r (fun _ -> go rest)
    in
    go stmts

let exec_script t ?budget sql =
  let outs = ref [] in
  match
    exec_script_each t ?budget sql
      ~f:(Result.iter (fun o -> outs := o :: !outs))
  with
  | Ok () -> Ok (List.rev !outs)
  | Error e -> Error e

let query t ?(params = [||]) ?(optimize = Relalg.Rewriter.default_options)
    ?(budget = Governor.no_limits) sql =
  match parse t sql with
  | Error e -> Error e
  | Ok (Sql.Ast.Select _ as stmt) ->
    Result.map
      (function Selected r -> r | _ -> assert false (* SELECT => Selected *))
      (exec_parsed t ~params ~optimize ~gov:(Governor.start budget) ~sql stmt)
  | Ok stmt ->
    refuse t ~sql
      (Sql.Fingerprint.of_stmt stmt)
      (Relalg.Binder.Bind_error "query expects a SELECT statement")

let query_exn t ?params ?optimize ?budget sql =
  match query t ?params ?optimize ?budget sql with
  | Ok r -> r
  | Error e -> failwith (Error.to_string e)

let explain t ?(params = [||]) ?(optimize = Relalg.Rewriter.default_options) sql
    =
  guard (fun () ->
      match Sql.Parser.parse_stmt sql with
      | Sql.Ast.Select q ->
        let plan = Relalg.Binder.bind_query ~catalog:t.catalog ~params q in
        let plan = Relalg.Rewriter.rewrite ~options:optimize plan in
        Relalg.Explain.plan_to_string plan
      | _ ->
        raise (Relalg.Binder.Bind_error "EXPLAIN expects a SELECT statement"))

let index_key t ~table ~src ~dst =
  match Storage.Catalog.find t.catalog table with
  | None ->
    raise (Relalg.Binder.Bind_error (Printf.sprintf "unknown table %s" table))
  | Some tbl ->
    let schema = Storage.Table.schema tbl in
    let col what name =
      match Storage.Schema.index_of schema name with
      | Some i -> i
      | None ->
        raise
          (Relalg.Binder.Bind_error
             (Printf.sprintf "table %s has no %s column %s" table what name))
    in
    {
      Executor.Graph_index.table;
      src = [ col "source" src ];
      dst = [ col "destination" dst ];
    }

let create_graph_index t ~table ~src ~dst =
  guard (fun () ->
      Executor.Graph_index.enable t.indices (index_key t ~table ~src ~dst))

let drop_graph_index t ~table ~src ~dst =
  guard (fun () ->
      Executor.Graph_index.disable t.indices (index_key t ~table ~src ~dst))

let last_stats t = t.last_stats
