(** The public database API.

    {[
      let db = Db.create () in
      Db.exec_exn db "CREATE TABLE friends (src INTEGER, dst INTEGER)";
      Db.exec_exn db "INSERT INTO friends VALUES (1, 2), (2, 3)";
      let r =
        Db.query_exn db
          ~params:[| Int 1; Int 3 |]
          "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)"
      in
      print_string (Resultset.to_string r)
    ]}

    Host parameters ([?]) are substituted at bind time, so a statement is
    compiled per execution. All state is in-memory. *)

type t

(** [create ()] — an empty in-memory database.  [?indices] shares an
    existing graph-index cache instead of creating a private one: the
    server hands every session database the shared database's instance,
    so a graph built by any session (or warmed by the replica's apply
    loop) is a cache hit for all of them.  The shared instance is
    thread-safe; coherence across catalogs relies on version mirroring
    (see {!load_table}'s [?version]). *)
val create : ?indices:Executor.Graph_index.t -> unit -> t

val catalog : t -> Storage.Catalog.t

val indices : t -> Executor.Graph_index.t
(** The graph-index cache (pass to [create ?indices] to share). *)

(** [load_table db ~name table] — register a pre-built columnar table
    (bulk loading path used by the generators and benchmarks). Replaces
    any existing table of that name, bumping its version — or, with
    [?version], setting it explicitly so a session catalog mirrors the
    publisher's version and the shared graph-index cache stays coherent
    across sessions. *)
val load_table : ?version:int -> t -> name:string -> Storage.Table.t -> unit

(** [warm_graph_indexes db] — pre-build every enabled graph index over
    the current catalog (no-op for keys already fresh); returns how many
    were built.  The replica's apply loop warms after catch-up so the
    first post-failover path query hits the cache. *)
val warm_graph_indexes : t -> int

(** Outcome of a statement. *)
type exec_outcome =
  | Created  (** CREATE TABLE *)
  | Dropped  (** DROP TABLE *)
  | Inserted of int  (** INSERT: rows added *)
  | Updated of int  (** UPDATE: rows changed *)
  | Deleted of int  (** DELETE: rows removed *)
  | Selected of Resultset.t  (** a SELECT ran through {!exec} *)
  | Explained of string  (** an EXPLAIN statement: the rendered plan *)
  | Option_set of string * int  (** SET name = n: the applied value *)
  | Began  (** BEGIN [TRANSACTION]: tables snapshotted *)
  | Committed  (** COMMIT: snapshot discarded *)
  | Rolled_back  (** ROLLBACK: tables restored, graph caches cleared *)

(** [parse db sql] — start a statement: allocate its trace id
    ({!Telemetry.Trace.next_query}) and parse it, once, under a
    ["parse"] span.  Text that does not parse is recorded as a failed
    call of its token-level fingerprint, as {!exec} records it. *)
val parse : t -> string -> (Sql.Ast.stmt, Error.t) result

(** [exec_parsed db ~params ~optimize ~gov ~sql stmt] — the entry every
    statement runs through ({!exec}, {!query}, scripts and the server):
    fingerprint [stmt] ({!Sql.Fingerprint.of_stmt}), stamp its query id
    on a ["statement"] span, execute it under [gov] and record it in the
    registry and stat store.  The recorded latency excludes the parse.
    [sql] is the source text; it is used only as the WAL record. *)
val exec_parsed :
  t ->
  params:Storage.Value.t array ->
  optimize:Relalg.Rewriter.options ->
  gov:Governor.t ->
  sql:string ->
  Sql.Ast.stmt ->
  (exec_outcome, Error.t) result

(** [mutates_catalog stmt] — INSERT, UPDATE, DELETE, CREATE or DROP:
    refused in read-only mode, logged by the WAL, run by the server
    under its writer lock. *)
val mutates_catalog : Sql.Ast.stmt -> bool

(** [exec db ?params ?budget ?governor sql] — {!parse} then
    {!exec_parsed}, under a fresh {!Governor} built from [budget]
    (default {!Governor.no_limits}).  Budget exhaustion, cancellation and
    injected faults surface as [Error.Resource_error]; the session — and
    any open transaction snapshot — survives.  Pass [?governor] to keep
    a handle on the statement's governor while it runs (the CLI's SIGINT
    handler and the server's shutdown path call {!Governor.cancel} on it
    from another thread); it overrides [budget]. *)
val exec :
  t ->
  ?params:Storage.Value.t array ->
  ?budget:Governor.budget ->
  ?governor:Governor.t ->
  string ->
  (exec_outcome, Error.t) result

(** [exec_exn] — [exec] raising [Failure] with the rendered error. *)
val exec_exn :
  t ->
  ?params:Storage.Value.t array ->
  ?budget:Governor.budget ->
  string ->
  exec_outcome

(** [exec_script db ?budget sql] — run a [;]-separated script (no
    parameters). The budget is per statement, not per script. *)
val exec_script :
  t -> ?budget:Governor.budget -> string -> (exec_outcome list, Error.t) result

(** [exec_script_each db ?budget ~f sql] — like {!exec_script}, but
    invoke [f] after every statement with its rendered SQL text and its
    result, so per-statement observers (the CLI's metrics sinks and
    slow-query log) see failures and intermediate outcomes instead of an
    all-or-nothing list.  Execution stops at the first error (returned),
    or when [f] answers [`Stop] (returns [Ok ()]). *)
val exec_script_each :
  t ->
  ?budget:Governor.budget ->
  f:(sql:string -> (exec_outcome, Error.t) result -> [ `Continue | `Stop ]) ->
  string ->
  (unit, Error.t) result

(** [query db ?params ?optimize ?budget sql] — run a SELECT; any other
    statement is refused (a failed call) before it runs. [optimize]
    overrides the rewriter configuration (used by the optimizer
    ablations). *)
val query :
  t ->
  ?params:Storage.Value.t array ->
  ?optimize:Relalg.Rewriter.options ->
  ?budget:Governor.budget ->
  string ->
  (Resultset.t, Error.t) result

val query_exn :
  t ->
  ?params:Storage.Value.t array ->
  ?optimize:Relalg.Rewriter.options ->
  ?budget:Governor.budget ->
  string ->
  Resultset.t

(** [protect f] — run [f] under the same exception-to-[Error.t] mapping
    statements get: parse/bind/runtime errors, [Resource_error], injected
    faults, CSV and I/O errors, [Stack_overflow], [Out_of_memory]. Used
    by {!Csv} and the CLI so auxiliary operations (imports) fail like
    statements instead of killing the session. *)
val protect : (unit -> 'a) -> ('a, Error.t) result

(** [explain db ?params ?optimize sql] — the bound, rewritten plan as an
    indented operator tree. *)
val explain :
  t ->
  ?params:Storage.Value.t array ->
  ?optimize:Relalg.Rewriter.options ->
  string ->
  (string, Error.t) result

(** Graph indices (DESIGN.md §6 — the paper's "future work" §6): pre-build
    and cache the graph of a base edge table so queries skip
    construction. Invalidated automatically when the table changes. *)

val create_graph_index :
  t -> table:string -> src:string -> dst:string -> (unit, Error.t) result

val drop_graph_index :
  t -> table:string -> src:string -> dst:string -> (unit, Error.t) result

(** [last_stats db] — graph build/traversal counters of the most recent
    {!query}/{!exec} (experiment A1's instrumentation).  Cleared when a
    statement fails, so a consumer can never mistake the previous
    statement's counters for the failed one's. *)
val last_stats : t -> Executor.Interp.stats option

(** Session traversal parallelism ([SET parallelism = n] / CLI
    [--domains]): the number of domains {!Graph.Runtime.run_pairs} may
    spread source groups over. Clamped to >= 1; results are identical to
    serial execution by construction (disjoint outcome slots). *)

val parallelism : t -> int
val set_parallelism : t -> int -> unit

(** [registry db] — the session's cumulative metrics registry.  Every
    statement run through {!exec_parsed} and every {!parse} failure adds
    its latency to the [sqlgraph_statement_seconds] histogram and folds its
    {!Executor.Interp.stats} counters in; render with
    {!Telemetry.Registry.to_table} ([\metrics]),
    {!Telemetry.Registry.to_prometheus} ([--metrics-out]) or
    {!Metrics.registry_json} (the JSON [session] section). *)
val registry : t -> Telemetry.Registry.t

(** Slow-query threshold in milliseconds ([SET slow_query_ms = n] / CLI
    [--slow-query-ms]); [None] = disabled.  The Db stores the setting;
    the CLI compares statement latency against it and appends NDJSON
    records to the slow-query log. *)

val slow_query_ms : t -> int option
val set_slow_query_ms : t -> int option -> unit

(** Read-only (inspection) mode: when set, every catalog-mutating
    statement (INSERT/UPDATE/DELETE/CREATE/DROP) is refused with a
    runtime error {e before} it applies — even inside an open
    transaction.  Set by {!Wal.open_dir} [~readonly:true] and by the
    CLI's [--readonly] flag. *)

val readonly : t -> bool
val set_readonly : t -> bool -> unit

(** Durability hooks (installed by {!Wal.attach}; [None] = plain
    in-memory session).  The Db drives them around catalog-mutating
    statements so write-ahead logging stays outside the executor:

    - autocommit DML: [dur_log] runs before the statement applies
      (log-before-apply); [dur_abort] erases the record if the apply
      fails.
    - DML inside BEGIN..COMMIT: applied statements are buffered with
      [dur_buffer]; [dur_commit] flushes the buffer plus a commit marker
      under one fsync at COMMIT (group commit) — if that flush fails the
      Db rolls back to the BEGIN snapshot before surfacing the error —
      and [dur_rollback] discards the buffer at ROLLBACK. *)
type durability = {
  dur_log : sql:string -> params:Storage.Value.t array -> unit;
  dur_abort : unit -> unit;
  dur_buffer : sql:string -> params:Storage.Value.t array -> unit;
  dur_commit : unit -> unit;
  dur_rollback : unit -> unit;
}

val set_durability : t -> durability option -> unit

(** [in_transaction db] — a BEGIN snapshot is open (checkpointing is
    refused mid-transaction). *)
val in_transaction : t -> bool

(** {1 Introspection (DESIGN.md §14)}

    Every Db resolves read-only virtual system tables under reserved
    [sqlgraph_*] names: [sqlgraph_stat_statements] (per-fingerprint
    cumulative statement stats), [sqlgraph_stat_graph] (graph indices
    and cache hit/miss counters), [sqlgraph_stat_wal] (live when a WAL
    store is attached), [sqlgraph_stat_sessions] (populated by the
    server) and [sqlgraph_metrics] (one row per registry counter/gauge
    value and histogram percentile).  They compose with ordinary
    SELECT/WHERE/ORDER BY but are refused by DML/DDL, excluded from
    BEGIN snapshots and never persisted. *)

(** [is_reserved_name n] — [n] is in the reserved [sqlgraph_*] system
    namespace (case-insensitive). *)
val is_reserved_name : string -> bool

(** [register_virtual_table db ~name provider] — register (or replace)
    a virtual table materialized fresh on every scan.  Used by
    {!Wal.open_dir} (live [sqlgraph_stat_wal]) and the server (live
    [sqlgraph_stat_sessions] / combined [sqlgraph_metrics] on each
    session's private Db). *)
val register_virtual_table :
  t -> name:string -> (unit -> Storage.Table.t) -> unit

(** [stat_store db] — the bounded per-fingerprint statement-stats store
    behind [sqlgraph_stat_statements].  {!exec_parsed} and {!parse}
    record every statement's fingerprint, latency (the exact delta the
    [sqlgraph_statement_seconds] histogram observes), row count and
    traversal counters here. *)
val stat_store : t -> Stat_store.t

(** [set_stat_store db store] — share a store across Dbs (the server
    points every session's private Db at the writer Db's store, so the
    whole server workload lands in one view). *)
val set_stat_store : t -> Stat_store.t -> unit

(** [reset_statement_stats db] — zero the fingerprint store ([\stat
    reset]); the metrics registry is deliberately untouched. *)
val reset_statement_stats : t -> unit

(** [last_query_id db] — the query id ([<fingerprint-hex>:<seq>], with
    [seq] monotone per Db) of the most recent statement, as stamped on
    its trace span; [None] before the first statement. *)
val last_query_id : t -> string option

(** [last_fingerprint db] — the 16-hex-digit fingerprint of the most
    recent statement's normalized text. *)
val last_fingerprint : t -> string option

(** Schemas of the provider-overridable system tables, shared by the
    default (empty) providers and the live ones in {!Wal} and the
    server. *)

val stat_wal_schema : Storage.Schema.t
val stat_sessions_schema : Storage.Schema.t
val stat_replication_schema : Storage.Schema.t
