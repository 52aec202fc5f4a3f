(** Deterministic discrete-event workload driver (the stress tier).

    N simulated clients live in a binary-heap event queue
    ({!Event_queue}) over a virtual clock.  Each client draws statements
    from its own seeded SplitMix stream — single-pair CHEAPEST queries,
    batched pairs tables, kv INSERT/DELETE bursts, UNNEST path
    extraction, BEGIN..COMMIT/ROLLBACK transactions, governed statements
    under an exhausting budget, checkpoints, reconnect churn and rare
    edge DML — executes against the chosen backend, and reschedules
    itself after a jittered per-class think time.  The whole event trace
    is a pure function of the config: same seed ⇒ same {!report.digest}.

    Both backends answer each statement as the wire would (the
    in-process outcome rendered by {!Sqlgraph_server.Protocol.ok_outcome}
    at the driver's serial version); the outcome digest is rendered from
    the decoded reply.  The driver holds no audit of its own:
    every write goes into a {!History} (acked at its snapshot version
    with the rows it wrote and the count it reported, or refused when a
    transaction rolls back), every served reply's snapshot too, and the
    reconciliation reads — the kv and friends counts at checkpoint
    (Server) or reconnect (Inproc) events, kv's rows after the scripted
    kill-and-recover (Inproc) and at the end — are reads at their
    snapshot.  A statement answered outside its class's expectation (an
    ordinary statement failing, a governed one not limited) is recorded
    as unexpected.  {!History.check} judges the finished history: acked
    writes survive the crash, rolled-back rows never appear, counts are
    conserved, snapshots are monotone per session across reconnects, and
    every read returns the serial state at its version.  Violations are
    collected into the report, never raised.

    Wall-clock latency per statement feeds a {!Telemetry.Registry}
    histogram per class (p50/p99/max in {!report.classes}); it never
    feeds back into virtual time, so timing noise cannot perturb the
    trace. *)

type backend =
  | Inproc  (** WAL-backed {!Sqlgraph.Db} in a temp dir; supports kill_at *)
  | Server_sessions
      (** the PR 6 multi-session server over socketpairs; supports
          reconnect churn and snapshot-monotonicity checks *)

type tier = Small | Medium | Large

type config = {
  backend : backend;
  seed : int;
  clients : int;
  statements : int;  (** stop once this many statements executed *)
  persons : int;
  friendships : int;  (** undirected friendships (directed edges = 2×) *)
  batch_pairs : int;  (** rows in each client's pairs table *)
  kv_keys : int;  (** key range of the DML-burst table *)
  kill_at : int option;
      (** Inproc only: [Wal.crash_for_testing] + reopen after this many
          statements, then read kv's rows back into the history *)
  data_dir : string option;  (** Inproc WAL root; [None] = fresh temp dir *)
  domains : int;
      (** SET parallelism applied to every backend db (and re-applied after
          crash recovery — parallelism is session state, not durable state) *)
}

val config_of_tier :
  ?backend:backend -> ?seed:int -> ?domains:int -> tier -> config
(** Small ≈ 50k statements (check.sh smoke), Medium = 1M (the committed
    BENCH_sim.json trajectory), Large = 2M over an SF100-class graph
    (448k persons / 40M directed edges — past
    {!Graph.Csr.auto_compact_threshold}, so the packed CSR carries it). *)

type class_stats = {
  cls : string;
  count : int;
  mean : float;
  p50 : float;
  p99 : float;
  lat_max : float;
}

type report = {
  statements : int;
  events : int;
  virtual_seconds : float;
  wall_seconds : float;
  violation_count : int;
  violations : string list;  (** first few, for the console *)
  judged : (string * int) list;
      (** events each {!History} invariant judged, by invariant name *)
  digest : int;  (** CRC32 chain over (time, client, class, SQL) *)
  outcome_digest : int;  (** CRC32 chain over outcome summaries *)
  recoveries : int;
  checkpoints : int;
  reconnects : int;
  classes : class_stats list;
  vertices : int;
  edges : int;
}

val run : config -> report
(** Build the graph, load the backend, drive the event loop, reconcile,
    tear down (temp dirs removed, sessions closed, server shut down). *)

val mutate_graph :
  Sqlgraph.Db.t -> ids:int array -> seed:int -> statements:int -> unit
(** The simulator's edge-DML burst as a standalone helper: [statements]
    seeded INSERT/DELETE statements against [friends], for regression
    tests that need a deterministically mutated graph.  Raises
    [Failure] if a statement errors. *)

val json_report : config -> report -> Sqlgraph.Metrics.json
(** sqlgraph-bench-v1 document (suite ["sim"]) — the shape committed as
    BENCH_sim.json. *)

val print_report : report -> unit
