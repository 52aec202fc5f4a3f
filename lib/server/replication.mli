(** WAL-streaming hot standby (DESIGN.md §15).

    {!Hub} runs on the primary: it serves standby handshakes, ships
    every group-commit batch's newly durable WAL range {e before} the
    batch's commits are acknowledged (so [kill -9] of the primary loses
    no acknowledged commit — the frames are already in each replica's
    socket buffer), and heartbeats idle replicas.

    {!Standby} runs on the replica, reading the stream through
    {!Client}: it decodes each frame-aligned chunk whole
    ({!Sqlgraph.Wal.decode_frames}), appends it verbatim to its own log
    (a byte-identical mirror), applies committed statements to the
    shared database with {!Sqlgraph.Wal.replay} — in-transaction records
    wait for their commit marker, so an unacknowledged transaction is
    never visible — publishes snapshots
    with a version floor carried on the stream, keeps the graph-index
    cache warm, and serves [PROMOTE].

    Fault sites: [repl_handshake], [repl_send], [repl_apply],
    [promote_fence]. *)

module Hub : sig
  type t

  val create :
    ?ping_interval_ms:int ->
    sched:Scheduler.t ->
    store:Sqlgraph.Wal.t ->
    db:Sqlgraph.Db.t ->
    unit ->
    t
  (** Wire the hub into a primary server: installs the scheduler's
      replica-attach and ship hooks, registers the live
      [sqlgraph_stat_replication] provider on the shared database, and
      starts the heartbeat thread (default 1000 ms interval). *)

  val replica_count : t -> int

  val status_table : t -> Storage.Table.t
  (** One [sqlgraph_stat_replication] row per connected replica (or a
      single idle row). *)

  val stop : t -> unit
  (** Uninstall the hooks, close every replica socket, join the
      heartbeat thread. *)
end

module Standby : sig
  type t

  type state = Connecting | Syncing | Streaming | Promoted | Stopped

  val create :
    ?reconnect_ms:int ->
    sched:Scheduler.t ->
    store:Sqlgraph.Wal.t ->
    db:Sqlgraph.Db.t ->
    primary:Client.endpoint ->
    unit ->
    t
  (** Start a standby against [primary]: installs the scheduler's
      promote hook, registers the live [sqlgraph_stat_replication]
      provider, and spawns the receive loop ([store] must come from
      {!Sqlgraph.Wal.open_replica}).  The loop reconnects with a fixed
      pause (default 200 ms) on any failure; the handshake renegotiates
      the exact resume point each time. *)

  val state : t -> state
  val state_name : state -> string

  val applied_offset : t -> int
  (** Local log bytes appended and applied. *)

  val lag : t -> int
  (** Bytes the primary has named (shipped or pinged) that are not yet
      applied locally. *)

  val promote : t -> (int, string) result
  (** Fence the stream and turn this standby into a primary:
      checkpoint the applied state into a fresh generation (discarding
      any shipped-but-uncommitted transaction tail), install durability
      hooks, clear read-only, publish.  Returns the new generation.
      Also reachable over the wire as the [PROMOTE] verb. *)

  val status_table : t -> Storage.Table.t

  val stop : t -> unit
  (** Stop the receive loop (no-op on a promoted standby beyond joining
      the already-exited thread). *)
end
