(** Shared state of the multi-session server: the writer lock, the
    published snapshot, admission control, and the server-wide metrics
    registry.  One [t] per server; every session thread holds a
    reference.  See the implementation header for the concurrency
    model. *)

(** Time source for session idle-deadline accounting (the pattern of
    [Telemetry.Trace.set_clock], scoped to one server).  [Wall] is
    production behaviour: the idle timeout is a single full-length
    [select].  [Manual f] reads virtual seconds from [f] and the session
    reader polls in short ticks instead — a test advances the virtual
    clock and the timeout fires deterministically, with no real-time
    sleeps to race against. *)
type clock = Wall | Manual of (unit -> float)

type config = {
  max_sessions : int;
      (** admission cap; beyond it connections get [ERR busy].  Clamped
          at {!create} to stay safely below [FD_SETSIZE] (1024), since
          session I/O multiplexes with [Unix.select]. *)
  idle_timeout_ms : int;  (** close a session idle longer than this *)
  max_line_bytes : int;  (** request frame cap; longer lines are a protocol error *)
  write_high_water : int;  (** load-shed writes when this many are queued *)
  busy_retry_ms : int;  (** retry hint attached to busy rejections *)
  budget : Sqlgraph.Governor.budget;  (** per-statement resource budget *)
  clock : clock;  (** idle-deadline time source; [Wall] outside tests *)
}

val default_config : config

type t

val create :
  ?config:config -> db:Sqlgraph.Db.t -> store:Sqlgraph.Wal.t option -> unit -> t
(** When [store] is given the server runs durable with group commit
    (the store is switched to deferred-sync mode); [None] is a plain
    in-memory server.  The initial catalog is published as snapshot
    version 0. *)

val config : t -> config
val db : t -> Sqlgraph.Db.t
val store : t -> Sqlgraph.Wal.t option

(** {1 Shutdown} *)

val stop_fd : t -> Unix.file_descr
(** Self-pipe read end: becomes readable (EOF) permanently once
    {!begin_stop} runs — select on it alongside the session socket. *)

val begin_stop : t -> unit
val stopping : t -> bool

(** {1 Admission} *)

val admit : t -> [ `Ok of int | `Full | `Stopping ]
(** Try to enter a session slot; [`Ok sid] carries the session id. *)

val leave : t -> sid:int -> unit

(** {1 Introspection (DESIGN.md §14)} *)

val session_note :
  t -> sid:int -> qid:string option -> snapshot:int -> in_txn:bool -> unit
(** Record one served statement against the session's
    [sqlgraph_stat_sessions] row: bump its statement count and stamp
    the query id, observed snapshot version and transaction flag. *)

val sessions_table : t -> Storage.Table.t
(** Materialize [sqlgraph_stat_sessions]: one row per connected
    session. *)

val metrics_table : ?extra:Telemetry.Registry.t list -> t -> Storage.Table.t
(** Materialize [sqlgraph_metrics] from the server registry plus any
    [extra] registries (the shared Db's, a session's private one) —
    a best-effort live read. *)

(** {1 Write path} *)

val writer_acquire : t -> [ `Ok | `Busy of int ]
(** Block for the writer lock, unless the write queue is at the
    high-water mark — then shed load with [`Busy retry_ms]. *)

val writer_release : t -> unit

val publish : t -> unit
(** Publish the current catalog as a new immutable snapshot version.
    Must be called with the writer lock held. *)

val log_target : t -> int
(** The WAL's logical end — capture while holding the writer lock,
    then pass to {!wait_durable} after release.  0 without a store. *)

val wait_durable : t -> int -> unit
(** Group commit: block until a shared fsync covers [target].  Raises
    if the covering fsync round failed (report the statement as an
    error, do not acknowledge). *)

(** {1 Read path} *)

val snapshot_version : t -> int

val refresh_snapshot :
  t ->
  session_db:Sqlgraph.Db.t ->
  seen:(string, int) Hashtbl.t ->
  last_version:int ->
  int
(** Bring a session's private [Db] up to the latest published snapshot
    and return its version.  [seen] is the session's record of which
    table versions it already loaded (owned by the session thread);
    only changed tables are reloaded, and loading shares structure with
    the published copies — it never copies rows. *)

(** {1 Metrics}

    The server-wide registry (sessions, queue depths, group-commit
    sizes).  [Registry] itself is single-writer, so all updates go
    through these mutex-guarded helpers; {!metrics} is for rendering
    after the server has quiesced (or for best-effort live reads). *)

val metrics : t -> Telemetry.Registry.t
val metric_inc : t -> ?help:string -> string -> int -> unit
val metric_gauge : t -> ?help:string -> string -> float -> unit
val metric_observe : t -> ?help:string -> string -> float -> unit

(** {1 Replication wiring (DESIGN.md §15)}

    The scheduler itself is role-agnostic; {!Replication} installs the
    hooks that give it a role.  On a primary, [set_repl_attach] receives
    standby handshakes and [set_ship] forwards each group-commit batch;
    on a standby, [set_promote_hook] serves the PROMOTE verb and
    [set_publish_floor] keeps the published snapshot version at or above
    everything the old primary acknowledged. *)

val set_repl_attach :
  t -> (Unix.file_descr -> gen:int -> offset:int -> unit) option -> unit
(** Install the hub's handshake handler: a session that reads a
    [REPLICA gen=.. offset=..] line hands its socket over (without
    closing it) and exits. *)

val repl_attach :
  t -> (Unix.file_descr -> gen:int -> offset:int -> unit) option

val set_promote_hook : t -> (unit -> (int, string) result) option -> unit
(** Install the standby's promotion handler; [Ok gen] is the fenced new
    generation reported on the [OK PROMOTE gen=<g>] line. *)

val promote_hook : t -> (unit -> (int, string) result) option

val set_ship : t -> (from:int -> upto:int -> unit) option -> unit
(** Forward to {!Group_commit.set_ship} (no-op without a store): ship
    each newly durable byte range to the replicas before the batch's
    commits are acknowledged. *)

val set_publish_floor : t -> int -> unit
(** Raise the published snapshot version to at least the given value
    (no table changes) — the standby applies the [snap=] values riding
    the stream so post-failover reads never observe a version below one
    already seen on the old primary. *)

val writer_lock : t -> Mutex.t
(** The raw writer mutex, for replication paths that must bypass
    {!writer_acquire}'s load shedding (full-resync snapshot, standby
    apply loop). *)
