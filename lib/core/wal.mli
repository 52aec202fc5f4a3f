(** Crash-safe durability: a per-database write-ahead log plus atomic
    checkpoints over the {!Persist} CSV format (DESIGN.md §11).

    A data directory holds a generation-numbered pair — [checkpoint-%06d/]
    (a {!Persist} save) and [wal-%06d.log] (every committed DML statement
    since that checkpoint) — plus a [CURRENT] pointer naming the live
    generation. Opening the directory loads the checkpoint, replays the
    log (truncating at the first torn or checksum-failing record) and
    installs {!Db.durability} hooks so further committed DML is logged
    before it is acknowledged.

    Log format: an 8-byte magic header ["SQLGWAL1"], then length-prefixed
    records ([u32 LE payload length | u32 LE crc32 | payload]); the
    payload is a kind byte ('A' autocommit, 'S' in-transaction statement,
    'C' commit marker), a parameter vector, and the statement's SQL text.
    Recovery discards a trailing run of 'S' records with no 'C' marker —
    a transaction whose COMMIT was never acknowledged.

    Invariant (the fuzzer's oracle): after a crash at any I/O boundary,
    reopening yields the state produced by a prefix of the acknowledged
    statements, possibly extended by the single statement in flight at
    the crash. No acknowledged statement is ever lost, and no statement
    applies partially.

    Fault sites (see {!Fault}): [wal_append], [wal_fsync], [wal_torn]
    (leaves half a record and poisons the store), [wal_truncate],
    [checkpoint], [wal_rotate], [current_rename], [group_fsync] (the
    server's shared batch fsync), plus {!Persist}'s
    [persist_write]/[persist_rename]. *)

type t
(** An open store: the live log's fd, generation, and append offset. *)

type recovery = {
  rec_gen : int;  (** generation loaded *)
  rec_replayed : int;  (** log records applied *)
  rec_skipped : int;
      (** replayed statements that errored (they failed when first
          executed too) or were discarded as an uncommitted transaction *)
  rec_truncated_bytes : int;
      (** corrupt tail bytes removed — nonzero means the log was torn *)
}

(** [open_dir ?fsync ?readonly dir] — open (creating if missing) a data
    directory: load the current checkpoint, replay the log, truncate any
    corrupt tail, and return the store, the recovered database
    (durability hooks already installed) and a recovery summary.
    [~fsync:false] skips every fsync — throughput mode for benchmarks;
    crash safety then depends on the OS page cache. Refuses a non-empty
    directory that is not a sqlgraph data directory.

    [~readonly:true] is inspection mode: recovery runs purely in memory —
    the directory is never written (no [CURRENT] rewrite, no stale-file
    GC, no tail truncation), the returned database refuses DML
    ({!Db.set_readonly}), and every append path of the store raises.
    Safe to point at a directory another process is actively serving. *)
val open_dir :
  ?fsync:bool ->
  ?readonly:bool ->
  ?replica:bool ->
  string ->
  (t * Db.t * recovery, Error.t) result

(** [checkpoint t db] — write the full state as generation g+1 (an atomic
    {!Persist.save}), start a fresh log, then atomically move the
    [CURRENT] pointer and delete generation g. Refused inside an open
    transaction. On failure the session stays on generation g with its
    log intact — nothing is lost. *)
val checkpoint : t -> Db.t -> (unit, Error.t) result

(** [close t] — fsync (when enabled) and close the live log. *)
val close : t -> unit

(** [crash_for_testing t] — drop the fd without fsync or repair,
    simulating [kill -9]: written bytes survive exactly as a killed
    process would leave them. *)
val crash_for_testing : t -> unit

val dir : t -> string
val gen : t -> int

val readonly : t -> bool
(** The store was opened with [~readonly:true]. *)

(** {1 Group commit (lib/server)}

    The server multiplexes many sessions over one store.  In deferred
    mode the per-statement fsync is suppressed; instead a group-commit
    leader — holding the server's writer lock — calls {!flush_now},
    captures {!logical_end} as the batch's flush target, releases the
    lock, and calls {!fsync_now} once.  Every session whose appends lie
    at or before the target is then durable and can be acknowledged:
    one fsync per batch instead of one per commit. *)

val set_deferred_sync : t -> bool -> unit
(** Enable/disable deferred (group-commit) mode.  While enabled, the
    durability hooks append and flush but never fsync. *)

val logical_end : t -> int
(** The log's logical end: durable bytes plus the unflushed buffer.
    After {!flush_now} this equals the bytes handed to the OS. *)

val flush_now : t -> unit
(** Write the buffered tail to the fd (no fsync).  Call with the
    server's writer lock held so no statement is mid-append. *)

val commits_logged : t -> int
(** Commit units appended since the store was opened: autocommit
    records plus transaction commit markers, less those an aborted
    statement truncated.  Moves only under the server's writer lock, so
    a leader that reads it right after {!flush_now} knows exactly how
    many commits that flush carries. *)

val fsync_now : t -> unit
(** Fsync the log fd (fault site [group_fsync]); a no-op when the store
    was opened [~fsync:false].  Safe to call without the writer lock. *)

val wal_path : t -> string
(** Path of the live log file (tests tear its tail off). *)

val crc32 : string -> int
(** IEEE CRC32 of a string (checksum of every record's payload);
    [crc32 "123456789" = 0xCBF43926]. *)

(** {1 Replication (lib/server/replication.ml, DESIGN.md §15)}

    A hot standby mirrors the primary's data directory byte for byte:
    the primary re-reads durable log ranges, cuts them into
    frame-aligned chunks ({!chunk_frames}) and ships them raw; the
    replica decodes each chunk whole ({!decode_frames}), appends it
    verbatim to its own log (same offsets), and applies the records
    with the recovery rule ({!replay}).  The frame format is known only
    to this module.  Fault site: [promote_fence]. *)

type kind = Autocommit | Txn_stmt | Commit_marker
(** Record kinds: 'A' applies immediately, 'S' buffers until its 'C'
    commit marker (a trailing 'S' run with no marker is an
    unacknowledged transaction and must not be applied). *)

type record = kind * Storage.Value.t array * string
(** A decoded record: kind, parameter vector, SQL text. *)

exception Corrupt of string
(** A frame failed its length or checksum validation. *)

val header_size : int
(** Bytes of the ["SQLGWAL1"] magic header — the logical offset of the
    first record in every log file. *)

val encode_record :
  kind:kind -> sql:string -> params:Storage.Value.t array -> string
(** Render one record as its framed wire/log bytes
    ([u32 LE length | u32 LE crc32 | payload]). *)

val decode_frames : string -> record list
(** Decode a frame-aligned byte string whole, checking every frame's
    crc.  Raises {!Corrupt} unless every byte belongs to a valid frame
    — a torn last frame, a bad length word or a checksum mismatch. *)

val chunk_frames : string -> max_bytes:int -> (int * int * int) list
(** Cut a frame-aligned byte string into [(start, len, frames)] chunks
    of at most [max_bytes] each, never splitting a frame (a frame larger
    than [max_bytes] gets a chunk of its own).  Reads the length words
    only — no checksum work.  Raises {!Corrupt} when the string is not
    frame-aligned. *)

val read_range : t -> pos:int -> len:int -> string
(** Re-read [len] bytes of the live log starting at byte [pos], through
    a fresh read-only fd.  The range must be flushed ([pos + len] at or
    below the durable end) — shipping only ever reads behind the group
    commit's fsync target. *)

val append_frames : t -> count:int -> string -> unit
(** Append [count] complete, already-framed records verbatim (the
    replica's log-before-apply step).  Flushes and, when fsync is
    enabled, syncs — a crash between append and apply replays from the
    local log. *)

val replay : Db.t -> record list -> int * int * record list
(** Apply decoded records to [db] with the recovery rule: 'A' applies
    at once, 'S' buffers until its 'C' marker.  Returns [(replayed,
    failed, uncommitted)]: statements applied, statements that errored,
    and the trailing 'S' run with no marker, unapplied and in log order.
    Recovery discards that run; a standby keeps it and passes it back
    ahead of the next records it receives.  Runs under
    {!Db.without_logs}: a replayed statement writes no log record. *)

val open_replica :
  ?fsync:bool -> string -> (t * Db.t * recovery, Error.t) result
(** Open (creating if missing) a data directory as a hot standby:
    normal recovery and tail truncation, but the returned database
    refuses session DML ({!Db.set_readonly}) and no durability hooks are
    installed — {!append_frames} is the only write path until
    {!promote}. *)

val reset_generation : t -> gen:int -> unit
(** Full-resync fence: after the caller has written a complete shipped
    checkpoint for [gen] into the directory, start a fresh log for that
    generation, atomically repoint [CURRENT], and GC stale files. *)

val promote : t -> Db.t -> (unit, Error.t) result
(** Promote a replica store opened with {!open_replica}: fence the
    replicated generation behind a checkpoint of the applied state
    (discarding any shipped-but-uncommitted transaction tail), install
    durability hooks, and clear the database's read-only flag.  Fault
    site [promote_fence]. *)

val checkpoint_path : dir:string -> gen:int -> string
(** The checkpoint directory for generation [gen] under [dir]. *)

val write_file_atomic : string -> string -> unit
(** Write a file via tmp + fsync + rename (+ directory fsync) — the
    replica uses it to land shipped checkpoint files. *)
