(** Group commit: one shared WAL fsync acknowledges a whole batch of
    concurrent sessions' commits (the ~100x durable-throughput lever —
    see BENCH_server.json).

    Creating the batcher switches the store to deferred-sync mode; from
    then on every acknowledgement must go through {!wait_durable}. *)

type t

val create :
  writer:Mutex.t ->
  store:Sqlgraph.Wal.t ->
  observe_group:(int -> unit) ->
  t
(** [writer] is the scheduler's writer lock (taken briefly by the batch
    leader to flush); [observe_group] receives, for each successful
    fsync, the number of commits it made durable (the group-size
    histogram) — every commit is counted in exactly one round, including
    one whose bytes rode another session's flush. *)

val wait_durable : t -> int -> unit
(** [wait_durable t target] — block until a finished fsync covers log
    offset [target] (capture it with {!Sqlgraph.Wal.logical_end} while
    still holding the writer lock).  Raises the leader's exception if
    the covering fsync round failed; the commit must then be reported
    as an error, not acknowledged. *)

val set_ship : t -> (from:int -> upto:int -> unit) option -> unit
(** Install the replication ship hook: after each successful batch
    fsync, and {e before} the batch's commits are acknowledged, the
    leader calls it with the newly durable log byte range — so every
    acknowledged frame reaches the replicas' sockets even if the
    primary dies the instant after the ack (semi-synchronous shipping).
    The hook must handle its own per-replica failures; an exception is
    swallowed and never fails the commit round. *)
