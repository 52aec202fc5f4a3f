(* Group commit: batch many sessions' commits into one WAL fsync.

   The store runs in deferred-sync mode (Wal.set_deferred_sync), so the
   durability hooks append — under the scheduler's writer lock — but
   never fsync.  A session that needs its statement durable captures the
   log's logical end as its *target* and calls [wait_durable]:

   - if the target is already covered by a finished fsync, return;
   - else if a leader is mid-fsync, wait on the condition variable —
     the in-flight fsync (or the next one) will cover the target;
   - else become the leader: briefly take the writer lock to flush every
     session's buffered appends to the fd, record the flushed length as
     the batch's reach, release the lock, and fsync with *no* lock held
     (fault site "group_fsync") so concurrent statements keep appending
     while the disk syncs.  Then publish the reach, wake everyone, and
     re-check.

   The flush needs the writer lock so it can never land mid-statement:
   a statement's append + apply + abort-repair all happen under that
   lock, which is what keeps Wal.dur_abort's truncate-on-failure sound
   in deferred mode (truncation only ever removes bytes no leader has
   flushed yet... because a leader cannot flush while the statement
   holds the lock).

   The group-size histogram counts the commits each successful fsync
   covers, not the sessions waiting when the leader took over: a commit
   appended after that moment can still ride the leader's flush, then
   find its target synced and return without ever joining a round.
   [Wal.commits_logged] only moves under the writer lock, so the leader
   reads it next to the flush and the difference from the last synced
   count is exact.

   Failure: an fsync that raises (injected fault or real I/O error)
   fails the *round* — every session that was already waiting gets the
   exception (their commits are reported as errors, the safe direction:
   the bytes may still become durable later, and an un-acknowledged
   statement is allowed to survive recovery).  Sessions that arrive
   after the failure retry with a fresh fsync.  Rounds are numbered by
   [epoch]; a waiter raises only for failures from rounds that finished
   after it arrived. *)

type t = {
  store : Sqlgraph.Wal.t;
  writer : Mutex.t;
  mu : Mutex.t;
  cond : Condition.t;
  mutable synced_upto : int; (* log bytes covered by a finished fsync *)
  mutable synced_commits : int; (* Wal.commits_logged a finished fsync covers *)
  mutable leader_active : bool;
  mutable epoch : int; (* finished rounds *)
  mutable failed : (int * exn) option; (* epoch of the failed round *)
  observe_group : int -> unit; (* histogram callback (scheduler registry) *)
  mutable ship : (from:int -> upto:int -> unit) option;
      (* replication hook: after a successful fsync and *before* the
         waiting commits are acknowledged, the leader hands the newly
         durable byte range to the replication hub — so a replica's
         socket holds every acknowledged frame even if the primary is
         kill -9'd the instant after the ack (semi-synchronous
         shipping).  The hook must swallow per-replica send failures:
         a dead replica drops out of the set, it never fails a commit. *)
}

let create ~writer ~store ~observe_group =
  Sqlgraph.Wal.set_deferred_sync store true;
  {
    store;
    writer;
    mu = Mutex.create ();
    cond = Condition.create ();
    synced_upto = Sqlgraph.Wal.logical_end store;
    synced_commits = Sqlgraph.Wal.commits_logged store;
    leader_active = false;
    epoch = 0;
    failed = None;
    observe_group;
    ship = None;
  }

let set_ship t f = t.ship <- f

let wait_durable t target =
  Mutex.lock t.mu;
  let entry_epoch = t.epoch in
  let rec loop () =
    if t.synced_upto >= target then Mutex.unlock t.mu
    else
      match t.failed with
      | Some (e, exn) when e > entry_epoch ->
        Mutex.unlock t.mu;
        raise exn
      | _ ->
        if t.leader_active then begin
          Condition.wait t.cond t.mu;
          loop ()
        end
        else begin
          t.leader_active <- true;
          let shipped_from = t.synced_upto in
          Mutex.unlock t.mu;
          let result =
            match
              Mutex.lock t.writer;
              let r =
                try
                  Sqlgraph.Wal.flush_now t.store;
                  Ok
                    ( Sqlgraph.Wal.logical_end t.store,
                      Sqlgraph.Wal.commits_logged t.store )
                with exn -> Error exn
              in
              Mutex.unlock t.writer;
              r
            with
            | Ok flushed -> (
              try
                Sqlgraph.Wal.fsync_now t.store;
                Ok flushed
              with exn -> Error exn)
            | Error _ as e -> e
          in
          (* ship-before-ack: the durable range reaches the replicas'
             sockets before any waiter is woken (see [ship] above) *)
          (match (result, t.ship) with
          | Ok (upto, _), Some ship when upto > shipped_from -> (
            try ship ~from:shipped_from ~upto with _ -> ())
          | _ -> ());
          Mutex.lock t.mu;
          t.leader_active <- false;
          t.epoch <- t.epoch + 1;
          (match result with
          | Ok (upto, commits) ->
            if upto > t.synced_upto then t.synced_upto <- upto;
            (* a failed round leaves [synced_commits] behind, so the
               next success counts the commits it flushed *)
            let group = commits - t.synced_commits in
            if group > 0 then begin
              t.synced_commits <- commits;
              t.observe_group group
            end
          | Error exn -> t.failed <- Some (t.epoch, exn));
          Condition.broadcast t.cond;
          loop ()
        end
  in
  loop ()
