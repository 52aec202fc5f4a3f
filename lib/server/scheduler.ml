(* Shared state of the multi-session server.

   Concurrency model (DESIGN.md §12): one domain, one systhread per
   session.  The OCaml runtime lock serializes compute, but every
   blocking operation — socket reads, fsync, condition waits — releases
   it, so reader statements overlap writer I/O and each other's waits.

   - Writers serialize through [writer]: a session takes the lock for
     the whole apply of a DML/DDL statement (and from BEGIN through
     COMMIT/ROLLBACK), so the shared Db only ever sees one mutator and
     the WAL order equals the apply order — the serial order the
     fuzzer's oracle checks prefix-consistency against.

   - Readers never take the writer lock.  After each committed write the
     writer *publishes* a snapshot: for every table whose catalog
     version moved since the last publication, a Table.copy goes into
     [published] and [published_version] bumps.  The copy is O(columns):
     it shares the writer's append-only column storage, frozen at the
     current length, so later appends never show through it.  A reader
     session refreshes its private Db from that map (structurally
     sharing unchanged tables) and runs statements against it — path
     queries never block behind DML, and each session's observed
     snapshot version is monotone by construction.

   - Admission control: [admit] refuses sessions beyond the cap;
     [writer_acquire] load-sheds writes when the queue behind the writer
     lock exceeds the high-water mark (reject-with-retry-hint rather
     than queueing unboundedly).

   The metrics registry is shared by concurrent session threads, so
   every update goes through [metric_*] under its own mutex — Registry
   itself is documented single-writer. *)

module Reg = Telemetry.Registry

(* Idle-deadline time source: [Wall] keeps the production single-select
   behaviour; [Manual] lets tests drive the timeout on a virtual clock
   (the session reader then polls in short ticks). *)
type clock = Wall | Manual of (unit -> float)

type config = {
  max_sessions : int;
      (* clamped to {!max_selectable_sessions} at [create]: session
         reads multiplex with Unix.select, which fails (or corrupts its
         fd_set) for descriptors >= FD_SETSIZE (1024) *)
  idle_timeout_ms : int; (* per-read timeout; a session idling longer is closed *)
  max_line_bytes : int; (* request frame cap *)
  write_high_water : int; (* load-shed when this many writers are queued *)
  busy_retry_ms : int; (* retry hint sent with busy rejections *)
  budget : Sqlgraph.Governor.budget; (* per-statement resource budget *)
  clock : clock; (* idle-deadline time source; Wall outside tests *)
}

let default_config =
  {
    max_sessions = 32;
    idle_timeout_ms = 30_000;
    max_line_bytes = 1 lsl 20;
    write_high_water = 16;
    busy_retry_ms = 50;
    budget = Sqlgraph.Governor.no_limits;
    clock = Wall;
  }

type t = {
  config : config;
  db : Sqlgraph.Db.t; (* the writer database (durable when [store] is set) *)
  store : Sqlgraph.Wal.t option;
  gc : Group_commit.t option;
  writer : Mutex.t;
  mu : Mutex.t; (* guards the mutable fields below *)
  mutable writers_waiting : int;
  mutable published_version : int;
  published : (string, Storage.Table.t * int) Hashtbl.t;
      (* name -> (immutable copy, catalog version it captures) *)
  mutable sessions : int;
  mutable next_sid : int;
  mutable stopping : bool;
  stop_r : Unix.file_descr; (* self-pipe read end: selectable stop signal *)
  mutable stop_w : Unix.file_descr option;
  metrics : Reg.t;
  metrics_mu : Mutex.t;
  session_infos : (int, session_info) Hashtbl.t;
      (* sid -> live stats; guarded by [mu]; backs sqlgraph_stat_sessions *)
  mutable repl_attach : (Unix.file_descr -> gen:int -> offset:int -> unit) option;
      (* installed by the replication hub (primary role): a session that
         reads a REPLICA handshake hands its fd over and exits without
         closing it *)
  mutable promote_hook : (unit -> (int, string) result) option;
      (* installed on a standby: the PROMOTE verb fences the old
         generation and returns the new one *)
}

(* One connected session's introspection row (sqlgraph_stat_sessions).
   Mutable fields are updated by the owning session thread via
   {!session_note} under [mu]; readers materialize the table under the
   same lock. *)
and session_info = {
  si_sid : int;
  mutable si_statements : int;
  mutable si_last_qid : string option;
  mutable si_snapshot : int;
  mutable si_in_txn : bool;
  si_connected : float; (* Unix time of admission *)
}

let metric_inc t ?help name n =
  Mutex.lock t.metrics_mu;
  Reg.inc t.metrics ?help name n;
  Mutex.unlock t.metrics_mu

let metric_gauge t ?help name v =
  Mutex.lock t.metrics_mu;
  Reg.set_gauge t.metrics ?help name v;
  Mutex.unlock t.metrics_mu

let metric_observe t ?help name v =
  Mutex.lock t.metrics_mu;
  Reg.observe t.metrics ?help name v;
  Mutex.unlock t.metrics_mu

let metrics t = t.metrics

(* Server-wide sqlgraph_metrics rows: the server registry plus any
   [extra] registries (the shared Db's, or a session's private one) —
   best-effort live read under the metrics mutex. *)
let metrics_table ?(extra = []) t =
  Mutex.lock t.metrics_mu;
  let tbl = Sqlgraph.Metrics.registry_table (extra @ [ t.metrics ]) in
  Mutex.unlock t.metrics_mu;
  tbl

(* --- per-session introspection ------------------------------------- *)

(* Record the outcome of one served statement against the session's
   sqlgraph_stat_sessions row. *)
let session_note t ~sid ~qid ~snapshot ~in_txn =
  Mutex.lock t.mu;
  (match Hashtbl.find_opt t.session_infos sid with
  | Some si ->
    si.si_statements <- si.si_statements + 1;
    si.si_last_qid <- qid;
    si.si_snapshot <- snapshot;
    si.si_in_txn <- in_txn
  | None -> ());
  Mutex.unlock t.mu

let sessions_table t =
  let module V = Storage.Value in
  let now = Unix.gettimeofday () in
  Mutex.lock t.mu;
  let infos = Hashtbl.fold (fun _ si acc -> si :: acc) t.session_infos [] in
  let rows =
    infos
    |> List.sort (fun a b -> compare a.si_sid b.si_sid)
    |> List.map (fun si ->
           [
             V.Int si.si_sid;
             V.Int si.si_statements;
             (match si.si_last_qid with Some q -> V.Str q | None -> V.Null);
             V.Int si.si_snapshot;
             V.Bool si.si_in_txn;
             V.Float (now -. si.si_connected);
           ])
  in
  Mutex.unlock t.mu;
  Storage.Table.of_rows Sqlgraph.Db.stat_sessions_schema rows

(* Publish the current catalog as an immutable snapshot: copy only the
   tables whose version moved.  Runs with the writer lock held (the
   only mutator), takes [mu] just to swap entries so readers mid-refresh
   never see a half-published vector. *)
let publish_locked t =
  let cat = Sqlgraph.Db.catalog t.db in
  let names = Storage.Catalog.names cat in
  let changed = ref [] in
  List.iter
    (fun name ->
      match (Storage.Catalog.version cat name, Storage.Catalog.find cat name) with
      | Some v, Some tbl -> (
        match Hashtbl.find_opt t.published name with
        | Some (_, pv) when pv = v -> ()
        | _ -> changed := (name, Storage.Table.copy tbl, v) :: !changed)
      | _ -> ())
    names;
  let dropped =
    Hashtbl.fold
      (fun name _ acc -> if List.mem name names then acc else name :: acc)
      t.published []
  in
  if !changed <> [] || dropped <> [] then begin
    Mutex.lock t.mu;
    List.iter (fun (name, tbl, v) -> Hashtbl.replace t.published name (tbl, v)) !changed;
    List.iter (Hashtbl.remove t.published) dropped;
    t.published_version <- t.published_version + 1;
    Mutex.unlock t.mu
  end

(* Raise the published snapshot version to at least [v] without touching
   the table map.  The replica's apply loop calls this with the snapshot
   version that rode the stream ([snap=] on REPL WAL / REPL PING), so a
   client that failed over observes a version at or above everything it
   saw on the old primary — snapshot monotonicity across promotion. *)
let set_publish_floor t v =
  Mutex.lock t.mu;
  if v > t.published_version then t.published_version <- v;
  Mutex.unlock t.mu

(* Session I/O goes through Unix.select, whose fd_set breaks for
   descriptors >= FD_SETSIZE (1024).  Keep the session cap comfortably
   below that so session fds — which sit above the listeners, the stop
   pipe, the WAL fd and whatever the embedder holds open — stay
   selectable even at full occupancy. *)
let max_selectable_sessions = 900

let create ?(config = default_config) ~db ~store () =
  let config =
    if config.max_sessions > max_selectable_sessions then
      { config with max_sessions = max_selectable_sessions }
    else config
  in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  let metrics = Reg.create () in
  let metrics_mu = Mutex.create () in
  let writer = Mutex.create () in
  let gc =
    Option.map
      (fun s ->
        Group_commit.create ~writer ~store:s ~observe_group:(fun n ->
            Mutex.lock metrics_mu;
            Reg.observe metrics "sqlgraph_server_group_commit_size"
              (float_of_int n)
              ~help:"Commits acknowledged per shared fsync";
            Mutex.unlock metrics_mu))
      store
  in
  let t =
    {
      config;
      db;
      store;
      gc;
      writer;
      mu = Mutex.create ();
      writers_waiting = 0;
      published_version = 0;
      published = Hashtbl.create 16;
      sessions = 0;
      next_sid = 0;
      stopping = false;
      stop_r;
      stop_w = Some stop_w;
      metrics;
      metrics_mu;
      session_infos = Hashtbl.create 16;
      repl_attach = None;
      promote_hook = None;
    }
  in
  (* Live introspection providers on the shared Db (DESIGN.md §14):
     override the empty defaults so a SELECT served by any session sees
     the server's sessions and the combined metric registries. *)
  Sqlgraph.Db.register_virtual_table db ~name:"sqlgraph_stat_sessions"
    (fun () -> sessions_table t);
  Sqlgraph.Db.register_virtual_table db ~name:"sqlgraph_metrics" (fun () ->
      metrics_table ~extra:[ Sqlgraph.Db.registry db ] t);
  (* seed the snapshot with whatever recovery (or the embedder) loaded *)
  Mutex.lock writer;
  publish_locked t;
  Mutex.unlock writer;
  t

let config t = t.config
let db t = t.db
let store t = t.store
let stop_fd t = t.stop_r

(* --- replication wiring (lib/server/replication.ml) ---------------- *)

(* Handler installation races only with session threads *reading* the
   hooks, so both go under [mu]. *)
let set_repl_attach t f =
  Mutex.lock t.mu;
  t.repl_attach <- f;
  Mutex.unlock t.mu

let repl_attach t =
  Mutex.lock t.mu;
  let f = t.repl_attach in
  Mutex.unlock t.mu;
  f

let set_promote_hook t f =
  Mutex.lock t.mu;
  t.promote_hook <- f;
  Mutex.unlock t.mu

let promote_hook t =
  Mutex.lock t.mu;
  let f = t.promote_hook in
  Mutex.unlock t.mu;
  f

(* Install the hub's ship hook on the group-commit batcher (no-op for an
   in-memory server — nothing durable means nothing to replicate). *)
let set_ship t f =
  match t.gc with None -> () | Some gc -> Group_commit.set_ship gc f

(* The raw writer mutex, for the replication paths that cannot go
   through {!writer_acquire}'s load shedding: the hub's full-resync
   critical section and the standby's apply loop both need the lock
   unconditionally. *)
let writer_lock t = t.writer

let stopping t =
  Mutex.lock t.mu;
  let s = t.stopping in
  Mutex.unlock t.mu;
  s

(* Begin graceful shutdown: mark stopping and close the self-pipe's
   write end — every select on [stop_fd] wakes (EOF) now and forever. *)
let begin_stop t =
  Mutex.lock t.mu;
  t.stopping <- true;
  (match t.stop_w with
  | Some fd ->
    t.stop_w <- None;
    (try Unix.close fd with _ -> ())
  | None -> ());
  Mutex.unlock t.mu

(* --- admission ----------------------------------------------------- *)

let admit t =
  Mutex.lock t.mu;
  let r =
    if t.stopping then `Stopping
    else if t.sessions >= t.config.max_sessions then `Full
    else begin
      t.sessions <- t.sessions + 1;
      t.next_sid <- t.next_sid + 1;
      Hashtbl.replace t.session_infos t.next_sid
        {
          si_sid = t.next_sid;
          si_statements = 0;
          si_last_qid = None;
          si_snapshot = 0;
          si_in_txn = false;
          si_connected = Unix.gettimeofday ();
        };
      `Ok t.next_sid
    end
  in
  let active = t.sessions in
  Mutex.unlock t.mu;
  (match r with
  | `Ok _ ->
    metric_inc t "sqlgraph_server_sessions_total" 1 ~help:"Sessions accepted";
    metric_gauge t "sqlgraph_server_sessions_active" (float_of_int active)
      ~help:"Sessions currently connected"
  | `Full ->
    metric_inc t "sqlgraph_server_rejected_total" 1
      ~help:"Connections rejected at the session cap"
  | `Stopping -> ());
  r

let leave t ~sid =
  Mutex.lock t.mu;
  t.sessions <- t.sessions - 1;
  Hashtbl.remove t.session_infos sid;
  let active = t.sessions in
  Mutex.unlock t.mu;
  metric_gauge t "sqlgraph_server_sessions_active" (float_of_int active)

(* --- write path ---------------------------------------------------- *)

(* Load-shed check + blocking acquire.  The queue-depth gauge tracks how
   many sessions sit behind the writer lock; past the high-water mark a
   new writer is refused with a retry hint instead of queueing. *)
let writer_acquire t =
  Mutex.lock t.mu;
  if t.writers_waiting >= t.config.write_high_water then begin
    Mutex.unlock t.mu;
    metric_inc t "sqlgraph_server_load_shed_total" 1
      ~help:"Write statements refused at the write-queue high-water mark";
    `Busy t.config.busy_retry_ms
  end
  else begin
    t.writers_waiting <- t.writers_waiting + 1;
    let depth = t.writers_waiting in
    Mutex.unlock t.mu;
    metric_gauge t "sqlgraph_server_write_queue_depth" (float_of_int depth)
      ~help:"Sessions queued on the writer lock";
    Mutex.lock t.writer;
    Mutex.lock t.mu;
    t.writers_waiting <- t.writers_waiting - 1;
    let depth = t.writers_waiting in
    Mutex.unlock t.mu;
    (* re-publish after leaving the queue, so the gauge falls back to 0
       when the queue empties instead of sticking at its high-water mark *)
    metric_gauge t "sqlgraph_server_write_queue_depth" (float_of_int depth)
      ~help:"Sessions queued on the writer lock";
    `Ok
  end

let writer_release t = Mutex.unlock t.writer

let publish t = publish_locked t

(* Acknowledge durability: in group-commit mode wait until the shared
   fsync covers [target]; without a store (in-memory server) this is
   immediate. *)
let wait_durable t target =
  match t.gc with None -> () | Some gc -> Group_commit.wait_durable gc target

let log_target t =
  match t.store with None -> 0 | Some s -> Sqlgraph.Wal.logical_end s

(* --- read path ----------------------------------------------------- *)

let snapshot_version t =
  Mutex.lock t.mu;
  let v = t.published_version in
  Mutex.unlock t.mu;
  v

(* Bring a session's private Db up to the latest published snapshot:
   load only the entries whose version differs from what the session
   already holds ([seen]), drop vanished tables, and return the snapshot
   version.  A published table never changes (its columns are frozen at
   the length they had when published), so loading is structural
   sharing, not copying. *)
let refresh_snapshot t ~session_db ~seen ~last_version =
  Mutex.lock t.mu;
  let v = t.published_version in
  if v <> last_version then begin
    Hashtbl.iter
      (fun name (tbl, pv) ->
        match Hashtbl.find_opt seen name with
        | Some sv when sv = pv -> ()
        | _ ->
          (* mirror the publisher's version so the shared graph-index
             cache keys stay coherent across session catalogs *)
          Sqlgraph.Db.load_table ~version:pv session_db ~name tbl;
          Hashtbl.replace seen name pv)
      t.published;
    let stale =
      Hashtbl.fold
        (fun name _ acc ->
          if Hashtbl.mem t.published name then acc else name :: acc)
        seen []
    in
    List.iter
      (fun name ->
        Hashtbl.remove seen name;
        ignore (Storage.Catalog.drop (Sqlgraph.Db.catalog session_db) name))
      stale
  end;
  Mutex.unlock t.mu;
  v
