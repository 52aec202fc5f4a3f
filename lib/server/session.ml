(* One connected client: a systhread running a read-execute-respond
   loop over a newline-framed socket.

   Statement routing (the snapshot-isolation half of DESIGN.md §12):

   - SELECT / EXPLAIN outside a transaction run on the session's
     *private* Db, refreshed from the scheduler's published snapshot
     just before execution — they never take the writer lock, so reads
     overlap writes and each other freely.  The snapshot version they
     ran against is reported on the OK line ([snapshot=<v>]) and is
     monotone per session by construction (the fuzzer asserts it).

   - DML/DDL and BEGIN acquire the scheduler's writer lock (or are
     load-shed with [ERR busy]).  Autocommit writes hold it for one
     statement: apply on the shared Db, publish the new snapshot,
     capture the WAL's logical end, release, then block in group commit
     until a shared fsync covers the capture — only then is OK sent.
     BEGIN keeps the lock until COMMIT/ROLLBACK, so a transaction's
     reads run on the shared Db (read-your-writes; nobody else can
     advance it while we hold the lock) and its buffered writes become
     durable — and published — at COMMIT, atomically.

   - SET applies to the private Db only: parallelism and limits are
     per-session knobs.

   Failure shapes: a failed statement keeps the session alive (ERR
   response); a failed group fsync reports ERR on a statement that did
   apply in memory — the safe direction, since an un-acknowledged
   commit is allowed (but not required) to survive recovery.  Framing
   violations get [ERR protocol] and the reader resynchronizes at the
   next newline.  Idle timeout, EOF, injected "session_read" faults and
   server shutdown all end the session with a best-effort BYE. *)

module Db = Sqlgraph.Db
module Governor = Sqlgraph.Governor
module Fault = Sqlgraph.Fault

type t = {
  sched : Scheduler.t;
  sid : int;
  fd : Unix.file_descr;
  session_db : Db.t; (* private snapshot replica (reads) *)
  seen : (string, int) Hashtbl.t; (* table versions loaded into session_db *)
  mutable last_version : int; (* latest snapshot version observed (reported) *)
  mutable loaded_version : int; (* snapshot version session_db actually holds *)
  mutable holding_writer : bool; (* BEGIN..COMMIT keeps the writer lock *)
  mutable stmt_seq : int;
      (* SQL requests of this session, across both the private and the
         shared Db — the :<seq> of its query ids, monotone per session
         by construction (neither Db's own counter is) *)
  mutable last_qid : string option; (* latest query id (wire + stat_sessions) *)
  gov_mu : Mutex.t;
  mutable current_gov : Governor.t option; (* in-flight statement's governor *)
  mutable thread : Thread.t option;
}

(* [cancel] is called from the server's shutdown thread: cooperatively
   abort whatever statement is running so drain cannot block on an
   unbounded traversal. *)
let cancel t =
  Mutex.lock t.gov_mu;
  (match t.current_gov with Some g -> Governor.cancel g | None -> ());
  Mutex.unlock t.gov_mu

(* --- socket I/O ---------------------------------------------------- *)

exception Peer_gone

let send t lines =
  try Protocol.write_lines t.fd lines
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
    raise Peer_gone

(* Buffered newline framing over select([fd; stop_fd]).  The reader owns
   the idle timeout, the frame-size cap and the resync-after-oversize
   behaviour; faults at site "session_read" model a connection dying
   mid-read. *)
type read_event = Line of string | Eof | Idle | Stop | Oversized | Died of exn

let rec take_line lines discarding =
  match Protocol.Lines.pop lines with
  | Some line ->
    if !discarding then begin
      (* the tail of an oversized request: swallow it and resume *)
      discarding := false;
      take_line lines discarding
    end
    else Some (if line <> "" && line.[String.length line - 1] = '\r' then
                 String.sub line 0 (String.length line - 1)
               else line)
  | None ->
    if !discarding then Protocol.Lines.clear lines;
    None

let read_event t lines discarding =
  let cfg = Scheduler.config t.sched in
  let stop = Scheduler.stop_fd t.sched in
  let rec go () =
    match take_line lines discarding with
    | Some line ->
      (* a complete line can still breach the frame cap *)
      if String.length line > cfg.max_line_bytes then Oversized else Line line
    | None ->
      if Protocol.Lines.pending lines > cfg.max_line_bytes then begin
        Protocol.Lines.clear lines;
        discarding := true;
        Oversized
      end
      else begin
        (* Idle accounting goes through the scheduler's clock.  [Wall]
           is the production path: one select covers the whole budget.
           [Manual] (tests) keeps the deadline on the virtual clock and
           degrades select to short real ticks, so a test fires the
           timeout by advancing virtual time — no real-time sleeps. *)
        let timeout = float_of_int cfg.idle_timeout_ms /. 1000. in
        let deadline, tick =
          match cfg.clock with
          | Scheduler.Wall -> (0., timeout)
          | Scheduler.Manual now -> (now () +. timeout, 0.002)
        in
        let rec wait () =
          match Unix.select [ t.fd; stop ] [] [] tick with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
          | [], _, _ -> (
            match cfg.clock with
            | Scheduler.Wall -> Idle
            | Scheduler.Manual now ->
              if now () >= deadline then Idle else wait ())
          | ready, _, _ when List.mem stop ready -> Stop
          | _ -> (
            match
              Fault.hit ~site:"session_read";
              Protocol.Lines.read lines t.fd
            with
            | 0 -> Eof
            | _ -> go ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
            | exception exn -> Died exn)
        in
        wait ()
      end
  in
  go ()

(* --- statement execution ------------------------------------------- *)

(* Run a statement under the session's sequence number ([execute]
   allocated it); Db.exec_parsed composes the query id from it, which
   becomes [last_qid].  Safe to read the id off the shared Db: we hold
   the writer lock whenever a statement runs there. *)
let exec_with_gov t db ~sql stmt =
  let gov = Governor.start (Scheduler.config t.sched).budget in
  Mutex.lock t.gov_mu;
  t.current_gov <- Some gov;
  Mutex.unlock t.gov_mu;
  let r =
    Db.exec_parsed db ~seq:t.stmt_seq ~params:[||]
      ~optimize:Relalg.Rewriter.default_options ~gov ~sql stmt
  in
  Mutex.lock t.gov_mu;
  t.current_gov <- None;
  Mutex.unlock t.gov_mu;
  t.last_qid <- Db.last_query_id db;
  r

let render t r =
  match r with
  | Ok o -> Protocol.ok_outcome ?qid:t.last_qid ~snapshot:t.last_version o
  | Error e -> [ Protocol.err e ]

(* Run one statement that holds (or already held) the writer lock, then
   publish, capture the durability target and release.  The returned
   target is the WAL position the acknowledgement must wait for — the
   caller batches those waits across pipelined requests, so it is NOT
   awaited here. *)
let exec_write_prepare t ~release ~sql stmt =
  let r = exec_with_gov t (Scheduler.db t.sched) ~sql stmt in
  (* publish even after a failed statement: the shared Db's state —
     whatever it is — is what the next snapshot must show *)
  Scheduler.publish t.sched;
  let target = Scheduler.log_target t.sched in
  t.last_version <- Scheduler.snapshot_version t.sched;
  if release then Scheduler.writer_release t.sched;
  (render t r, if Result.is_ok r then Some target else None)

(* [last_version] can run ahead of [loaded_version]: a write observes
   the new snapshot immediately (it made it), but the private replica
   only catches up here, on the next read. *)
let refresh t =
  let v =
    Scheduler.refresh_snapshot t.sched ~session_db:t.session_db ~seen:t.seen
      ~last_version:t.loaded_version
  in
  t.loaded_version <- v;
  if v > t.last_version then t.last_version <- v

(* A batch context: consecutive autocommit writes in one burst share
   the writer lock, a single publish and one durability wait.  [wlock]
   is true while the batch holds the writer lock for such a run of
   writes; any statement that needs the published snapshot — or the
   lock — flushes first. *)
type batch = {
  mutable wlock : bool;
  mutable vrefs : int ref list; (* deferred writes awaiting their version *)
  mutable dur_target : int; (* highest lock-held WAL capture of this batch *)
}

(* End a run of batched autocommit writes: publish once, stamp each
   deferred write with the snapshot version that publish produced,
   capture the durability target, drop the lock.  The capture must
   happen *before* the release: once the lock is free another session's
   failing statement can append WAL bytes and truncate them again
   (dur_abort), so an unlocked read of the log end may name a position
   the log never reaches again — and a wait on it would never return.
   A lock-held capture can only cover our own (and earlier) appends,
   which no later abort is allowed to truncate. *)
let batch_flush t b =
  if b.wlock then begin
    b.wlock <- false;
    Scheduler.publish t.sched;
    t.last_version <- Scheduler.snapshot_version t.sched;
    List.iter (fun r -> r := t.last_version) b.vrefs;
    b.vrefs <- [];
    b.dur_target <- max b.dur_target (Scheduler.log_target t.sched);
    Scheduler.writer_release t.sched
  end

(* One request's contribution to the batch response.  [Deferred]
   carries an un-rendered write outcome: its snapshot version (the ref,
   filled in by {!batch_flush}) is only known once its run of writes
   publishes, and its OK must wait for the shared durability target. *)
type item =
  | Immediate of string list
  | Gated of string list * int
      (* rendered, but ack'd only after an fsync covers the target *)
  | Deferred of Db.exec_outcome * int ref * string option
      (* outcome, snapshot-version ref, query id: rendered late *)

(* Execute one request inside a batch.  The request is parsed here, once:
   the dispatch below and the Db both work on this AST.  A parse error
   is recorded on the private Db (whose stat store and logs are the
   shared ones), the same way Db.exec records it. *)
let execute t b sql =
  t.stmt_seq <- t.stmt_seq + 1;
  match Db.parse t.session_db ~seq:t.stmt_seq sql with
  | Error e ->
    batch_flush t b;
    Immediate [ Protocol.err e ]
  | Ok stmt -> (
    match stmt with
    | Sql.Ast.Set_option _ ->
      (* session-local knobs (parallelism, limits) live on the private Db *)
      batch_flush t b;
      Immediate (render t (exec_with_gov t t.session_db ~sql stmt))
    | Sql.Ast.Select _ | Sql.Ast.Explain _ ->
      if t.holding_writer then begin
        (* in-transaction read: read-your-writes on the shared Db (safe —
           we hold the writer lock, nothing else can touch it) *)
        Immediate (render t (exec_with_gov t (Scheduler.db t.sched) ~sql stmt))
      end
      else begin
        (* publish any batched writes first: read-your-writes *)
        batch_flush t b;
        refresh t;
        Immediate (render t (exec_with_gov t t.session_db ~sql stmt))
      end
    | Sql.Ast.Begin_txn -> (
      if t.holding_writer then begin
        (* nested BEGIN: let the shared Db produce its usual error *)
        Immediate (render t (exec_with_gov t (Scheduler.db t.sched) ~sql stmt))
      end
      else begin
        batch_flush t b;
        match Scheduler.writer_acquire t.sched with
        | `Busy retry_ms ->
          Immediate [ Protocol.err_busy ~retry_ms "write queue full" ]
        | `Ok -> (
          let r = exec_with_gov t (Scheduler.db t.sched) ~sql stmt in
          if Result.is_ok r then t.holding_writer <- true
          else Scheduler.writer_release t.sched;
          Immediate (render t r))
      end)
    | Sql.Ast.Commit_txn | Sql.Ast.Rollback_txn ->
      if not t.holding_writer then begin
        (* no open transaction: the private Db raises the usual error *)
        batch_flush t b;
        Immediate (render t (exec_with_gov t t.session_db ~sql stmt))
      end
      else begin
        t.holding_writer <- false;
        match (exec_write_prepare t ~release:true ~sql stmt, stmt) with
        (* ROLLBACK appends nothing (the WAL buffer is dropped), so its
           OK needs no fsync — gating it would delay the ack behind
           other sessions' unrelated bytes *)
        | (resp, _), Sql.Ast.Rollback_txn -> Immediate resp
        | (resp, Some target), _ -> Gated (resp, target)
        | (resp, None), _ -> Immediate resp
      end
    | _ when Db.mutates_catalog stmt ->
      if t.holding_writer then begin
        (* inside BEGIN: apply + buffer; durability (and publication)
           happen at COMMIT, atomically with the rest of the txn *)
        Immediate (render t (exec_with_gov t (Scheduler.db t.sched) ~sql stmt))
      end
      else if b.wlock then (
        (* already mid-run: keep the lock, defer the publish *)
        match exec_with_gov t (Scheduler.db t.sched) ~sql stmt with
        | Ok o ->
          let v = ref t.last_version in
          b.vrefs <- v :: b.vrefs;
          Deferred (o, v, t.last_qid)
        | Error _ as r ->
          (* errors carry no snapshot: render now, but keep batching *)
          Immediate (render t r))
      else (
        match Scheduler.writer_acquire t.sched with
        | `Busy retry_ms ->
          Immediate [ Protocol.err_busy ~retry_ms "write queue full" ]
        | `Ok -> (
          b.wlock <- true;
          match exec_with_gov t (Scheduler.db t.sched) ~sql stmt with
          | Ok o ->
            let v = ref t.last_version in
            b.vrefs <- v :: b.vrefs;
            Deferred (o, v, t.last_qid)
          | Error _ as r -> Immediate (render t r)))
    | _ ->
      batch_flush t b;
      Immediate (render t (exec_with_gov t t.session_db ~sql stmt)))

(* Execute every request of [batch] in order, then acknowledge them all
   at once: the durability waits collapse into one group-commit wait on
   the highest WAL target, and the responses go out in a single socket
   write.  A pipelining client thus pays one fsync-wait and one write
   per burst; a synchronous client (one request in flight) sees exactly
   per-statement behaviour.  If the shared wait fails, every write in
   the batch is reported as an error — the safe direction, since an
   unacknowledged commit may (but need not) survive recovery. *)
let run_batch t batch =
  let cfg = Scheduler.config t.sched in
  let quit = ref false in
  let b = { wlock = false; vrefs = []; dur_target = 0 } in
  let items =
    Fun.protect
      ~finally:(fun () -> batch_flush t b) (* never leak the writer lock *)
      (fun () ->
        List.filter_map
          (fun line ->
            if !quit then None (* requests after QUIT are dead *)
            else if String.length line > cfg.max_line_bytes then
              Some
                (Immediate
                   [
                     Protocol.err_protocol
                       (Printf.sprintf "request exceeds %d bytes"
                          cfg.max_line_bytes);
                   ])
            else
              match Protocol.request line with
              | Protocol.Empty ->
                Some (Immediate [ Protocol.err_protocol "empty request" ])
              | Protocol.Quit ->
                quit := true;
                None
              | Protocol.Promote ->
                (* standby promotion (DESIGN.md §15): fence the old
                   generation and start accepting writes.  Only
                   meaningful on a server whose Replication.Replica
                   installed the hook. *)
                Some
                  (Immediate
                     (match Scheduler.promote_hook t.sched with
                     | None ->
                       [ Protocol.err_protocol "not a replica: nothing to promote" ]
                     | Some f -> (
                       match f () with
                       | Ok gen ->
                         t.last_version <- Scheduler.snapshot_version t.sched;
                         [ Protocol.ok_promote ~gen ~snapshot:t.last_version ]
                       | Error msg -> [ Protocol.err_protocol msg ])))
              | Protocol.Sql sql ->
                let t0 = Unix.gettimeofday () in
                let item = execute t b sql in
                Scheduler.metric_observe t.sched
                  "sqlgraph_server_statement_seconds"
                  (Unix.gettimeofday () -. t0)
                  ~help:"Served statement latency";
                Scheduler.session_note t.sched ~sid:t.sid ~qid:t.last_qid
                  ~snapshot:t.last_version ~in_txn:t.holding_writer;
                Some item)
          batch)
  in
  let acked =
    List.exists (function Gated _ | Deferred _ -> true | _ -> false) items
  in
  let durable =
    if not acked then Ok ()
    else
      (* one wait covers the whole batch: every target was captured
         under the writer lock (batch_flush for Deferred runs,
         exec_write_prepare for Gated commits), so each names a log
         position a later abort's truncation cannot remove — waiting on
         their max terminates.  Re-reading the log end here, unlocked,
         could observe another session's soon-to-be-truncated bytes and
         wait for a position the log never reaches again. *)
      let target =
        List.fold_left
          (fun acc -> function Gated (_, tgt) -> max acc tgt | _ -> acc)
          b.dur_target items
      in
      Db.protect (fun () -> Scheduler.wait_durable t.sched target)
  in
  let out =
    List.concat_map
      (fun item ->
        match (item, durable) with
        | Immediate resp, _ -> resp
        | (Gated _ | Deferred _), Error e -> [ Protocol.err e ]
        | Gated (resp, _), Ok () -> resp
        | Deferred (o, v, qid), Ok () ->
          Protocol.ok_outcome ?qid ~snapshot:!v o)
      items
  in
  if out <> [] then send t out;
  if !quit then `Quit else `Continue

(* --- session lifecycle --------------------------------------------- *)

let cleanup t =
  if t.holding_writer then begin
    (* connection died mid-transaction: roll back so the writer Db (and
       the WAL buffer, via dur_rollback) drop the uncommitted work *)
    t.holding_writer <- false;
    (try ignore (Db.exec (Scheduler.db t.sched) "ROLLBACK") with _ -> ());
    Scheduler.publish t.sched;
    Scheduler.writer_release t.sched
  end;
  (try Unix.close t.fd with _ -> ());
  Telemetry.Trace.unregister_thread_track ();
  Scheduler.leave t.sched ~sid:t.sid

let bye_close t reason =
  (try send t [ Protocol.bye reason ] with Peer_gone -> ());
  cleanup t

let run t =
  Telemetry.Trace.register_thread_track t.sid;
  let cfg = Scheduler.config t.sched in
  let lines = Protocol.Lines.create () in
  let discarding = ref false in
  (try
     refresh t;
     send t [ Protocol.hello ~sid:t.sid ~snapshot:t.last_version ];
     let rec loop () =
       match read_event t lines discarding with
       | Stop -> bye_close t "server shutting down"
       | Eof -> cleanup t
       | Idle ->
         Scheduler.metric_inc t.sched "sqlgraph_server_idle_timeouts_total" 1
           ~help:"Sessions closed by the idle timeout";
         (try
            send t
              [
                Protocol.err
                  (Sqlgraph.Error.Resource_error
                     {
                       kind = Sqlgraph.Error.Timeout;
                       spent = float_of_int cfg.idle_timeout_ms;
                       limit = float_of_int cfg.idle_timeout_ms;
                       site = "session_idle";
                     });
              ]
          with Peer_gone -> ());
         bye_close t "idle timeout"
       | Died _ -> bye_close t "read failed"
       | Oversized ->
         send t
           [
             Protocol.err_protocol
               (Printf.sprintf "request exceeds %d bytes" cfg.max_line_bytes);
           ];
         loop ()
       | Line first -> (
         match Protocol.decode_repl first with
         | Some (Protocol.Replica { gen; offset }) -> (
           (* A standby announcing itself (DESIGN.md §15): hand the socket
              to the replication hub and leave the session slot — the fd
              now belongs to the hub, so skip the usual close. *)
           match Scheduler.repl_attach t.sched with
           | None ->
             send t [ Protocol.err_protocol "replication not enabled" ];
             loop ()
           | Some attach ->
             Telemetry.Trace.unregister_thread_track ();
             Scheduler.leave t.sched ~sid:t.sid;
             attach t.fd ~gen ~offset)
         | _ ->
           (* drain every complete request already buffered: they form
              one batch with a single shared durability wait and one
              response write (run_batch) *)
           let rest = ref [] in
           let rec drain () =
             match take_line lines discarding with
             | Some l ->
               rest := l :: !rest;
               drain ()
             | None -> ()
           in
           drain ();
           (match run_batch t (first :: List.rev !rest) with
           | `Quit -> bye_close t "client quit"
           | `Continue -> loop ()))
     in
     loop ()
   with
  | Peer_gone -> cleanup t
  | exn ->
    (* defensive: no exception may leak out of a session thread *)
    (try send t [ Protocol.bye ("internal error: " ^ Printexc.to_string exn) ]
     with _ -> ());
    cleanup t)

let spawn sched ~sid fd =
  (* The private Db shares the server's graph-index cache: a graph built
     by any session — or warmed by a standby's apply loop — is a cache
     hit for every other session's path queries (version mirroring in
     Scheduler.refresh_snapshot keeps the keys coherent). *)
  let shared = Scheduler.db sched in
  let session_db = Db.create ~indices:(Db.indices shared) () in
  (* Introspection wiring (DESIGN.md §14): reads run on the private Db,
     so its system tables must show *server* state, not the replica's
     defaults.  The fingerprint store and the statement logs are shared
     outright (one sqlgraph_stat_statements view, one pair of log
     files); the slow-query threshold starts from the server's; the
     session-scoped providers delegate to the scheduler (or the shared
     Db, for the WAL table, which is registered there by recovery). *)
  Db.set_stat_store session_db (Db.stat_store shared);
  Db.set_logs session_db (Db.logs shared);
  Db.set_slow_query_ms session_db (Db.slow_query_ms shared);
  (match
     Storage.Catalog.virtual_provider (Db.catalog shared) "sqlgraph_stat_wal"
   with
  | Some p -> Db.register_virtual_table session_db ~name:"sqlgraph_stat_wal" p
  | None -> ());
  (match
     Storage.Catalog.virtual_provider (Db.catalog shared)
       "sqlgraph_stat_replication"
   with
  | Some p ->
    Db.register_virtual_table session_db ~name:"sqlgraph_stat_replication" p
  | None -> ());
  Db.register_virtual_table session_db ~name:"sqlgraph_stat_sessions"
    (fun () -> Scheduler.sessions_table sched);
  Db.register_virtual_table session_db ~name:"sqlgraph_metrics" (fun () ->
      Scheduler.metrics_table sched
        ~extra:[ Db.registry session_db; Db.registry shared ]);
  let t =
    {
      sched;
      sid;
      fd;
      session_db;
      seen = Hashtbl.create 16;
      last_version = -1;
      loaded_version = -1;
      holding_writer = false;
      stmt_seq = 0;
      last_qid = None;
      gov_mu = Mutex.create ();
      current_gov = None;
      thread = None;
    }
  in
  t.thread <- Some (Thread.create run t);
  t

let join t = match t.thread with Some th -> Thread.join th | None -> ()
