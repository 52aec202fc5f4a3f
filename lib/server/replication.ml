(* WAL-streaming hot standby (DESIGN.md §15).

   Two roles over the ordinary line protocol:

   - {!Hub} runs on the primary.  A session that reads a [REPLICA
     gen=<g> offset=<o>] handshake hands its socket over; the hub —
     under the writer lock, with the log flushed and fsynced — either
     tails the stream from the standby's offset (byte-identical mirror:
     same generation, offset within the durable log) or ships a full
     resync first (the current checkpoint's files, then the log from its
     start).  Log ranges travel as [REPL WAL] lines cut by
     {!Wal.chunk_frames} at frame boundaries, at most 256 KiB each.
     From then on the group-commit leader's ship hook forwards every
     newly durable byte range *before* the batch's commits are
     acknowledged: once a client sees OK, the frames are in the kernel
     socket buffer to each live replica, so [kill -9] of the primary
     process loses no acknowledged commit.  A replica whose socket
     errors (or stalls past the send timeout) is dropped from the set —
     replication never fails a commit.

   - {!Standby} runs on the replica.  It connects to the primary
     through {!Client} (whose line reader is linear, so a multi-megabyte
     [REPL FILE] line costs no more than its bytes), handshakes with its
     local generation + log offset, decodes each frame-aligned chunk
     whole with {!Wal.decode_frames} (a chunk with a torn or corrupt
     frame never reaches the local log), appends it verbatim
     (log-before-apply), and applies the records to the shared database
     under the scheduler's writer lock with {!Wal.replay}'s commit-marker
     rule — the trailing 'S' run waits for its 'C' marker in a later
     chunk, so a transaction the primary never acknowledged is never
     visible (no fabricated rows).  After each applied batch it
     publishes a snapshot — with a version floor taken from the [snap=]
     values riding the stream, so post-failover reads stay monotone —
     and re-warms the enabled graph indices, so the first path query
     after promotion hits a warm cache.  [PROMOTE] fences the stream,
     checkpoints the applied state into a new generation (discarding any
     shipped-but-uncommitted tail), installs durability hooks and starts
     accepting writes.

   Fault sites: [repl_handshake] (hub rejects an attaching standby),
   [repl_send] (a ship fails mid-stream), [repl_apply] (the standby dies
   applying a batch), [promote_fence] (inside {!Wal.promote}). *)

module Db = Sqlgraph.Db
module Wal = Sqlgraph.Wal
module Fault = Sqlgraph.Fault

let now () = Unix.gettimeofday ()

let send_line fd line =
  let payload = line ^ "\n" in
  Sqlgraph.Persist.write_all fd payload

let max_ship_chunk = 256 * 1024

let peer_name fd =
  match Unix.getpeername fd with
  | Unix.ADDR_UNIX p -> "unix:" ^ (if p = "" then "<anon>" else p)
  | Unix.ADDR_INET (a, p) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | exception _ -> "<detached>"

let stat_row ~role ~state ~peer ~gen ~shipped ~applied ~heartbeat =
  let module V = Storage.Value in
  [
    V.Str role;
    V.Str state;
    V.Str peer;
    V.Int gen;
    V.Int shipped;
    V.Int applied;
    V.Int (max 0 (shipped - applied));
    V.Float heartbeat;
  ]

(* ==================================================================== *)
(* Primary: the replication hub                                         *)
(* ==================================================================== *)

module Hub = struct
  type replica_conn = {
    rc_fd : Unix.file_descr;
    rc_peer : string;
    mutable rc_sent_upto : int; (* log bytes already on this socket *)
    mutable rc_last_send : float;
  }

  type t = {
    sched : Scheduler.t;
    store : Wal.t;
    db : Db.t;
    mu : Mutex.t;
        (* guards [replicas] and serializes every send: the ship hook,
           the heartbeat thread and a status read never interleave
           writes on one socket *)
    mutable replicas : replica_conn list;
    mutable stopping : bool;
    ping_interval_ms : int;
    mutable heartbeat : Thread.t option;
  }

  let replica_count t =
    Mutex.lock t.mu;
    let n = List.length t.replicas in
    Mutex.unlock t.mu;
    n

  let gauge_replicas t =
    Scheduler.metric_gauge t.sched "sqlgraph_repl_replicas"
      (float_of_int (replica_count t))
      ~help:"Connected streaming replicas"

  (* Send one frame-aligned range to one socket as REPL WAL lines.
     Caller holds [mu] (or the conn is not yet registered). *)
  let ship_range fd ~base ~bytes ~snap =
    List.iter
      (fun (cstart, clen, ccount) ->
        Fault.hit ~site:"repl_send";
        send_line fd
          (Protocol.repl_wal ~off:(base + cstart) ~count:ccount ~snap
             ~data:(String.sub bytes cstart clen)))
      (Wal.chunk_frames bytes ~max_bytes:max_ship_chunk)

  (* The group-commit leader's ship hook: forward [from, upto) — already
     durable on the primary — to every live replica, before any commit
     in the batch is acknowledged.  A failing replica is dropped; the
     commit round never fails. *)
  let ship t ~from ~upto =
    let snap = Scheduler.snapshot_version t.sched in
    Mutex.lock t.mu;
    let dead = ref [] in
    List.iter
      (fun rc ->
        let f = max from rc.rc_sent_upto in
        if f < upto then
          match
            let bytes = Wal.read_range t.store ~pos:f ~len:(upto - f) in
            ship_range rc.rc_fd ~base:f ~bytes ~snap;
            String.length bytes
          with
          | n ->
            rc.rc_sent_upto <- upto;
            rc.rc_last_send <- now ();
            Scheduler.metric_inc t.sched "sqlgraph_repl_shipped_bytes_total" n
              ~help:"WAL bytes shipped to replicas"
          | exception _ ->
            (try Unix.close rc.rc_fd with _ -> ());
            dead := rc :: !dead)
      t.replicas;
    if !dead <> [] then
      t.replicas <- List.filter (fun rc -> not (List.memq rc !dead)) t.replicas;
    Scheduler.metric_gauge t.sched "sqlgraph_repl_shipped_offset"
      (float_of_int (List.fold_left (fun acc rc -> max acc rc.rc_sent_upto) 0 t.replicas));
    Mutex.unlock t.mu;
    if !dead <> [] then begin
      Scheduler.metric_inc t.sched "sqlgraph_repl_dropped_total"
        (List.length !dead)
        ~help:"Replicas dropped on a failed ship";
      gauge_replicas t
    end

  (* Handshake service: runs on the (former) session's thread, which
     exits right after.  Under the writer lock the log is quiescent, so
     checkpoint files + flushed log tail form a consistent cut. *)
  let attach t fd ~gen ~offset =
    Fault.hit ~site:"repl_handshake";
    (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0 with _ -> ());
    let peer = peer_name fd in
    let wl = Scheduler.writer_lock t.sched in
    Mutex.lock wl;
    match
      Fun.protect
        ~finally:(fun () -> Mutex.unlock wl)
        (fun () ->
          Wal.flush_now t.store;
          Wal.fsync_now t.store;
          let upto = Wal.logical_end t.store in
          let my_gen = Wal.gen t.store in
          let snap = Scheduler.snapshot_version t.sched in
          let from =
            if gen = my_gen && offset >= Wal.header_size && offset <= upto
            then offset (* byte-identical mirror: just tail the log *)
            else begin
              (* divergent (fresh standby, older generation, or a log
                 longer than ours — a fenced old primary rejoining):
                 ship the whole current checkpoint, then the whole log *)
              let ckpt =
                Wal.checkpoint_path ~dir:(Wal.dir t.store) ~gen:my_gen
              in
              let files =
                if Sys.file_exists ckpt then
                  Sys.readdir ckpt |> Array.to_list |> List.sort compare
                else []
              in
              send_line fd
                (Protocol.repl_snap ~gen:my_gen ~files:(List.length files));
              List.iter
                (fun name ->
                  send_line fd
                    (Protocol.repl_file ~name
                       ~data:
                         (In_channel.with_open_bin (Filename.concat ckpt name)
                            In_channel.input_all)))
                files;
              Wal.header_size
            end
          in
          send_line fd (Protocol.repl_tail ~gen:my_gen ~from);
          if upto > from then
            ship_range fd ~base:from
              ~bytes:(Wal.read_range t.store ~pos:from ~len:(upto - from))
              ~snap;
          { rc_fd = fd; rc_peer = peer; rc_sent_upto = upto; rc_last_send = now () })
    with
    | rc ->
      Mutex.lock t.mu;
      t.replicas <- rc :: t.replicas;
      Mutex.unlock t.mu;
      Scheduler.metric_inc t.sched "sqlgraph_repl_attached_total" 1
        ~help:"Standby handshakes served";
      gauge_replicas t
    | exception _ ->
      (try Unix.close fd with _ -> ());
      Scheduler.metric_inc t.sched "sqlgraph_repl_handshake_failures_total" 1
        ~help:"Standby handshakes that failed"

  (* Idle keepalive: a PING tells the standby the primary is alive (and
     carries the snapshot floor) even when no writes flow. *)
  let heartbeat_loop t =
    let interval = float_of_int t.ping_interval_ms /. 1000. in
    while not t.stopping do
      Unix.sleepf (interval /. 2.);
      if not t.stopping then begin
        let snap = Scheduler.snapshot_version t.sched in
        Mutex.lock t.mu;
        let dead = ref [] in
        List.iter
          (fun rc ->
            if now () -. rc.rc_last_send >= interval then
              match
                send_line rc.rc_fd
                  (Protocol.repl_ping ~upto:rc.rc_sent_upto ~snap)
              with
              | () -> rc.rc_last_send <- now ()
              | exception _ ->
                (try Unix.close rc.rc_fd with _ -> ());
                dead := rc :: !dead)
          t.replicas;
        if !dead <> [] then
          t.replicas <-
            List.filter (fun rc -> not (List.memq rc !dead)) t.replicas;
        Mutex.unlock t.mu;
        if !dead <> [] then gauge_replicas t
      end
    done

  let status_table t =
    let gen = Wal.gen t.store in
    let applied = Wal.logical_end t.store in
    Mutex.lock t.mu;
    let rows =
      match t.replicas with
      | [] ->
        [
          stat_row ~role:"primary" ~state:"idle" ~peer:"" ~gen
            ~shipped:applied ~applied ~heartbeat:0.;
        ]
      | reps ->
        List.rev_map
          (fun rc ->
            stat_row ~role:"primary" ~state:"streaming" ~peer:rc.rc_peer ~gen
              ~shipped:rc.rc_sent_upto ~applied
              ~heartbeat:(now () -. rc.rc_last_send))
          reps
    in
    Mutex.unlock t.mu;
    Storage.Table.of_rows Db.stat_replication_schema rows

  let create ?(ping_interval_ms = 1000) ~sched ~store ~db () =
    let t =
      {
        sched;
        store;
        db;
        mu = Mutex.create ();
        replicas = [];
        stopping = false;
        ping_interval_ms;
        heartbeat = None;
      }
    in
    Db.register_virtual_table db ~name:"sqlgraph_stat_replication" (fun () ->
        status_table t);
    Scheduler.set_repl_attach sched (Some (fun fd ~gen ~offset -> attach t fd ~gen ~offset));
    Scheduler.set_ship sched (Some (fun ~from ~upto -> ship t ~from ~upto));
    t.heartbeat <- Some (Thread.create heartbeat_loop t);
    t

  let stop t =
    t.stopping <- true;
    Scheduler.set_repl_attach t.sched None;
    Scheduler.set_ship t.sched None;
    (match t.heartbeat with Some th -> Thread.join th | None -> ());
    t.heartbeat <- None;
    Mutex.lock t.mu;
    List.iter (fun rc -> try Unix.close rc.rc_fd with _ -> ()) t.replicas;
    t.replicas <- [];
    Mutex.unlock t.mu
end

(* ==================================================================== *)
(* Replica: the standby                                                 *)
(* ==================================================================== *)

module Standby = struct
  type state = Connecting | Syncing | Streaming | Promoted | Stopped

  let state_name = function
    | Connecting -> "connecting"
    | Syncing -> "syncing"
    | Streaming -> "streaming"
    | Promoted -> "promoted"
    | Stopped -> "stopped"

  type t = {
    sched : Scheduler.t;
    store : Wal.t;
    db : Db.t; (* the standby server's shared database *)
    primary : Client.endpoint;
    reconnect_ms : int;
    mu : Mutex.t; (* guards state / conn / counters *)
    mutable st : state;
    mutable conn : Client.t option;
    mutable shipped_upto : int; (* highest offset the primary named *)
    mutable last_heartbeat : float;
    mutable pending : Wal.record list;
        (* the 'S' run of an in-flight transaction, in log order,
           awaiting its 'C' marker — possibly spanning several REPL WAL
           messages.  Never applied without the marker: the primary did
           not acknowledge that transaction, so surfacing it would
           fabricate rows a failed-over client never wrote. *)
    mutable thread : Thread.t option;
  }

  exception Stream_error of string

  let state t =
    Mutex.lock t.mu;
    let s = t.st in
    Mutex.unlock t.mu;
    s

  let applied_offset t = Wal.logical_end t.store

  let lag t =
    Mutex.lock t.mu;
    let l = max 0 (t.shipped_upto - Wal.logical_end t.store) in
    Mutex.unlock t.mu;
    l

  let status_table t =
    Mutex.lock t.mu;
    let row =
      stat_row
        ~role:(match t.st with Promoted -> "primary" | _ -> "standby")
        ~state:(state_name t.st)
        ~peer:(Client.endpoint_name t.primary)
        ~gen:(Wal.gen t.store)
        ~shipped:t.shipped_upto ~applied:(Wal.logical_end t.store)
        ~heartbeat:
          (if t.last_heartbeat = 0. then -1. else now () -. t.last_heartbeat)
    in
    Mutex.unlock t.mu;
    Storage.Table.of_rows Db.stat_replication_schema [ row ]

  (* Publish the applied state (writer lock held), with the stream's
     snapshot version as a floor, and re-warm the enabled graph indices
     so the first post-failover path query is a cache hit.  Publish
     first, floor second: flooring first would make the publish bump
     count past the primary's own version, and a client failing *back*
     would then see the live primary as stale. *)
  let publish_applied t ~snap =
    Scheduler.publish t.sched;
    Scheduler.set_publish_floor t.sched snap;
    let built = Db.warm_graph_indexes t.db in
    if built > 0 then
      Scheduler.metric_inc t.sched "sqlgraph_repl_indices_warmed_total" built
        ~help:"Graph indices rebuilt by the standby apply loop"

  let note_metrics t =
    Scheduler.metric_gauge t.sched "sqlgraph_repl_applied_offset"
      (float_of_int (Wal.logical_end t.store))
      ~help:"Standby log offset applied";
    Scheduler.metric_gauge t.sched "sqlgraph_repl_lag_bytes"
      (float_of_int (lag t))
      ~help:"Shipped-but-unapplied bytes"

  (* One [REPL WAL] message: decode its frames (the hub sends whole
     frames only, so any leftover byte is a protocol violation and the
     reconnect handshake resynchronizes), append the bytes verbatim to
     the local log, apply, publish. *)
  let handle_wal t ~off ~count ~snap ~data =
    Fault.hit ~site:"repl_apply";
    if off <> Wal.logical_end t.store then
      raise
        (Stream_error
           (Printf.sprintf "stream offset %d, local log end %d" off
              (Wal.logical_end t.store)));
    let records =
      try Wal.decode_frames data
      with Wal.Corrupt msg -> raise (Stream_error ("corrupt frame: " ^ msg))
    in
    let n = List.length records in
    if n <> count then
      raise (Stream_error (Printf.sprintf "expected %d frames, got %d" count n));
    let wl = Scheduler.writer_lock t.sched in
    Mutex.lock wl;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock wl)
      (fun () ->
        if state t = Promoted then raise (Stream_error "promoted");
        Wal.append_frames t.store ~count data;
        (* the db is read-only between batches (sessions must never
           write a standby), so the flag is dropped just for the replay *)
        Db.set_readonly t.db false;
        Fun.protect
          ~finally:(fun () -> Db.set_readonly t.db true)
          (fun () ->
            let _, _, uncommitted = Wal.replay t.db (t.pending @ records) in
            t.pending <- uncommitted);
        publish_applied t ~snap);
    Mutex.lock t.mu;
    t.shipped_upto <- max t.shipped_upto (Wal.logical_end t.store);
    t.last_heartbeat <- now ();
    Mutex.unlock t.mu;
    note_metrics t

  (* A full resync: land the checkpoint files atomically, fence the
     local log onto the primary's generation, and reload the database
     from the shipped checkpoint. *)
  let handle_snap t conn ~gen ~files =
    let ckpt = Wal.checkpoint_path ~dir:(Wal.dir t.store) ~gen in
    (try Unix.mkdir ckpt 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    for _ = 1 to files do
      let line = Client.read_line conn in
      match (Protocol.name_field line, Protocol.data_field line) with
      | Some name, Some data when Filename.basename name = name ->
        Wal.write_file_atomic (Filename.concat ckpt name) data
      | _ -> raise (Stream_error ("bad REPL FILE line: " ^ line))
    done;
    let wl = Scheduler.writer_lock t.sched in
    Mutex.lock wl;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock wl)
      (fun () ->
        if state t = Promoted then raise (Stream_error "promoted");
        Wal.reset_generation t.store ~gen;
        t.pending <- [];
        let cat = Db.catalog t.db in
        let manifest = Filename.concat ckpt "_manifest.csv" in
        let keep =
          if files > 0 && Sys.file_exists manifest then begin
            match Sqlgraph.Persist.load ~dir:ckpt with
            | Error e -> raise (Stream_error (Sqlgraph.Error.to_string e))
            | Ok fresh ->
              let fcat = Db.catalog fresh in
              let names =
                List.filter
                  (fun n -> not (Db.is_reserved_name n))
                  (Storage.Catalog.names fcat)
              in
              List.iter
                (fun n ->
                  match Storage.Catalog.find fcat n with
                  | Some tbl -> Db.load_table t.db ~name:n tbl
                  | None -> ())
                names;
              names
          end
          else []
        in
        List.iter
          (fun n ->
            if (not (Db.is_reserved_name n)) && not (List.mem n keep) then
              ignore (Storage.Catalog.drop cat n))
          (Storage.Catalog.names cat);
        publish_applied t ~snap:(Scheduler.snapshot_version t.sched));
    Scheduler.metric_inc t.sched "sqlgraph_repl_resyncs_total" 1
      ~help:"Full checkpoint resyncs performed"

  let dispatch t conn line =
    if String.length line >= 9 && String.sub line 0 9 = "REPL WAL " then
      match
        ( Protocol.int_field line "off",
          Protocol.int_field line "count",
          Protocol.int_field line "snap",
          Protocol.data_field line )
      with
      | Some off, Some count, Some snap, Some data ->
        handle_wal t ~off ~count ~snap ~data
      | _ -> raise (Stream_error ("bad REPL WAL line: " ^ line))
    else if String.length line >= 10 && String.sub line 0 10 = "REPL PING " then begin
      (match Protocol.int_field line "upto" with
      | Some upto ->
        Mutex.lock t.mu;
        t.shipped_upto <- max t.shipped_upto upto;
        t.last_heartbeat <- now ();
        Mutex.unlock t.mu
      | None -> ());
      (match Protocol.int_field line "snap" with
      | Some snap -> Scheduler.set_publish_floor t.sched snap
      | None -> ());
      note_metrics t
    end
    else if String.length line >= 10 && String.sub line 0 10 = "REPL SNAP " then (
      match (Protocol.int_field line "gen", Protocol.int_field line "files") with
      | Some gen, Some files -> handle_snap t conn ~gen ~files
      | _ -> raise (Stream_error ("bad REPL SNAP line: " ^ line)))
    else if String.length line >= 10 && String.sub line 0 10 = "REPL TAIL " then (
      match (Protocol.int_field line "gen", Protocol.int_field line "from") with
      | Some gen, Some from ->
        if gen <> Wal.gen t.store || from <> Wal.logical_end t.store then
          raise
            (Stream_error
               (Printf.sprintf "tail gen=%d from=%d vs local gen=%d end=%d" gen
                  from (Wal.gen t.store) (Wal.logical_end t.store)));
        Mutex.lock t.mu;
        if t.st = Syncing then t.st <- Streaming;
        Mutex.unlock t.mu
      | _ -> raise (Stream_error ("bad REPL TAIL line: " ^ line)))
    else raise (Stream_error ("unexpected line from primary: " ^ line))

  let set_state t s =
    Mutex.lock t.mu;
    (match t.st with
    | Promoted | Stopped -> ()
    | _ -> t.st <- s);
    Mutex.unlock t.mu

  (* The standby's receive loop: connect, handshake, stream, and on any
     failure reconnect with a fixed pause — the handshake re-negotiates
     the exact resume point, so a dropped connection costs nothing but
     latency.  Exits when promoted or stopped. *)
  let run t =
    let live () = match state t with Promoted | Stopped -> false | _ -> true in
    while live () do
      set_state t Connecting;
      (match Client.connect_endpoint t.primary with
      | exception _ -> Unix.sleepf (float_of_int t.reconnect_ms /. 1000.)
      | conn -> (
        Mutex.lock t.mu;
        t.conn <- Some conn;
        Mutex.unlock t.mu;
        (try
           ignore (Client.hello conn);
           Client.send_line conn
             (Protocol.replica_handshake ~gen:(Wal.gen t.store)
                ~offset:(Wal.logical_end t.store));
           set_state t Syncing;
           while live () do
             dispatch t conn (Client.read_line conn)
           done
         with
        | Client.Closed _ | Stream_error _ | Unix.Unix_error _ | Wal.Corrupt _ -> ()
        | _ -> ());
        Mutex.lock t.mu;
        t.conn <- None;
        Mutex.unlock t.mu;
        Client.close conn;
        if live () then Unix.sleepf (float_of_int t.reconnect_ms /. 1000.)))
    done

  (* Promotion: fence the stream (state flip + socket shutdown wakes a
     blocked receive), then — under the writer lock, serialized against
     any in-flight apply — checkpoint the applied state into a fresh
     generation (discarding the shipped-but-uncommitted 'S' tail),
     install durability hooks, drop read-only, publish.  From here the
     server accepts writes and can itself host a hub. *)
  let promote t =
    Mutex.lock t.mu;
    match t.st with
    | Promoted ->
      Mutex.unlock t.mu;
      Error "already promoted"
    | Stopped ->
      Mutex.unlock t.mu;
      Error "standby stopped"
    | _ ->
      t.st <- Promoted;
      Option.iter Client.shutdown t.conn;
      Mutex.unlock t.mu;
      let wl = Scheduler.writer_lock t.sched in
      Mutex.lock wl;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock wl)
        (fun () ->
          t.pending <- [];
          match Wal.promote t.store t.db with
          | Ok () ->
            Scheduler.publish t.sched;
            Scheduler.metric_inc t.sched "sqlgraph_repl_promotions_total" 1
              ~help:"Standby promotions";
            Ok (Wal.gen t.store)
          | Error e ->
            (* the fence failed: stay a (stalled) standby rather than
               half-promote — the operator can retry *)
            Mutex.lock t.mu;
            t.st <- Connecting;
            Mutex.unlock t.mu;
            Error (Sqlgraph.Error.to_string e))

  let create ?(reconnect_ms = 200) ~sched ~store ~db ~primary () =
    let t =
      {
        sched;
        store;
        db;
        primary;
        reconnect_ms;
        mu = Mutex.create ();
        st = Connecting;
        conn = None;
        shipped_upto = 0;
        last_heartbeat = 0.;
        pending = [];
        thread = None;
      }
    in
    Db.register_virtual_table db ~name:"sqlgraph_stat_replication" (fun () ->
        status_table t);
    Scheduler.set_promote_hook sched (Some (fun () -> promote t));
    t.thread <- Some (Thread.create run t);
    t

  let stop t =
    Mutex.lock t.mu;
    if t.st <> Promoted then t.st <- Stopped;
    Option.iter Client.shutdown t.conn;
    Mutex.unlock t.mu;
    (match t.thread with Some th -> Thread.join th | None -> ());
    t.thread <- None
end
