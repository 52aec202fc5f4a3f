(* WAL-streaming hot standby (DESIGN.md §15): the hub's frame-aligned
   ship chunks and their whole-chunk decode, torn-tail fencing at promotion, catch-up
   and steady-state streaming, full checkpoint resync, the client
   failover pool, wire promotion — and the seeded chaos loop.

   The chaos loop records every client's writes, reads and snapshots on
   the primary, a reader's on the standby and, on the same session,
   after promotion into one Sim.History, which judges per iteration:
   every commit a client saw acknowledged is present on the promoted
   standby (semi-synchronous shipping: frames precede acks); a
   rolled-back transaction's row never appears; nothing is fabricated;
   every session's snapshots are monotone, the standby reader's across
   the promotion; and every read returned a state of the serial
   history — at its snapshot on the primary, a prefix of the primary's
   commit order on the standby. *)

module V = Storage.Value
module Db = Sqlgraph.Db
module Wal = Sqlgraph.Wal
module Fault = Sqlgraph.Fault
module Server = Sqlgraph_server.Server
module Scheduler = Sqlgraph_server.Scheduler
module Client = Sqlgraph_server.Client
module Repl = Sqlgraph_server.Replication

open Testjson.Support

(* the directories here also hold sockets and logs: create them *)
let with_temp_dir f = with_temp_dir (fun dir -> Sys.mkdir dir 0o755; f dir)

(* ------------------------------------------------------------------ *)
(* Helpers *)

let open_replica_exn ?fsync dir =
  match Wal.open_replica ?fsync dir with
  | Ok v -> v
  | Error e ->
    Alcotest.failf "open_replica %s: %s" dir (Sqlgraph.Error.to_string e)

let wait_for ?(timeout = 30.) pred msg =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      Alcotest.failf "timeout waiting for %s" msg
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

(* A primary (durable server + hub + unix listener) and a streaming
   standby (replica store + server + unix listener), both in temp dirs.
   [init] runs against the primary database before the servers start, so
   its statements are in the WAL the standby catches up on. *)
type cluster = {
  psock : string;
  rsock : string;
  pstore : Wal.t;
  pdb : Db.t;
  psrv : Server.t;
  hub : Repl.Hub.t;
  rstore : Wal.t;
  rdb : Db.t;
  rsrv : Server.t;
  standby : Repl.Standby.t;
}

let with_cluster ?(init = fun _ -> ()) f =
  with_temp_dir (fun pdir ->
      with_temp_dir (fun rdir ->
          let psock = Filename.concat pdir "p.sock" in
          let rsock = Filename.concat rdir "r.sock" in
          let pstore, pdb, _ = open_exn ~fsync:false pdir in
          init pdb;
          let psrv = Server.create ~db:pdb ~store:(Some pstore) () in
          let hub =
            Repl.Hub.create ~ping_interval_ms:100
              ~sched:(Server.scheduler psrv) ~store:pstore ~db:pdb ()
          in
          Server.listen_unix psrv psock;
          let rstore, rdb, _ = open_replica_exn ~fsync:false rdir in
          let rsrv = Server.create ~db:rdb ~store:(Some rstore) () in
          Server.listen_unix rsrv rsock;
          let standby =
            Repl.Standby.create ~reconnect_ms:50
              ~sched:(Server.scheduler rsrv) ~store:rstore ~db:rdb
              ~primary:(Client.Unix_ep psock) ()
          in
          let c =
            { psock; rsock; pstore; pdb; psrv; hub; rstore; rdb; rsrv; standby }
          in
          Fun.protect
            ~finally:(fun () ->
              Fault.clear ();
              (try Repl.Standby.stop standby with _ -> ());
              (try Repl.Hub.stop hub with _ -> ());
              (try Server.shutdown rsrv with _ -> ());
              (try Server.shutdown psrv with _ -> ());
              (try Wal.close rstore with _ -> ());
              try Wal.close pstore with _ -> ())
            (fun () -> f c)))

let wait_caught_up ?timeout c =
  wait_for ?timeout
    (fun () ->
      Repl.Standby.applied_offset c.standby >= Wal.logical_end c.pstore)
    "standby catch-up"

(* The non-empty lines of a log file; none when it was never written. *)
let log_lines path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")

(* ------------------------------------------------------------------ *)
(* Ship chunks: frame-aligned cuts, each decoded whole *)

let encode (kind, sql, params) = Wal.encode_record ~kind ~sql ~params

let gen_records =
  QCheck.Gen.(
    list_size (int_range 1 8)
      (triple
         (oneofl [ Wal.Autocommit; Wal.Txn_stmt; Wal.Commit_marker ])
         (string_size ~gen:printable (int_range 0 48))
         (oneofl [ [||]; [| V.Int 7 |]; [| V.Str "x"; V.Int 3 |]; [| V.Null |] ])))

let arb_chunking =
  QCheck.make
    ~print:(fun (rs, max_bytes) ->
      Printf.sprintf "%d records, max_bytes %d" (List.length rs) max_bytes)
    QCheck.Gen.(pair gen_records (int_range 1 160))

(* The hub's cut: the chunks concatenate to the input, each fits
   [max_bytes] unless it is one frame larger than that, and each decodes
   whole to exactly the frame count the hub announces for it. *)
let test_chunking =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"chunks: concat, fit, decode" ~count:300
       arb_chunking (fun (rs, max_bytes) ->
         let bytes = String.concat "" (List.map encode rs) in
         let chunks = Wal.chunk_frames bytes ~max_bytes in
         let pieces =
           List.map (fun (start, len, _) -> String.sub bytes start len) chunks
         in
         String.concat "" pieces = bytes
         && List.for_all
              (fun (_, len, count) -> len <= max_bytes || count = 1)
              chunks
         && List.for_all2
              (fun (_, _, count) piece ->
                List.length (Wal.decode_frames piece) = count)
              chunks pieces
         && List.concat_map Wal.decode_frames pieces
            |> List.map (fun (k, _, s) -> (k, s))
            = List.map (fun (k, s, _) -> (k, s)) rs))

(* A chunk the standby receives must be consumed whole: cut a two-frame
   stream anywhere but a frame boundary — mid-length-word, mid-crc,
   mid-payload — and neither side decodes. *)
let test_cut_chunk_corrupt () =
  let first = encode (Wal.Txn_stmt, "INSERT INTO t VALUES (1)", [| V.Int 1 |]) in
  let bytes = first ^ encode (Wal.Commit_marker, "", [||]) in
  let corrupt s =
    match Wal.decode_frames s with exception Wal.Corrupt _ -> true | _ -> false
  in
  for cut = 1 to String.length bytes - 1 do
    if cut <> String.length first then begin
      check tbool (Printf.sprintf "prefix cut at %d" cut) true
        (corrupt (String.sub bytes 0 cut));
      check tbool (Printf.sprintf "suffix cut at %d" cut) true
        (corrupt (String.sub bytes cut (String.length bytes - cut)))
    end
  done;
  check tint "frame boundary decodes" 2 (List.length (Wal.decode_frames bytes))

(* One flipped bit anywhere in a chunk — length word, crc or payload —
   raises [Corrupt]. *)
let test_flipped_byte_corrupt () =
  let bytes =
    encode (Wal.Autocommit, "INSERT INTO t VALUES (1)", [||])
    ^ encode (Wal.Txn_stmt, "DELETE FROM t", [| V.Str "x" |])
  in
  for i = 0 to String.length bytes - 1 do
    let bad = Bytes.of_string bytes in
    Bytes.set bad i (Char.chr (Char.code bytes.[i] lxor 1));
    check tbool (Printf.sprintf "flip at %d" i) true
      (match Wal.decode_frames (Bytes.to_string bad) with
      | exception Wal.Corrupt _ -> true
      | _ -> false)
  done

(* ------------------------------------------------------------------ *)
(* Torn tail at handoff *)

(* A standby's log ends in a shipped 'S' run with no commit marker (the
   primary died mid-transaction): promotion must fence the tail away —
   the rows never surface, and a restart of the promoted node does not
   resurrect them. *)
let test_torn_tail_at_handoff () =
  with_temp_dir (fun dir ->
      let store, db, _ = open_replica_exn ~fsync:false dir in
      let a1 = (Wal.Autocommit, [||], "CREATE TABLE t (v INTEGER)") in
      let a2 = (Wal.Autocommit, [||], "INSERT INTO t VALUES (1)") in
      let torn = (Wal.Txn_stmt, [||], "INSERT INTO t VALUES (99)") in
      let frame (k, p, s) = Wal.encode_record ~kind:k ~sql:s ~params:p in
      Wal.append_frames store ~count:3
        (frame a1 ^ frame a2 ^ frame torn);
      (* the standby applies complete transactions only; the 'S' stays
         pending.  The apply loop lifts read-only around the replay — do
         the same here. *)
      Db.set_readonly db false;
      ignore (Wal.replay db [ a1; a2 ]);
      Db.set_readonly db true;
      let old_gen = Wal.gen store in
      (match Wal.promote store db with
      | Ok () -> ()
      | Error e -> Alcotest.failf "promote: %s" (Sqlgraph.Error.to_string e));
      check tbool "promotion bumps the generation" true (Wal.gen store > old_gen);
      check tint "uncommitted tail not applied" 1 (count_db db "t");
      (* the promoted node accepts writes and both survive a restart *)
      exec_exn db "INSERT INTO t VALUES (2)";
      Wal.close store;
      let store2, db2, _ = open_exn dir in
      check tint "restart: torn tail stays fenced" 2 (count_db db2 "t");
      Wal.close store2)

(* ------------------------------------------------------------------ *)
(* Catch-up, streaming, status *)

let test_catchup_and_stream () =
  with_cluster
    ~init:(fun db ->
      exec_exn db "CREATE TABLE t (v INTEGER)";
      for k = 1 to 3 do
        exec_exn db (Printf.sprintf "INSERT INTO t VALUES (%d)" k)
      done)
    (fun c ->
      wait_caught_up c;
      check tint "catch-up applies the seed WAL" 3 (count_db c.rdb "t");
      (* steady state: acked writes through the primary server appear *)
      let cl, _ = connect c.psrv in
      for k = 4 to 6 do
        let lines =
          Client.request cl (Printf.sprintf "INSERT INTO t VALUES (%d)" k)
        in
        check tbool "insert acked" true (Client.is_ok lines)
      done;
      wait_caught_up c;
      check tint "streamed commits applied" 6 (count_db c.rdb "t");
      Client.close cl;
      (* the standby serves reads through its own server *)
      let rc, _ = connect c.rsrv in
      let lines = Client.request rc "SELECT COUNT(*) FROM t" in
      check tbool "standby read ok" true (Client.is_ok lines);
      check tbool "standby sees the rows" true
        (List.exists (fun l -> l = "ROW 6") lines);
      (* and refuses writes while not promoted *)
      let refused = Client.request rc "INSERT INTO t VALUES (7)" in
      check tbool "standby refuses DML" true
        (not (Client.is_ok refused));
      Client.close rc;
      (* status rows on both sides *)
      wait_for
        (fun () -> Repl.Hub.replica_count c.hub = 1)
        "hub registers the replica";
      let role db' =
        match Db.query db' "SELECT role, state FROM sqlgraph_stat_replication" with
        | Ok r -> Sqlgraph.Resultset.rows r
        | Error e -> Alcotest.failf "status: %s" (Sqlgraph.Error.to_string e)
      in
      (match role c.pdb with
      | [ V.Str "primary"; V.Str "streaming" ] :: _ -> ()
      | rows ->
        Alcotest.failf "primary status: %d unexpected rows" (List.length rows));
      match role c.rdb with
      | [ [ V.Str "standby"; V.Str st ] ] ->
        check tbool "standby state streams" true
          (st = "streaming" || st = "syncing")
      | rows ->
        Alcotest.failf "standby status: %d unexpected rows" (List.length rows))

(* A standby joining with a divergent history (fresh directory, primary
   already past a checkpoint) takes the full-resync path: checkpoint
   files shipped, generation fenced, log tailed from its start. *)
(* The standby's apply loop re-runs statements the primary already
   logged: it writes no records, while a read served by the standby
   does. *)
let test_apply_loop_writes_no_records () =
  with_temp_dir (fun dir ->
      let slow = Filename.concat dir "slow.ndjson"
      and fire = Filename.concat dir "fire.ndjson" in
      with_cluster
        ~init:(fun db -> exec_exn db "CREATE TABLE t (v INTEGER)")
        (fun c ->
          Db.set_logs c.rdb (Db.create_logs ~slow_log:slow ~firehose:fire ());
          Db.set_slow_query_ms c.rdb (Some 0);
          let cl, _ = connect c.psrv in
          for k = 1 to 3 do
            check tbool "insert acked" true
              (Client.is_ok
                 (Client.request cl (Printf.sprintf "INSERT INTO t VALUES (%d)" k)))
          done;
          Client.close cl;
          wait_caught_up c;
          check (Alcotest.list Alcotest.string) "applied batches logged nothing" []
            (log_lines slow @ log_lines fire);
          let rc, _ = connect c.rsrv in
          let lines = Client.request rc "SELECT COUNT(*) FROM t" in
          check tbool "standby sees the rows" true (List.mem "ROW 3" lines);
          let qid =
            match Sqlgraph_server.Protocol.decode_reply (Client.terminal lines) with
            | Some (Sqlgraph_server.Protocol.Ok { qid = Some q; _ }) -> q
            | _ -> Alcotest.fail "no qid on the standby's OK"
          in
          Client.close rc;
          List.iter
            (fun path ->
              match log_lines path with
              | [ line ] ->
                check tbool "the served read's record" true
                  (Astring.String.is_infix ~affix:(Printf.sprintf "\"qid\":\"%s\"" qid)
                     line)
              | l -> Alcotest.failf "%s: %d records, expected 1" path (List.length l))
            [ slow; fire ]))

let test_full_resync () =
  with_temp_dir (fun pdir ->
      with_temp_dir (fun rdir ->
          let psock = Filename.concat pdir "p.sock" in
          let pstore, pdb, _ = open_exn ~fsync:false pdir in
          exec_exn pdb "CREATE TABLE t (v INTEGER)";
          for k = 1 to 3 do
            exec_exn pdb (Printf.sprintf "INSERT INTO t VALUES (%d)" k)
          done;
          (match Wal.checkpoint pstore pdb with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "checkpoint: %s" (Sqlgraph.Error.to_string e));
          exec_exn pdb "INSERT INTO t VALUES (4)";
          check tbool "primary is past generation 0" true (Wal.gen pstore > 0);
          let psrv = Server.create ~db:pdb ~store:(Some pstore) () in
          let hub =
            Repl.Hub.create ~sched:(Server.scheduler psrv) ~store:pstore
              ~db:pdb ()
          in
          Server.listen_unix psrv psock;
          let rstore, rdb, _ = open_replica_exn ~fsync:false rdir in
          let rsrv = Server.create ~db:rdb ~store:(Some rstore) () in
          let standby =
            Repl.Standby.create ~reconnect_ms:50
              ~sched:(Server.scheduler rsrv) ~store:rstore ~db:rdb
              ~primary:(Client.Unix_ep psock) ()
          in
          Fun.protect
            ~finally:(fun () ->
              (try Repl.Standby.stop standby with _ -> ());
              (try Repl.Hub.stop hub with _ -> ());
              (try Server.shutdown rsrv with _ -> ());
              (try Server.shutdown psrv with _ -> ());
              (try Wal.close rstore with _ -> ());
              try Wal.close pstore with _ -> ())
            (fun () ->
              wait_for
                (fun () ->
                  Repl.Standby.applied_offset standby
                  >= Wal.logical_end pstore)
                "resync catch-up";
              check tint "checkpoint + tail both applied" 4 (count_db rdb "t");
              check tint "generations converged" (Wal.gen pstore)
                (Wal.gen rstore))))

(* ------------------------------------------------------------------ *)
(* Client failover pool *)

let test_pool_rotation_and_exhaustion () =
  with_temp_dir (fun dir ->
      let sock = Filename.concat dir "s.sock" in
      let dead = Filename.concat dir "dead.sock" in
      let db = Db.create () in
      exec_exn db "CREATE TABLE t (v INTEGER)";
      let srv = Server.create ~db ~store:None () in
      Server.listen_unix srv sock;
      Fun.protect
        ~finally:(fun () -> Server.shutdown srv)
        (fun () ->
          (* a dead endpoint first: the pool must rotate past it *)
          let pool =
            Client.Pool.create ~retries:6 ~backoff_ms:2
              [ Client.Unix_ep dead; Client.Unix_ep sock ]
          in
          let lines = Client.Pool.request pool "SELECT COUNT(*) FROM t" in
          check tbool "rotates to the live endpoint" true (Client.is_ok lines);
          check tbool "live endpoint retained" true
            (Client.Pool.endpoint pool = Client.Unix_ep sock);
          Client.Pool.close pool;
          (* only dead endpoints: a bounded, nonzero retry budget, then
             Exhausted — never a hang, never a silent success *)
          let p2 =
            Client.Pool.create ~retries:2 ~backoff_ms:1
              [ Client.Unix_ep dead ]
          in
          check tbool "exhausts after the retry budget" true
            (match Client.Pool.request p2 "SELECT 1" with
            | exception Client.Pool.Exhausted _ -> true
            | _ -> false);
          Client.Pool.close p2))

(* DML against a not-yet-promoted standby is the failover grace window:
   the pool must rotate to the primary rather than surface the error. *)
let test_pool_readonly_rotation () =
  with_cluster
    ~init:(fun db -> exec_exn db "CREATE TABLE t (v INTEGER)")
    (fun c ->
      wait_caught_up c;
      let pool =
        Client.Pool.create ~retries:6 ~backoff_ms:2
          [ Client.Unix_ep c.rsock; Client.Unix_ep c.psock ]
      in
      Fun.protect
        ~finally:(fun () -> Client.Pool.close pool)
        (fun () ->
          let lines = Client.Pool.request pool "INSERT INTO t VALUES (1)" in
          check tbool "write lands on the primary" true (Client.is_ok lines);
          wait_caught_up c;
          check tint "replicated" 1 (count_db c.rdb "t")))

(* ------------------------------------------------------------------ *)
(* Promotion *)

let test_wire_promotion_and_failover () =
  with_cluster
    ~init:(fun db -> exec_exn db "CREATE TABLE t (v INTEGER)")
    (fun c ->
      let pool =
        Client.Pool.create ~retries:20 ~backoff_ms:5
          [ Client.Unix_ep c.psock; Client.Unix_ep c.rsock ]
      in
      Fun.protect
        ~finally:(fun () -> Client.Pool.close pool)
        (fun () ->
          for k = 1 to 3 do
            let lines =
              Client.Pool.request pool
                (Printf.sprintf "INSERT INTO t VALUES (%d)" k)
            in
            check tbool "insert acked" true (Client.is_ok lines)
          done;
          let snap_before = Client.Pool.last_snapshot pool in
          wait_caught_up c;
          (* the primary dies (graceful here; abrupt death is the chaos
             loop's and check.sh's job) *)
          Server.shutdown c.psrv;
          (* PROMOTE over the wire flips the standby to a writable
             primary *)
          let rc, _ = connect c.rsrv in
          let lines = Client.request rc "PROMOTE" in
          check tbool "OK PROMOTE" true (Client.is_ok lines);
          check tbool "promote names a fresh generation" true
            (match Sqlgraph_server.Protocol.decode_reply (Client.terminal lines) with
            | Some (Sqlgraph_server.Protocol.Ok { gen = Some g; _ }) -> g > 0
            | _ -> false);
          check tbool "second promote refused" true
            (not (Client.is_ok (Client.request rc "PROMOTE")));
          Client.close rc;
          (* the pool fails over and reads stay monotone *)
          let lines = Client.Pool.request pool "SELECT COUNT(*) FROM t" in
          check tbool "read after failover" true (Client.is_ok lines);
          check tbool "row count survives" true
            (List.exists (fun l -> l = "ROW 3") lines);
          check tbool "snapshot is monotone across failover" true
            (Client.Pool.last_snapshot pool >= snap_before);
          (* and the promoted node accepts writes *)
          let lines = Client.Pool.request pool "INSERT INTO t VALUES (4)" in
          check tbool "write after failover" true (Client.is_ok lines)))

(* ------------------------------------------------------------------ *)
(* Warm graph-index cache on the standby *)

let test_warm_index_on_standby () =
  with_cluster
    ~init:(fun db ->
      exec_exn db "CREATE TABLE e (src INTEGER, dst INTEGER)";
      exec_exn db "INSERT INTO e VALUES (1, 2)";
      exec_exn db "INSERT INTO e VALUES (2, 3)")
    (fun c ->
      wait_caught_up c;
      (* what `serve --replica-of --warm-index e:src:dst` does once the
         schema has streamed in *)
      (match Db.create_graph_index c.rdb ~table:"e" ~src:"src" ~dst:"dst" with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "create_graph_index: %s" (Sqlgraph.Error.to_string e));
      (* the next applied batch re-warms the index *)
      let cl, _ = connect c.psrv in
      check tbool "edge insert acked" true
        (Client.is_ok (Client.request cl "INSERT INTO e VALUES (3, 4)"));
      Client.close cl;
      wait_caught_up c;
      let idx = Db.indices c.rdb in
      let h0 = Executor.Graph_index.hits idx in
      let r =
        Db.query c.rdb
          ~params:[| V.Int 1; V.Int 4 |]
          "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (src, dst)"
      in
      (match r with
      | Ok rs -> (
        match Sqlgraph.Resultset.rows rs with
        | [ [ V.Int 3 ] ] -> ()
        | _ -> Alcotest.fail "unexpected path cost")
      | Error e -> Alcotest.failf "path query: %s" (Sqlgraph.Error.to_string e));
      check tbool "first post-attach path query hits the warm cache" true
        (Executor.Graph_index.hits idx > h0))

(* ------------------------------------------------------------------ *)
(* Chaos: seeded crash-promote-verify loop *)

module History = Sim.History

(* reads (standby prefix reads among them) and acked writes the history
   judged, over all iterations *)
let chaos_reads = ref 0
let chaos_standby_reads = ref 0
let chaos_acked = ref 0

(* One iteration: a client burst against the primary (with occasional
   rolled-back transactions), each client reading the table back after
   each insert, a reader on the standby, an abrupt severing of every
   client connection at a seeded point mid-burst, promotion of the
   standby, a read of the promoted standby on the same session, and
   Sim.History's judgement of it all.  The standby's snapshot versions
   are its own, so its reads are judged as prefixes of the primary's
   commit order. *)
let chaos_iteration seed =
  let rng = Random.State.make [| 0xC0FFEE + seed |] in
  (* a one-shot fault at a replication site, exercising drop/reconnect
     and the promotion fence's failure path *)
  (match seed mod 5 with
  | 1 -> Fault.set (Some (Fault.At_site "repl_send"))
  | 2 -> Fault.set (Some (Fault.At_site "repl_apply"))
  | 3 -> Fault.set (Some (Fault.At_site "repl_handshake"))
  | 4 -> Fault.set (Some (Fault.At_site "promote_fence"))
  | _ -> Fault.clear ());
  with_cluster
    ~init:(fun db -> exec_exn db "CREATE TABLE t (client INTEGER, v INTEGER)")
    (fun c ->
      let nclients = 3 + Random.State.int rng 3 in
      let per = 3 + Random.State.int rng 4 in
      let crash_after = Random.State.int rng ((nclients * per / 2) + 1) in
      (* seeded in the main thread: which rounds wrap a rolled-back
         transaction around the insert *)
      let rollback =
        Array.init nclients (fun _ ->
            Array.init per (fun _ -> Random.State.int rng 5 = 0))
      in
      let h = History.create () in
      let row i v = History.Insert { table = "t"; key = i; value = v } in
      let insert i v = Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i v in
      let acked_n = Atomic.make 0 in
      let done_n = Atomic.make 0 in
      let severed = Atomic.make false in
      let clients = Array.init nclients (fun _ -> connect c.psrv) in
      let request session cl sql =
        let lines = Client.request cl sql in
        History.seen_reply h ~session lines;
        lines
      in
      let run_client i (cl, _) =
        let req = request i cl in
        (try
           History.seen_reply h ~session:i [ Client.hello cl ];
           for k = 1 to per do
             if not (Atomic.get severed) then begin
               (* a seeded minority of rounds is a rolled-back
                  transaction: no COMMIT is ever sent, so its row must
                  never surface anywhere *)
               if rollback.(i).(k - 1) then
                 ignore
                   (History.served_txn h ~session:i ~commit:false
                      [ (row i 9999, insert i 9999) ] req);
               let lines =
                 History.served_write h ~session:i [ row i k ] (fun () ->
                     req (insert i k))
               in
               if Client.is_ok lines then Atomic.incr acked_n;
               History.served_read h ~session:i ~table:"t" `Count
                 (req "SELECT COUNT(*) FROM t")
             end
           done
         with _ -> ());
        Atomic.incr done_n
      in
      (* one standby session reads through the burst, the drain and the
         promotion *)
      let reader_session = nclients in
      let rc, _ = connect c.rsrv in
      let standby_read ?at shape sql =
        let lines = request reader_session rc sql in
        History.served_read h ~session:reader_session
          ~at:(Option.value at ~default:History.Prefix) ~table:"t" shape lines;
        if Client.is_ok lines then incr chaos_standby_reads;
        lines
      in
      let burst_over = Atomic.make false in
      let reader =
        Thread.create
          (fun () ->
            while not (Atomic.get burst_over) do
              ignore (standby_read `Count "SELECT COUNT(*) FROM t");
              Unix.sleepf 0.001
            done)
          ()
      in
      let threads =
        Array.mapi
          (fun i cl -> Thread.create (fun () -> run_client i cl) ())
          clients
      in
      (* sever every client connection at a seeded point mid-burst: from
         the clients' side this is the primary dying — anything not
         acknowledged by now never counts *)
      wait_for
        (fun () ->
          Atomic.get acked_n >= crash_after || Atomic.get done_n = nclients)
        "burst progress";
      Atomic.set severed true;
      Array.iter
        (fun (_, fd) -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
        clients;
      Array.iter Thread.join threads;
      Array.iter (fun (cl, _) -> Client.close cl) clients;
      Atomic.set burst_over true;
      Thread.join reader;
      (* the standby drains the stream (reconnecting through any armed
         fault), then the operator promotes *)
      wait_caught_up c;
      ignore (standby_read `Count "SELECT COUNT(*) FROM t");
      let rec promote tries =
        match Repl.Standby.promote c.standby with
        | Ok gen -> gen
        | Error msg ->
          (* the seeded promote_fence fault fails the first attempt; the
             operator retries *)
          if tries > 0 then promote (tries - 1)
          else Alcotest.failf "promote: %s" msg
      in
      let gen = promote 2 in
      check tbool "promotion fenced a fresh generation" true (gen > 0);
      Fault.clear ();
      (* the promoted standby serves reads, on the same session: every
         acked commit is there (semi-synchronous shipping), and nothing
         else but the writes whose replies the severing lost *)
      let lines = standby_read ~at:History.Final `Rows "SELECT client, v FROM t" in
      check tbool "promoted standby serves reads" true (Client.is_ok lines);
      let report = History.check h in
      (match History.describe report with
      | [] -> ()
      | vs -> Alcotest.failf "seed %d:\n%s" seed (String.concat "\n" vs));
      chaos_reads := !chaos_reads + History.judged report History.Stale_read;
      chaos_acked := !chaos_acked + History.judged report History.Acked_lost;
      let accepted = Client.request rc "INSERT INTO t VALUES (-1, 0)" in
      check tbool "promoted standby accepts writes" true
        (Client.is_ok accepted);
      Client.close rc)

let test_chaos () =
  for seed = 0 to 119 do
    chaos_iteration seed
  done;
  if !chaos_reads = 0 || !chaos_standby_reads = 0 || !chaos_acked = 0 then
    Alcotest.failf
      "the history judged %d reads (%d on the standby) and %d acked writes"
      !chaos_reads !chaos_standby_reads !chaos_acked

(* ------------------------------------------------------------------ *)

let () =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "replication"
    [
      ( "ship-chunks",
        [
          test_chunking;
          Alcotest.test_case "cut at a non-frame offset" `Quick
            test_cut_chunk_corrupt;
          Alcotest.test_case "flipped byte" `Quick test_flipped_byte_corrupt;
        ] );
      ( "handoff",
        [
          Alcotest.test_case "torn tail fenced at promotion" `Quick
            test_torn_tail_at_handoff;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "catch-up and steady state" `Quick
            test_catchup_and_stream;
          Alcotest.test_case "full resync across generations" `Quick
            test_full_resync;
          Alcotest.test_case "apply loop writes no log records" `Quick
            test_apply_loop_writes_no_records;
        ] );
      ( "pool",
        [
          Alcotest.test_case "rotation and exhaustion" `Quick
            test_pool_rotation_and_exhaustion;
          Alcotest.test_case "read-only grace rotation" `Quick
            test_pool_readonly_rotation;
        ] );
      ( "promotion",
        [
          Alcotest.test_case "wire promotion and failover" `Quick
            test_wire_promotion_and_failover;
          Alcotest.test_case "warm index on standby" `Quick
            test_warm_index_on_standby;
        ] );
      ("chaos", [ Alcotest.test_case "120 seeded iterations" `Slow test_chaos ]);
    ]
