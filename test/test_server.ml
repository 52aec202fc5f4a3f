(* The multi-session server: protocol robustness (every malformed or
   hostile input yields a structured response, never a hang or crash),
   snapshot isolation, group commit — and the headline concurrency
   fuzzer.

   The fuzzer's invariants (DESIGN.md §12): run N scripted clients over
   a socketpair harness against one durable server while injected
   faults fire at the server's own sites (accept, session_read,
   group_fsync, shutdown_drain) and the WAL's; then kill or drain the
   server, recover the directory, and judge everything the clients saw
   with Sim.History: acknowledged commits survive recovery, rolled-back
   and load-shed statements never do, transactions are all-or-nothing,
   nothing is fabricated, each session's snapshots are monotone, and
   every read returned the serial state at its snapshot.  Every client
   must also finish before a deadline (no hangs). *)

module V = Storage.Value
module Db = Sqlgraph.Db
module Wal = Sqlgraph.Wal
module Fault = Sqlgraph.Fault
module Governor = Sqlgraph.Governor
module Server = Sqlgraph_server.Server
module Scheduler = Sqlgraph_server.Scheduler
module Session = Sqlgraph_server.Session
module Client = Sqlgraph_server.Client
module Protocol = Sqlgraph_server.Protocol

open Testjson.Support

(* ------------------------------------------------------------------ *)
(* Helpers *)

let with_server ?config ?store db f =
  let srv = Server.create ?config ~db ~store () in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) (fun () -> f srv)

let connect1 srv = fst (connect srv)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Send raw bytes (not necessarily one clean statement) and read one
   full response. *)
let raw_round c bytes =
  ignore (Client.hello ~timeout_ms:5_000 c);
  Client.send_line c bytes;
  let rec collect acc =
    let line = Client.read_line ~timeout_ms:5_000 c in
    if Protocol.is_terminal line then List.rev (line :: acc)
    else collect (line :: acc)
  in
  collect []

(* The decoded terminal OK of a response, if it ends in one. *)
let ok_of lines =
  match Protocol.decode_reply (Client.terminal lines) with
  | Some (Protocol.Ok o) -> Some o
  | _ -> None

let qid_of_reply lines = Option.bind (ok_of lines) (fun o -> o.Protocol.qid)

(* ------------------------------------------------------------------ *)
(* Protocol codec *)

let test_escape_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"protocol: escape/unescape roundtrip" ~count:500
       QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 48) QCheck.Gen.char)
       (fun s ->
         let e = Protocol.escape s in
         (not (String.contains e '\n'))
         && (not (String.contains e '\t'))
         && Protocol.unescape e = s))

let test_terminal_lines () =
  List.iter
    (fun (line, expect) ->
      check tbool line expect (Protocol.is_terminal line))
    [
      ("OK SELECT rows=3 snapshot=1", true);
      ("OK", true);
      ("ERR parse bad", true);
      ("BYE idle timeout", true);
      ("ROW 1\t2", false);
      ("OKAY not really", false);
      ("", false);
    ]

let test_snapshot_parse () =
  let snapshot line = Option.map (fun o -> o.Protocol.snapshot) (ok_of [ line ]) in
  check (Alcotest.option tint) "parses" (Some 42)
    (snapshot "OK INSERT 1 snapshot=42");
  check (Alcotest.option tint) "absent" None
    (snapshot "ERR busy retry_ms=50 shed");
  check tbool "clean" true
    (Protocol.request "  SELECT 1 ;  " = Protocol.Sql "SELECT 1")

(* decode (encode m) = m for every encoder.  Free text — ERR messages,
   BYE reasons, cells, replication payloads — quotes every field key and
   every escaped byte, so a decoder that read a field out of free text,
   or split on an escaped byte, fails here. *)
let gen_text =
  QCheck.Gen.(
    let piece =
      oneof
        [
          string_size ~gen:char (int_range 0 6);
          oneofl
            [
              "snapshot=99999"; " qid=zz:1"; "retry_ms=7 "; " data=x"; "rows=3";
              "\t"; "\n"; "\r"; "\\"; " "; "=";
            ];
        ]
    in
    map (String.concat "") (list_size (int_range 0 6) piece))

let gen_reply_case =
  let open QCheck.Gen in
  let nat = int_range 0 1_000_000 in
  let err category message = Protocol.Err { category; message; retry_ms = None } in
  let errors =
    [
      ("parse", fun m -> Sqlgraph.Error.Parse_error { message = m; line = 1; col = 2 });
      ("bind", fun m -> Sqlgraph.Error.Bind_error m);
      ("runtime", fun m -> Sqlgraph.Error.Runtime_error m);
      ( "resource:timeout",
        fun m ->
          Sqlgraph.Error.Resource_error
            { kind = Sqlgraph.Error.Timeout; spent = 2.; limit = 1.; site = m } );
      ("io", fun m -> Sqlgraph.Error.Io_error m);
      ("internal", fun m -> Sqlgraph.Error.Internal_error m);
    ]
  in
  (* one ok_outcome shape: the outcome, its ROW cells, and the OK fields *)
  let outcome =
    let ok ?name ?count ?rows verb = (verb, name, count, rows) in
    oneof
      [
        map (fun n -> (Db.Inserted n, [], ok ~count:n "INSERT")) nat;
        map (fun n -> (Db.Updated n, [], ok ~count:n "UPDATE")) nat;
        map (fun n -> (Db.Deleted n, [], ok ~count:n "DELETE")) nat;
        map2
          (fun name v -> (Db.Option_set (name, v), [], ok ~name ~count:v "SET"))
          (oneofl [ "parallelism"; "timeout_ms" ])
          nat;
        oneofl
          [
            (Db.Created, [], ok "CREATE");
            (Db.Dropped, [], ok "DROP");
            (Db.Began, [], ok "BEGIN");
            (Db.Committed, [], ok "COMMIT");
            (Db.Rolled_back, [], ok "ROLLBACK");
          ];
        map
          (fun cells ->
            let tbl =
              Storage.Table.of_rows
                (Storage.Schema.of_pairs [ ("c", Storage.Dtype.TStr) ])
                (List.map (fun c -> [ V.Str c ]) cells)
            in
            ( Db.Selected (Sqlgraph.Resultset.of_table tbl),
              List.map (fun c -> [ c ]) cells,
              ok ~rows:(List.length cells) "SELECT" ))
          (list_size (int_range 0 4) gen_text);
        map
          (fun text ->
            let lines =
              List.filter (( <> ) "") (String.split_on_char '\n' text)
            in
            ( Db.Explained text,
              List.map (fun l -> [ l ]) lines,
              ok ~rows:(List.length lines) "EXPLAIN" ))
          gen_text;
      ]
  in
  oneof
    [
      map2
        (fun sid snapshot ->
          ([ Protocol.hello ~sid ~snapshot ], [ Protocol.Hello { sid; snapshot } ]))
        nat nat;
      map (fun r -> ([ Protocol.bye r ], [ Protocol.Bye r ])) gen_text;
      map
        (fun cells ->
          ( [ Protocol.row (List.map (fun c -> V.Str c) cells) ],
            [ Protocol.Row cells ] ))
        (list_size (int_range 1 4) gen_text);
      map2
        (fun ms m ->
          ( [ Protocol.err_busy ~retry_ms:ms m ],
            [ Protocol.Err { category = "busy"; message = m; retry_ms = Some ms } ] ))
        nat gen_text;
      map (fun m -> ([ Protocol.err_protocol m ], [ err "protocol" m ])) gen_text;
      map2
        (fun (category, mk) m ->
          let e = mk m in
          ([ Protocol.err e ], [ err category (Sqlgraph.Error.to_string e) ]))
        (oneofl errors) gen_text;
      map2
        (fun gen snapshot ->
          ( [ Protocol.ok_promote ~gen ~snapshot ],
            [
              Protocol.Ok
                {
                  verb = "PROMOTE";
                  name = None;
                  count = None;
                  rows = None;
                  gen = Some gen;
                  qid = None;
                  snapshot;
                };
            ] ))
        nat nat;
      map3
        (fun (o, cells, (verb, name, count, rows)) qid snapshot ->
          ( Protocol.ok_outcome ?qid ~snapshot o,
            List.map (fun c -> Protocol.Row c) cells
            @ [ Protocol.Ok { verb; name; count; rows; gen = None; qid; snapshot } ] ))
        outcome
        (opt (map2 (Printf.sprintf "%016x:%d") nat nat))
        nat;
    ]

let test_reply_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"protocol: decode_reply inverts every reply encoder"
       ~count:1000
       (QCheck.make
          ~print:(fun (lines, _) -> String.concat "\n" lines)
          gen_reply_case)
       (fun (lines, expect) ->
         List.map Protocol.decode_reply lines = List.map Option.some expect))

let test_repl_roundtrip =
  let open QCheck.Gen in
  let nat = int_range 0 1_000_000 in
  (* checkpoint file names never hold a space: the name is one word *)
  let name = string_size ~gen:(map (fun c -> if c = ' ' then '_' else c) char) (int_range 0 12) in
  let data = string_size ~gen:char (int_range 0 64) in
  let msg =
    oneof
      [
        map2 (fun gen offset -> Protocol.Replica { gen; offset }) nat nat;
        map2 (fun gen files -> Protocol.Snap { gen; files }) nat nat;
        map2 (fun name data -> Protocol.File { name; data }) name data;
        map2 (fun gen from -> Protocol.Tail { gen; from }) nat nat;
        map3
          (fun (off, count) snap data -> Protocol.Wal { off; count; snap; data })
          (pair nat nat) nat data;
        map2 (fun upto snap -> Protocol.Ping { upto; snap }) nat nat;
      ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"protocol: decode_repl inverts encode_repl"
       ~count:1000
       (QCheck.make ~print:Protocol.encode_repl msg)
       (fun m ->
         let line = Protocol.encode_repl m in
         Protocol.decode_repl line = Some m
         (* a replication line is no reply *)
         && Protocol.decode_reply line = None))

let test_request_classes () =
  List.iter
    (fun (line, expect) -> check tbool line true (Protocol.request line = expect))
    [
      ("  SELECT 1 ;  ", Protocol.Sql "SELECT 1");
      ("", Protocol.Empty);
      (" ; ", Protocol.Empty);
      ("quit", Protocol.Quit);
      ("PROMOTE;", Protocol.Promote);
      ("QUIT now", Protocol.Sql "QUIT now");
    ];
  check tbool "SQL is no replication line" true
    (Protocol.decode_repl "SELECT 1" = None)

(* The line splitter pops exactly the lines [String.split_on_char]
   finds, however the stream is split into reads, and keeps the
   unterminated rest buffered. *)
let test_lines_any_split =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"lines: any split = split_on_char" ~count:300
       QCheck.(
         pair
           (string_gen_of_size (Gen.int_range 0 200) (Gen.oneofl [ 'a'; 'b'; '\n' ]))
           (list_of_size (Gen.int_range 1 12) (int_range 1 40)))
       (fun (stream, sizes) ->
         let r, w = Unix.pipe ~cloexec:true () in
         Fun.protect
           ~finally:(fun () ->
             Unix.close r;
             Unix.close w)
           (fun () ->
             let lines = Protocol.Lines.create () in
             let popped = ref [] in
             let rec drain () =
               match Protocol.Lines.pop lines with
               | Some l ->
                 popped := l :: !popped;
                 drain ()
               | None -> ()
             in
             let n = String.length stream in
             let pos = ref 0 and k = ref 0 in
             while !pos < n do
               let len = min (List.nth sizes (!k mod List.length sizes)) (n - !pos) in
               ignore (Unix.write_substring w stream !pos len);
               let got = ref 0 in
               while !got < len do
                 got := !got + Protocol.Lines.read lines r;
                 drain ()
               done;
               pos := !pos + len;
               incr k
             done;
             let expect = List.rev (String.split_on_char '\n' stream) in
             List.rev !popped = List.rev (List.tl expect)
             && Protocol.Lines.pending lines = String.length (List.hd expect))))

(* A single multi-megabyte line (a full resync's REPL FILE) must read in
   linear time: 8 MiB through a socketpair well under 2 s. *)
let test_long_line_linear () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let size = 8 * 1024 * 1024 in
  let writer =
    Thread.create
      (fun () ->
        Sqlgraph.Persist.write_all a (String.make size 'x' ^ "\n");
        Unix.close a)
      ()
  in
  let c = Client.of_fd b in
  let t0 = Unix.gettimeofday () in
  let line = Client.read_line ~timeout_ms:30_000 c in
  let dt = Unix.gettimeofday () -. t0 in
  Thread.join writer;
  Client.close c;
  check tint "whole line" size (String.length line);
  check tbool (Printf.sprintf "read in %.3f s (< 2 s)" dt) true (dt < 2.0)

(* ------------------------------------------------------------------ *)
(* Robustness case table: hostile inputs -> structured error, no hang *)

let small_config =
  {
    Scheduler.default_config with
    max_line_bytes = 64;
    idle_timeout_ms = 10_000;
  }

let fresh_db () =
  let db = Db.create () in
  exec_exn db "CREATE TABLE t (a INTEGER)";
  exec_exn db "INSERT INTO t VALUES (1), (2), (3)";
  db

let test_oversized_line () =
  with_server ~config:small_config (fresh_db ()) (fun srv ->
      let c = connect1 srv in
      let resp = raw_round c ("SELECT " ^ String.make 200 '1') in
      check tbool "oversized -> ERR protocol" true
        (has_prefix ~prefix:"ERR protocol" (Client.terminal resp));
      (* the session resynchronized and keeps serving *)
      let resp = Client.request ~timeout_ms:5_000 c "SELECT COUNT(*) FROM t" in
      check tbool "session survives" true (Client.is_ok resp);
      Client.close c)

let test_oversized_streamed () =
  (* the oversized request arrives in pieces with no newline: the reader
     must shed it mid-stream, then resync at the eventual newline *)
  with_server ~config:small_config (fresh_db ()) (fun srv ->
      let c, fd = connect srv in
      ignore (Client.hello ~timeout_ms:5_000 c);
      let junk = String.make 50 'x' in
      for _ = 1 to 4 do
        ignore (Unix.write_substring fd junk 0 (String.length junk))
      done;
      let line = Client.read_line ~timeout_ms:5_000 c in
      check tbool "ERR protocol" true (has_prefix ~prefix:"ERR protocol" line);
      (* finish the junk line, then a real statement *)
      Client.send_line c "";
      let resp = Client.request ~timeout_ms:5_000 c "SELECT COUNT(*) FROM t" in
      check tbool "resynced" true (Client.is_ok resp);
      Client.close c)

let test_garbage_bytes () =
  with_server ~config:small_config (fresh_db ()) (fun srv ->
      let c = connect1 srv in
      List.iter
        (fun junk ->
          let resp = raw_round c junk in
          check tbool
            (Printf.sprintf "garbage %S -> ERR" junk)
            true
            (has_prefix ~prefix:"ERR" (Client.terminal resp)))
        [ "SELEC\000T * FROM t"; "\255\254\253"; "))(("; ";" ];
      let resp = Client.request ~timeout_ms:5_000 c "SELECT COUNT(*) FROM t" in
      check tbool "session survives garbage" true (Client.is_ok resp);
      Client.close c)

let test_half_closed_socket () =
  with_server ~config:small_config (fresh_db ()) (fun srv ->
      let c, fd = connect srv in
      ignore (Client.hello ~timeout_ms:5_000 c);
      Client.send_line c "SELECT COUNT(*) FROM t";
      (* half-close: no more requests, but the response must still come *)
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let rec collect acc =
        let line = Client.read_line ~timeout_ms:5_000 c in
        if Protocol.is_terminal line then List.rev (line :: acc)
        else collect (line :: acc)
      in
      let resp = collect [] in
      check tbool "response delivered after half-close" true
        (has_prefix ~prefix:"OK SELECT" (Client.terminal resp));
      (* then the server closes its end — EOF, not a hang *)
      check tbool "EOF after drain" true
        (match Client.read_line ~timeout_ms:5_000 c with
        | _ -> false
        | exception Client.Closed _ -> true);
      Client.close c)

let test_idle_timeout () =
  (* The idle deadline runs on an injectable virtual clock
     (Scheduler.Manual): instead of configuring a short real timeout and
     sleeping through it — flaky under load — the test jumps virtual
     time past a 5-virtual-second budget and the session must notice.
     Each bump exceeds the whole budget, so whichever virtual instant
     the session captured its deadline at, some bump passes it. *)
  let vnow = ref 0. in
  let config =
    {
      small_config with
      idle_timeout_ms = 5_000;
      clock = Scheduler.Manual (fun () -> !vnow);
    }
  in
  with_server ~config (fresh_db ()) (fun srv ->
      let c, fd = connect srv in
      ignore (Client.hello ~timeout_ms:5_000 c);
      let rec await n =
        if n > 400 then Alcotest.fail "idle timeout never fired";
        vnow := !vnow +. 10.;
        match Unix.select [ fd ] [] [] 0.025 with
        | [], _, _ -> await (n + 1)
        | _ -> ()
      in
      await 0;
      let first = Client.read_line ~timeout_ms:5_000 c in
      check tbool "ERR resource:timeout" true
        (has_prefix ~prefix:"ERR resource:timeout" first);
      let second = Client.read_line ~timeout_ms:5_000 c in
      check tbool "BYE" true (has_prefix ~prefix:"BYE" second);
      Client.close c)

let test_session_cap () =
  let config = { small_config with max_sessions = 1 } in
  with_server ~config (fresh_db ()) (fun srv ->
      let c1 = connect1 srv in
      ignore (Client.hello ~timeout_ms:5_000 c1);
      let c2 = connect1 srv in
      (match Protocol.decode_reply (Client.read_line ~timeout_ms:5_000 c2) with
      | Some (Protocol.Err { category = "busy"; retry_ms = Some ms; _ }) ->
        check tint "retry hint" small_config.busy_retry_ms ms
      | _ -> Alcotest.fail "expected ERR busy with a retry hint");
      (match Protocol.decode_reply (Client.read_line ~timeout_ms:5_000 c2) with
      | Some (Protocol.Bye _) -> ()
      | _ -> Alcotest.fail "expected BYE after ERR busy");
      Client.close c2;
      (* the admitted session is unaffected *)
      let resp = Client.request ~timeout_ms:5_000 c1 "SELECT COUNT(*) FROM t" in
      check tbool "first session still fine" true (Client.is_ok resp);
      Client.close c1)

let test_load_shed () =
  let config = { small_config with write_high_water = 0 } in
  with_server ~config (fresh_db ()) (fun srv ->
      let c = connect1 srv in
      let resp = Client.request ~timeout_ms:5_000 c "INSERT INTO t VALUES (9)" in
      check tbool "write shed with retry hint" true
        (has_prefix ~prefix:"ERR busy retry_ms=" (Client.terminal resp));
      (* reads are never shed *)
      let resp = Client.request ~timeout_ms:5_000 c "SELECT COUNT(*) FROM t" in
      check tbool "reads unaffected" true (Client.is_ok resp);
      Client.close c)

(* The retry half of load shedding, with the backoff on the virtual
   clock: a shed client honours retry_ms by advancing virtual time (no
   real sleeping), and the retry must succeed once the writer queue
   drains.  Sequencing is event-driven — the test waits on the write
   queue-depth gauge, not on timed sleeps. *)
let test_load_shed_retry () =
  let vnow = ref 0. in
  let config =
    {
      small_config with
      write_high_water = 1;
      busy_retry_ms = 40;
      clock = Scheduler.Manual (fun () -> !vnow);
    }
  in
  with_server ~config (fresh_db ()) (fun srv ->
      let queue_depth () =
        Telemetry.Registry.fold
          (Scheduler.metrics (Server.scheduler srv))
          ~init:0
          ~f:(fun acc name ~help:_ m ->
            match m with
            | Telemetry.Registry.Gauge g
              when name = "sqlgraph_server_write_queue_depth" ->
              int_of_float g
            | _ -> acc)
      in
      let holder = connect1 srv in
      let resp = Client.request ~timeout_ms:5_000 holder "BEGIN" in
      check tbool "writer lock held" true (Client.is_ok resp);
      (* a second writer queues behind the lock (below high water)... *)
      let queued = connect1 srv in
      ignore (Client.hello ~timeout_ms:5_000 queued);
      Client.send_line queued "INSERT INTO t VALUES (7)";
      let deadline = Unix.gettimeofday () +. 10. in
      while queue_depth () < 1 && Unix.gettimeofday () < deadline do
        Thread.yield ()
      done;
      check tint "one writer queued" 1 (queue_depth ());
      (* ...so a third is shed with a retry hint *)
      let shed = connect1 srv in
      let resp = Client.request ~timeout_ms:5_000 shed "INSERT INTO t VALUES (8)" in
      let line = Client.terminal resp in
      check tbool "third writer shed" true
        (has_prefix ~prefix:"ERR busy retry_ms=40" line);
      (* back off for retry_ms on the virtual clock, drain the queue *)
      vnow := !vnow +. (float_of_int config.busy_retry_ms /. 1000.);
      let resp = Client.request ~timeout_ms:5_000 holder "COMMIT" in
      check tbool "holder commits" true (Client.is_ok resp);
      let rec collect acc =
        let l = Client.read_line ~timeout_ms:5_000 queued in
        if Protocol.is_terminal l then List.rev (l :: acc)
        else collect (l :: acc)
      in
      check tbool "queued writer completes" true (Client.is_ok (collect []));
      (* the retry lands *)
      let resp = Client.request ~timeout_ms:5_000 shed "INSERT INTO t VALUES (8)" in
      check tbool "retry succeeds" true (Client.is_ok resp);
      List.iter Client.close [ holder; queued; shed ])

let test_quit_and_shutdown () =
  with_server ~config:small_config (fresh_db ()) (fun srv ->
      let c = connect1 srv in
      let resp = Client.request ~timeout_ms:5_000 c "QUIT" in
      check tbool "QUIT -> BYE" true
        (has_prefix ~prefix:"BYE" (Client.terminal resp));
      Client.close c;
      let c2 = connect1 srv in
      ignore (Client.hello ~timeout_ms:5_000 c2);
      Server.shutdown srv;
      check tbool "shutdown -> BYE" true
        (match Client.read_line ~timeout_ms:5_000 c2 with
        | line -> has_prefix ~prefix:"BYE" line
        | exception Client.Closed _ -> true);
      Client.close c2)

(* User text inside an ERR message is never read as a field.  Both
   statements fail with an error that quotes the text. *)
let forged_snapshot = "SELECT CAST('snapshot=99999' AS INTEGER)"
let forged_qid = "INSERT INTO t VALUES ('a qid=zz snapshot=123456')"

let test_forged_fields () =
  with_server (fresh_db ()) (fun srv ->
      let c = connect1 srv in
      let resp = Client.request ~timeout_ms:5_000 c forged_snapshot in
      check tbool "the cast fails" false (Client.is_ok resp);
      check (Alcotest.option tint) "no snapshot from an ERR" None
        (Client.snapshot resp);
      let resp = Client.request ~timeout_ms:5_000 c forged_qid in
      check tbool "the insert fails" false (Client.is_ok resp);
      check (Alcotest.option tstr) "no qid from an ERR" None (qid_of_reply resp);
      check (Alcotest.option tint) "no snapshot either" None
        (Client.snapshot resp);
      Client.close c)

(* A pool that receives such an ERR keeps its floor at the server's real
   version, so its next connection is not refused as stale. *)
let test_pool_forged_snapshot () =
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let sock = Filename.concat dir "s.sock" in
      let srv = Server.create ~db:(fresh_db ()) ~store:None () in
      Server.listen_unix srv sock;
      Fun.protect
        ~finally:(fun () -> Server.shutdown srv)
        (fun () ->
          let pool =
            Client.Pool.create ~retries:2 ~backoff_ms:1 [ Client.Unix_ep sock ]
          in
          let real =
            match Client.snapshot (Client.Pool.request pool "SELECT COUNT(*) FROM t") with
            | Some v -> v
            | None -> Alcotest.fail "no snapshot on the OK"
          in
          ignore (Client.Pool.request pool forged_snapshot);
          check tint "floor stays at the real version" real
            (Client.Pool.last_snapshot pool);
          (* drop the connection: the reconnect's HELLO must pass *)
          Client.Pool.close pool;
          let resp = Client.Pool.request pool "SELECT COUNT(*) FROM t" in
          check tbool "reconnect is not refused as stale" true (Client.is_ok resp);
          Client.Pool.close pool))

(* A line break would split one request into two, and every later reply
   would answer the request before it: the client refuses to send it. *)
let test_line_break_refused () =
  with_server (fresh_db ()) (fun srv ->
      let c = connect1 srv in
      List.iter
        (fun sql ->
          check tbool (String.escaped sql ^ " refused") true
            (match Client.request ~timeout_ms:5_000 c sql with
            | exception Invalid_argument _ -> true
            | _ -> false))
        [ "SELECT a\nFROM t"; "SELECT 1\r"; "SELECT 1\r\nSELECT 2" ];
      List.iter
        (fun (sql, row) ->
          check (Alcotest.list tstr) sql [ row ]
            (List.filter (has_prefix ~prefix:"ROW ")
               (Client.request ~timeout_ms:5_000 c sql)))
        [ ("SELECT 1 + 1", "ROW 2"); ("SELECT 2 + 2", "ROW 4") ];
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Snapshot isolation *)

let test_snapshot_isolation () =
  with_server (fresh_db ()) (fun srv ->
      let writer = connect1 srv in
      let reader = connect1 srv in
      let count c =
        let resp = Client.request ~timeout_ms:5_000 c "SELECT COUNT(*) FROM t" in
        check tbool "count ok" true (Client.is_ok resp);
        match resp with
        | row :: _ -> int_of_string (String.sub row 4 (String.length row - 4))
        | [] -> Alcotest.fail "empty response"
      in
      check tint "baseline" 3 (count reader);
      (* writer opens a transaction and mutates; the reader must keep
         seeing the published snapshot, without blocking *)
      check tbool "BEGIN" true
        (Client.is_ok (Client.request ~timeout_ms:5_000 writer "BEGIN"));
      check tbool "uncommitted insert" true
        (Client.is_ok
           (Client.request ~timeout_ms:5_000 writer "INSERT INTO t VALUES (4)"));
      check tint "reader blind to uncommitted write" 3 (count reader);
      (* writer sees its own write *)
      check tint "writer reads its writes" 4 (count writer);
      let before = Client.snapshot (Client.request ~timeout_ms:5_000 reader "SELECT COUNT(*) FROM t") in
      check tbool "COMMIT" true
        (Client.is_ok (Client.request ~timeout_ms:5_000 writer "COMMIT"));
      check tint "reader sees the commit" 4 (count reader);
      let after = Client.snapshot (Client.request ~timeout_ms:5_000 reader "SELECT COUNT(*) FROM t") in
      (match (before, after) with
      | Some b, Some a -> check tbool "snapshot version advanced" true (a > b)
      | _ -> Alcotest.fail "snapshot versions missing");
      Client.close writer;
      Client.close reader)

let test_rollback_invisible () =
  with_server (fresh_db ()) (fun srv ->
      let c = connect1 srv in
      let ok sql = check tbool sql true (Client.is_ok (Client.request ~timeout_ms:5_000 c sql)) in
      ok "BEGIN";
      ok "INSERT INTO t VALUES (100)";
      ok "ROLLBACK";
      let resp = Client.request ~timeout_ms:5_000 c "SELECT COUNT(*) FROM t" in
      check tstr "rolled back" "ROW 3" (List.hd resp);
      Client.close c)

(* A published table shares storage with the writer's table (a column
   copy is O(1)), so the writer's later appends land in the very buffer a
   reader holds. Every snapshot kept along the way must still read as it
   did when it was loaded: across a capacity doubling of the writer's
   buffer, an UPDATE and a DELETE (which write new tables), and a
   rolled-back transaction whose restored table then takes an INSERT. *)
let test_published_snapshot_intact () =
  let db = Db.create () in
  exec_exn db "CREATE TABLE e (a INTEGER, b INTEGER, w FLOAT, tag VARCHAR)";
  exec_exn db "INSERT INTO e VALUES (1, 2, 0.5, 'x'), (2, NULL, 1.5, NULL), (3, 4, NULL, 'y')";
  with_server db (fun srv ->
      let sched = Server.scheduler srv in
      let load () =
        let session_db = Db.create () in
        ignore
          (Scheduler.refresh_snapshot sched ~session_db ~seen:(Hashtbl.create 4)
             ~last_version:(-1));
        Option.get (Storage.Catalog.find (Db.catalog session_db) "e")
      in
      let writer_table () = Option.get (Storage.Catalog.find (Db.catalog db) "e") in
      let kept = ref [] in
      let keep tbl = kept := (tbl, Storage.Table.to_rows tbl) :: !kept in
      let check_kept step =
        List.iteri
          (fun i (tbl, rows) ->
            check tbool (Printf.sprintf "%s: snapshot %d intact" step i) true
              (List.equal (List.equal V.equal) rows (Storage.Table.to_rows tbl)))
          !kept;
        check tbool (step ^ ": fresh refresh = serial state") true
          (Storage.Table.equal (load ()) (writer_table ()))
      in
      let locked f =
        (match Scheduler.writer_acquire sched with
        | `Ok -> ()
        | `Busy _ -> Alcotest.fail "writer lock busy");
        f ();
        Scheduler.publish sched;
        Scheduler.writer_release sched
      in
      let write sqls = locked (fun () -> List.iter (exec_exn db) sqls) in
      keep (load ());
      for i = 4 to 40 do
        write
          [ Printf.sprintf "INSERT INTO e VALUES (%d, %d, %d.25, 'r%d')" i (i + 1) i i ];
        if i mod 9 = 0 then keep (load ())
      done;
      check_kept "insert burst";
      write [ "UPDATE e SET w = w + 1 WHERE a < 10" ];
      check_kept "update";
      keep (load ());
      write [ "DELETE FROM e WHERE a % 3 = 0" ];
      check_kept "delete";
      (* leaves spare capacity, so the transaction's insert lands in the
         buffer the BEGIN snapshot shares *)
      write [ "INSERT INTO e VALUES (50, 51, 0.0, 'spare')" ];
      keep (load ());
      locked (fun () ->
          exec_exn db "BEGIN";
          exec_exn db "INSERT INTO e VALUES (100, 101, NULL, 'rb')";
          (* the writer's in-transaction table, as a graph index built by
             a read inside the transaction would hold it: the restored
             table must not append into its rows *)
          keep (writer_table ());
          exec_exn db "ROLLBACK");
      check_kept "rollback";
      write [ "INSERT INTO e VALUES (200, 201, 2.5, 'after')" ];
      check_kept "insert after rollback";
      check tint "rows after rollback + insert" 29
        (Storage.Table.nrows (load ())))

(* ------------------------------------------------------------------ *)
(* Group commit: concurrent committers, one fsync per batch *)

let test_group_commit_durability () =
  with_temp_dir (fun dir ->
      let store, db, _ = open_exn dir in
      exec_exn db "CREATE TABLE kv (client INTEGER, v INTEGER)";
      let nclients = 8 and per_client = 5 in
      let srv = Server.create ~db ~store:(Some store) () in
      let acked = Array.make nclients 0 in
      let threads =
        Array.init nclients (fun i ->
            let c = connect1 srv in
            Thread.create
              (fun () ->
                for k = 1 to per_client do
                  let sql =
                    Printf.sprintf "INSERT INTO kv VALUES (%d, %d)" i
                      ((i * 1000) + k)
                  in
                  if Client.is_ok (Client.request ~timeout_ms:30_000 c sql) then
                    acked.(i) <- acked.(i) + 1
                done;
                Client.close c)
              ())
      in
      Array.iter Thread.join threads;
      let reg = Scheduler.metrics (Server.scheduler srv) in
      Server.shutdown srv;
      Wal.close store;
      check tint "every commit acknowledged"
        (nclients * per_client)
        (Array.fold_left ( + ) 0 acked);
      (match Telemetry.Registry.percentiles reg "sqlgraph_server_group_commit_size" with
      | Some p ->
        (* each round counts the commits its fsync covered, so every
           commit is in exactly one round *)
        check tint "histogram saw every commit" (nclients * per_client)
          (int_of_float p.Telemetry.Registry.sum);
        check tbool "rounds <= commits" true (p.Telemetry.Registry.count <= nclients * per_client)
      | None -> Alcotest.fail "group-commit histogram missing");
      (* recovery sees all of them *)
      let store2, db2, _ = open_exn dir in
      check tint "all rows durable" (nclients * per_client) (count_db db2 "kv");
      Wal.close store2)

(* A commit whose bytes ride another session's flush is counted in that
   round even though its own wait finds the target synced and returns at
   once. Sizing a round by the sessions waiting when the leader took over
   missed it (histogram sum 1 for 2 commits). *)
let test_group_commit_piggyback () =
  with_temp_dir (fun dir ->
      let store, db, _ = open_exn dir in
      exec_exn db "CREATE TABLE kv (v INTEGER)";
      let sizes = ref [] in
      let gc =
        Sqlgraph_server.Group_commit.create ~writer:(Mutex.create ()) ~store
          ~observe_group:(fun n -> sizes := n :: !sizes)
      in
      let commit v =
        exec_exn db (Printf.sprintf "INSERT INTO kv VALUES (%d)" v);
        Wal.logical_end store
      in
      let first = commit 1 in
      let second = commit 2 in
      (* the second commit leads a round whose flush carries the first *)
      Sqlgraph_server.Group_commit.wait_durable gc second;
      Sqlgraph_server.Group_commit.wait_durable gc first;
      check (Alcotest.list tint) "one round of two commits" [ 2 ] !sizes;
      Wal.close store)

(* ------------------------------------------------------------------ *)
(* --readonly inspection mode *)

let test_readonly_inspection () =
  with_temp_dir (fun dir ->
      let store, db, _ = open_exn dir in
      exec_exn db "CREATE TABLE t (a INTEGER)";
      exec_exn db "INSERT INTO t VALUES (1), (2)";
      Wal.close store;
      let wal_size path = (Unix.stat path).Unix.st_size in
      let ro_store, ro_db, _ = open_exn ~readonly:true dir in
      let path = Wal.wal_path ro_store in
      let before = wal_size path in
      check tbool "readonly flagged" true (Wal.readonly ro_store);
      check tint "data visible" 2 (count_db ro_db "t");
      (match Db.exec ro_db "INSERT INTO t VALUES (3)" with
      | Error (Sqlgraph.Error.Runtime_error m) ->
        check tbool "refusal names --readonly" true
          (Astring.String.is_infix ~affix:"readonly" m)
      | _ -> Alcotest.fail "DML must be refused in readonly mode");
      (match Db.exec ro_db "CREATE TABLE u (x INTEGER)" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "DDL must be refused in readonly mode");
      check tint "WAL untouched" before (wal_size path);
      (* a second writer can still open the directory afterwards *)
      Wal.close ro_store;
      let store2, db2, _ = open_exn dir in
      exec_exn db2 "INSERT INTO t VALUES (3)";
      check tint "writer unaffected" 3 (count_db db2 "t");
      Wal.close store2)

(* ------------------------------------------------------------------ *)
(* The concurrency fuzzer *)

type cop =
  | CInsert of int (* per-client sequence number *)
  | CRead
  | CBad
  | CTxn of int list * bool (* sequence numbers, commit? *)

type case = {
  plans : cop list array; (* one plan per client *)
  specs : Fault.spec list;
  crash : bool; (* kill -9 at the end instead of graceful shutdown *)
}

let fuzz_sites =
  [|
    "session_read"; "group_fsync"; "accept"; "wal_append"; "checkpoint";
    "shutdown_drain";
  |]

let gen_case rand =
  let open QCheck.Gen in
  let nclients = int_range 2 4 rand in
  let plans =
    Array.init nclients (fun _ ->
        let nops = int_range 3 8 rand in
        let seq = ref 0 in
        List.init nops (fun _ ->
            match int_bound 9 rand with
            | 0 | 1 | 2 | 3 | 4 ->
              incr seq;
              CInsert !seq
            | 5 | 6 -> CRead
            | 7 -> CBad
            | _ ->
              let n = int_range 1 3 rand in
              let seqs =
                List.init n (fun _ ->
                    incr seq;
                    !seq)
              in
              CTxn (seqs, int_bound 3 rand <> 0)))
  in
  let one () =
    let site = fuzz_sites.(int_bound (Array.length fuzz_sites - 1) rand) in
    if bool rand then Fault.At_site site
    else Fault.At_site_after { site; after = int_range 1 10 rand }
  in
  let specs =
    match int_bound 4 rand with
    | 0 -> []
    | 1 -> [ one (); one () ]
    | _ -> [ one () ]
  in
  { plans; specs; crash = int_bound 3 rand = 0 }

let print_case case =
  Printf.sprintf "clients=%d crash=%b specs=[%s]\n%s"
    (Array.length case.plans) case.crash
    (String.concat "; "
       (List.map
          (function
            | Fault.After_checks n -> Printf.sprintf "after=%d" n
            | Fault.At_site s -> Printf.sprintf "site=%s" s
            | Fault.At_site_after { site; after } ->
              Printf.sprintf "site=%s,after=%d" site after)
          case.specs))
    (String.concat "\n"
       (Array.to_list
          (Array.mapi
             (fun i plan ->
               Printf.sprintf "  c%d: %s" (i + 1)
                 (String.concat " "
                    (List.map
                       (function
                         | CInsert s -> Printf.sprintf "ins(%d)" s
                         | CRead -> "read"
                         | CBad -> "bad"
                         | CTxn (ss, commit) ->
                           Printf.sprintf "txn(%s,%s)"
                             (String.concat "," (List.map string_of_int ss))
                             (if commit then "commit" else "rollback"))
                       plan)))
             case.plans)))

module History = Sim.History

(* One scripted client: every reply's snapshot, write and read goes
   into the shared history under the client's session id. *)
let run_client h client_id c plan =
  let session = client_id in
  let req sql =
    let lines = Client.request ~timeout_ms:30_000 c sql in
    History.seen_reply h ~session lines;
    lines
  in
  History.seen_reply h ~session [ Client.hello ~timeout_ms:30_000 c ];
  let value seq = (client_id * 1_000_000) + seq in
  let row v = History.Insert { table = "kv"; key = client_id; value = v } in
  let insert_sql v =
    Printf.sprintf "INSERT INTO kv VALUES (%d, %d)" client_id v
  in
  List.iter
    (fun op ->
      match op with
      | CRead ->
        History.served_read h ~session ~table:"kv" `Count
          (req "SELECT COUNT(*) FROM kv")
      | CBad -> ignore (req "SELEC T )( BOGUS")
      | CInsert seq ->
        let v = value seq in
        ignore (History.served_write h ~session [ row v ] (fun () -> req (insert_sql v)))
      | CTxn (seqs, commit) ->
        let writes = List.map (fun seq -> (row (value seq), insert_sql (value seq))) seqs in
        ignore (History.served_txn h ~session ~commit writes req))
    plan

(* reads and acked writes the history judged, over all cases *)
let fuzz_reads = ref 0
let fuzz_acked = ref 0

let run_fuzz_case case =
  with_temp_dir (fun dir ->
      Fault.clear ();
      let store, db, _ = open_exn dir in
      exec_exn db "CREATE TABLE kv (client INTEGER, v INTEGER)";
      let n = Array.length case.plans in
      let config = { Scheduler.default_config with idle_timeout_ms = 30_000 } in
      let srv = Server.create ~config ~db ~store:(Some store) () in
      let h = History.create () in
      let finished = Array.make n false in
      Fault.set_specs case.specs;
      let threads =
        Array.init n (fun i ->
            let a, b =
              Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
            in
            match Server.attach srv a with
            | () ->
              Some
                (Thread.create
                   (fun () ->
                     let c = Client.of_fd b in
                     Fun.protect
                       ~finally:(fun () ->
                         finished.(i) <- true;
                         Client.close c)
                       (fun () ->
                         try run_client h (i + 1) c case.plans.(i)
                         with Client.Closed _ -> ()))
                   ())
            | exception Fault.Injected _ ->
              (* connection dropped at admission; the client never ran *)
              (try Unix.close b with _ -> ());
              finished.(i) <- true;
              None)
      in
      (* no-hang assertion: every client must finish within the deadline *)
      let deadline = Unix.gettimeofday () +. 60. in
      let all_done () = Array.for_all Fun.id finished in
      while (not (all_done ())) && Unix.gettimeofday () < deadline do
        Thread.yield ();
        Unix.sleepf 0.002
      done;
      if not (all_done ()) then
        QCheck.Test.fail_reportf "clients hung:\n%s" (print_case case);
      if case.crash then Wal.crash_for_testing store;
      Server.shutdown srv;
      Array.iter (function Some th -> Thread.join th | None -> ()) threads;
      Fault.clear ();
      (try Wal.close store with _ -> ());
      match Wal.open_dir dir with
      | Error e ->
        QCheck.Test.fail_reportf "reopen failed: %s\n%s"
          (Sqlgraph.Error.to_string e) (print_case case)
      | Ok (store2, db2, _) ->
        (* the recovered state, judged with everything the clients saw *)
        let recovered =
          match Db.query db2 "SELECT client, v FROM kv" with
          | Ok rs ->
            List.filter_map
              (function [ V.Int k; V.Int v ] -> Some (k, v) | _ -> None)
              (Sqlgraph.Resultset.rows rs)
          | Error e ->
            QCheck.Test.fail_reportf "recovered read: %s"
              (Sqlgraph.Error.to_string e)
        in
        Wal.close store2;
        History.read h ~session:0 History.Final ~table:"kv" (History.Rows recovered);
        let report = History.check h in
        fuzz_reads := !fuzz_reads + History.judged report History.Stale_read;
        fuzz_acked := !fuzz_acked + History.judged report History.Acked_lost;
        match report.History.violations with
        | [] -> true
        | vs ->
          QCheck.Test.fail_reportf "%s\nrecovered={%s}\n%s"
            (String.concat "\n"
               (List.map
                  (fun (inv, msg) -> History.invariant_name inv ^ ": " ^ msg)
                  vs))
            (String.concat ","
               (List.map (fun (_, v) -> string_of_int v) recovered))
            (print_case case))

let test_concurrency_fuzzer =
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"server: concurrency fuzzer" ~count:120
         (QCheck.make ~print:print_case gen_case)
         run_fuzz_case)
  in
  ( name,
    speed,
    fun () ->
      run ();
      if !fuzz_reads = 0 || !fuzz_acked = 0 then
        Alcotest.failf "the history judged %d reads and %d acked writes"
          !fuzz_reads !fuzz_acked )

(* ------------------------------------------------------------------ *)
(* Introspection (DESIGN.md §14): wire query ids and the sqlgraph_stat_*
   system tables over a live server *)

let test_qid_parse () =
  check
    (Alcotest.option tstr)
    "parses"
    (Some "00c0ffee00c0ffee:7")
    (qid_of_reply [ "OK INSERT 1 qid=00c0ffee00c0ffee:7 snapshot=42" ]);
  check (Alcotest.option tstr) "absent" None
    (qid_of_reply [ "OK INSERT 1 snapshot=42" ])

let qid_parts q =
  match String.index_opt q ':' with
  | Some i ->
    ( String.sub q 0 i,
      int_of_string (String.sub q (i + 1) (String.length q - i - 1)) )
  | None -> Alcotest.failf "malformed qid %S" q

let row_cells line =
  String.split_on_char '\t'
    (String.sub line 4 (String.length line - 4))

let test_wire_introspection () =
  with_server (fresh_db ()) (fun srv ->
      let c = connect1 srv in
      let req sql =
        let resp = Client.request ~timeout_ms:5_000 c sql in
        check tbool (sql ^ " ok") true (Client.is_ok resp);
        resp
      in
      let qid_of sql =
        match qid_of_reply (req sql) with
        | Some q -> q
        | None -> Alcotest.failf "no qid on the OK line of %S" sql
      in
      (* qids on every verb; the :<seq> is session-monotone even though
         the statements alternate between the private and shared Db *)
      let qids =
        List.map qid_of
          [
            "SELECT COUNT(*) FROM t";
            "INSERT INTO t VALUES (4)";
            "SELECT COUNT(*) FROM t WHERE a > 1";
            "SELECT COUNT(*) FROM t WHERE a > 2";
          ]
      in
      let seqs = List.map (fun q -> snd (qid_parts q)) qids in
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      check tbool "qid sequence is session-monotone" true (increasing seqs);
      (* the two `a > k` SELECTs differ only in a literal: one shape *)
      let fp_of q = fst (qid_parts q) in
      check tstr "literal-insensitive wire fingerprints"
        (fp_of (List.nth qids 2))
        (fp_of (List.nth qids 3));
      (* the last statement's fingerprint resolves to exactly one row of
         sqlgraph_stat_statements, queried over the same wire *)
      let last_fp = fp_of (List.nth qids 3) in
      let resp =
        req
          "SELECT fingerprint, calls FROM sqlgraph_stat_statements ORDER BY \
           total_ms DESC"
      in
      let rows = List.filter (has_prefix ~prefix:"ROW ") resp in
      check tbool "stat_statements has rows" true (rows <> []);
      let matching =
        List.filter (fun r -> List.hd (row_cells r) = last_fp) rows
      in
      check tint "qid fingerprint resolves to exactly one row" 1
        (List.length matching);
      (match matching with
      | [ r ] -> (
        match row_cells r with
        | [ _; calls ] ->
          check tbool "shared shape accumulated both calls" true
            (int_of_string calls >= 2)
        | cells ->
          Alcotest.failf "unexpected stat row shape: %d cells"
            (List.length cells))
      | _ -> ());
      (* sqlgraph_stat_sessions: one row for this session, whose
         last_qid is the qid the wire reported for the statement that
         ran just before the sessions query *)
      let marker_qid = qid_of "SELECT COUNT(*) FROM t WHERE a > 0" in
      let resp =
        req "SELECT sid, statements, last_qid FROM sqlgraph_stat_sessions"
      in
      (match List.filter (has_prefix ~prefix:"ROW ") resp with
      | [ r ] -> (
        match row_cells r with
        | [ _sid; statements; last_qid ] ->
          check tstr "stat_sessions.last_qid matches the wire qid"
            marker_qid last_qid;
          check tbool "statement count is live" true
            (int_of_string statements >= List.length seqs)
        | cells ->
          Alcotest.failf "unexpected sessions row shape: %d cells"
            (List.length cells))
      | rows -> Alcotest.failf "expected 1 session row, got %d"
                  (List.length rows));
      (* the reserved namespace is refused over the wire *)
      let resp =
        Client.request ~timeout_ms:5_000 c
          "CREATE TABLE sqlgraph_mine (a INTEGER)"
      in
      check tbool "reserved CREATE refused" true
        (has_prefix ~prefix:"ERR bind" (Client.terminal resp));
      Client.close c)

(* A request that does not parse is recorded like any failed statement:
   one failed call under its token-level fingerprint, as Db.exec records
   the same text. *)
let test_wire_parse_error_recorded () =
  with_server (fresh_db ()) (fun srv ->
      let c = connect1 srv in
      let bad = "SELEC a FROM t WHERE a = 1" in
      check tbool "malformed request answered ERR parse" true
        (has_prefix ~prefix:"ERR parse"
           (Client.terminal (Client.request ~timeout_ms:5_000 c bad)));
      let fp = Sql.Fingerprint.to_hex (Sql.Fingerprint.hash bad) in
      let resp =
        Client.request ~timeout_ms:5_000 c
          (Printf.sprintf
             "SELECT calls, failures FROM sqlgraph_stat_statements WHERE \
              fingerprint = '%s'"
             fp)
      in
      check (Alcotest.list (Alcotest.list tstr)) "one failed call"
        [ [ "1"; "1" ] ]
        (List.map row_cells (List.filter (has_prefix ~prefix:"ROW ") resp));
      Client.close c)

(* Two sessions: qid sequences are independently monotone and the
   sessions table shows both rows while both are connected. *)
let test_two_session_qids () =
  with_server (fresh_db ()) (fun srv ->
      let c1 = connect1 srv in
      let c2 = connect1 srv in
      let qid_of c sql =
        let resp = Client.request ~timeout_ms:5_000 c sql in
        check tbool (sql ^ " ok") true (Client.is_ok resp);
        match qid_of_reply resp with
        | Some q -> q
        | None -> Alcotest.failf "no qid on %S" sql
      in
      let s1a = snd (qid_parts (qid_of c1 "SELECT COUNT(*) FROM t")) in
      let _ = qid_of c2 "SELECT COUNT(*) FROM t" in
      let _ = qid_of c2 "SELECT COUNT(*) FROM t WHERE a > 1" in
      let s1b = snd (qid_parts (qid_of c1 "SELECT COUNT(*) FROM t")) in
      check tbool "session 1 qids advance by its own statements only" true
        (s1b = s1a + 1);
      let resp =
        Client.request ~timeout_ms:5_000 c1
          "SELECT sid FROM sqlgraph_stat_sessions ORDER BY sid"
      in
      check tint "two session rows" 2
        (List.length (List.filter (has_prefix ~prefix:"ROW ") resp));
      Client.close c1;
      Client.close c2)

(* ------------------------------------------------------------------ *)
(* Statement logs over the wire: the slow-query log and the
   --json-metrics-append firehose, written by Db.exec_parsed itself *)

(* A server whose Db writes both statement logs, every statement slow. *)
let with_logged_server f =
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let slow = Filename.concat dir "slow.ndjson"
      and fire = Filename.concat dir "fire.ndjson" in
      let db = fresh_db () in
      Db.set_logs db (Db.create_logs ~slow_log:slow ~firehose:fire ());
      Db.set_slow_query_ms db (Some 0);
      with_server db (fun srv -> f srv ~slow ~fire))

(* Every record of an NDJSON log, parsed; a malformed line fails. *)
let log_records path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> List.map (fun line ->
           match Testjson.Json_support.parse_result line with
           | Ok j -> j
           | Error m -> Alcotest.failf "malformed log line %S: %s" line m)

let field name j = Testjson.Json_support.(to_string_opt (member name j))

let record_qid j =
  match field "qid" j with
  | Some q -> q
  | None -> Alcotest.fail "log record without a qid"

let record_ms j =
  match Testjson.Json_support.member "ms" j with
  | Some (Sqlgraph.Metrics.Float f) -> f
  | _ -> Alcotest.fail "log record without a numeric ms"

(* One record per served statement in each log, in order, each naming
   the qid its OK line carried; a failed statement is recorded too. *)
let test_served_statements_logged () =
  with_logged_server (fun srv ~slow ~fire ->
      let c = connect1 srv in
      let stmts =
        [
          "INSERT INTO t VALUES (4)";
          "SELECT COUNT(*) FROM t";
          "SET parallelism = 2";
          "BEGIN";
          "INSERT INTO t VALUES (5)";
          "COMMIT";
          "SELECT nope FROM t";
          "SELECT a FROM t WHERE a > 2 ORDER BY a";
        ]
      in
      let wire =
        List.map (fun sql -> qid_of_reply (Client.request ~timeout_ms:5_000 c sql))
          stmts
      in
      check tint "only the bad column failed" 1
        (List.length (List.filter Option.is_none wire));
      List.iter
        (fun (what, path) ->
          let recs = log_records path in
          check tint (what ^ ": one record per statement") (List.length stmts)
            (List.length recs);
          List.iter2
            (fun w j ->
              match w with
              | Some q -> check tstr (what ^ ": qid of the OK line") q (record_qid j)
              | None -> ignore (record_qid j))
            wire recs)
        [ ("slow log", slow); ("firehose", fire) ];
      let slow_recs = log_records slow and fire_recs = log_records fire in
      check (Alcotest.list (Alcotest.option tstr)) "verdicts"
        (List.map
           (fun w -> Some (if w = None then "error" else "ok"))
           wire)
        (List.map (field "verdict") slow_recs);
      check (Alcotest.list (Alcotest.float 0.)) "both logs carry one ms"
        (List.map record_ms slow_recs) (List.map record_ms fire_recs);
      (* the logged ms is the delta sqlgraph_stat_statements adds up *)
      let last = List.nth slow_recs (List.length stmts - 1) in
      let resp =
        Client.request ~timeout_ms:5_000 c
          (Printf.sprintf
             "SELECT total_ms FROM sqlgraph_stat_statements WHERE fingerprint \
              = '%s'"
             (Option.get (field "fingerprint" last)))
      in
      (match List.filter (has_prefix ~prefix:"ROW ") resp with
      | [ r ] ->
        check (Alcotest.float 0.) "stat total_ms = logged ms" (record_ms last)
          (float_of_string (String.sub r 4 (String.length r - 4)))
      | rows -> Alcotest.failf "expected one stat row, got %d" (List.length rows));
      Client.close c)

(* The trace's "statement" span names the qid the wire reported, for a
   write on the shared Db and a read on the session's private one. *)
let test_trace_qid_matches_wire () =
  let db = fresh_db () in
  Telemetry.Trace.configure ~capacity:4096;
  Telemetry.Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.Trace.set_enabled false)
  @@ fun () ->
  with_server db (fun srv ->
      let c = connect1 srv in
      let qid sql =
        match qid_of_reply (Client.request ~timeout_ms:5_000 c sql) with
        | Some q -> q
        | None -> Alcotest.failf "no qid on %S" sql
      in
      let wire =
        List.map qid [ "INSERT INTO t VALUES (4)"; "SELECT COUNT(*) FROM t" ]
      in
      let spans =
        List.filter_map
          (fun (e : Telemetry.Trace.event) ->
            if e.ev_kind = Telemetry.Trace.Begin && e.ev_name = "statement"
            then List.assoc_opt "qid" e.ev_attrs
            else None)
          (Telemetry.Trace.events ())
      in
      check (Alcotest.list tstr) "statement span qids = wire qids" wire spans;
      Client.close c)

(* Two sessions writing and reading at once: each log holds exactly one
   whole, well-formed line per statement, and the records' qids are the
   wire's. *)
let test_concurrent_sessions_share_logs () =
  let n = 40 in
  with_logged_server (fun srv ~slow ~fire ->
      let run me () =
        let c = connect1 srv in
        let qids =
          List.init n (fun i ->
              let sql =
                if i mod 4 = 0 then
                  Printf.sprintf "INSERT INTO t VALUES (%d)" ((100 * me) + i)
                else Printf.sprintf "SELECT COUNT(*) FROM t WHERE a > %d" i
              in
              qid_of_reply (Client.request ~timeout_ms:10_000 c sql))
        in
        Client.close c;
        qids
      in
      let results = Array.make 2 [] in
      let threads =
        Array.init 2 (fun me ->
            Thread.create (fun () -> results.(me) <- run me ()) ())
      in
      Array.iter Thread.join threads;
      let wire = List.concat (Array.to_list results) in
      check tint "every statement answered OK" (2 * n)
        (List.length (List.filter Option.is_some wire));
      let sorted l = List.sort compare l in
      List.iter
        (fun (what, path) ->
          let recs = log_records path in
          check tint (what ^ ": 2N lines") (2 * n) (List.length recs);
          check (Alcotest.list tstr) (what ^ ": the wire's qids")
            (sorted (List.filter_map Fun.id wire))
            (sorted (List.map record_qid recs)))
        [ ("slow log", slow); ("firehose", fire) ])

(* A served DOUBLE reads back bit-exact, and so does its CAST to
   VARCHAR: both are Value.float_text. *)
let test_served_double_exact () =
  with_server (fresh_db ()) (fun srv ->
      let c = connect1 srv in
      List.iter
        (fun x ->
          let sql =
            Printf.sprintf
              "SELECT CAST(%.17g AS DOUBLE) AS x, CAST(CAST(%.17g AS DOUBLE) AS \
               VARCHAR) AS s"
              x x
          in
          match List.filter (has_prefix ~prefix:"ROW ") (Client.request c sql) with
          | [ r ] -> (
            match row_cells r with
            | [ text; display ] ->
              check (Alcotest.float 0.) (sql ^ " reads back") x
                (float_of_string text);
              check tstr "CAST to VARCHAR is the exact text"
                (V.float_text x) display
            | _ -> Alcotest.failf "%s: unexpected row %S" sql r)
          | _ -> Alcotest.failf "%s: expected one row" sql)
        [ 0.1234567891; 0.1 +. 0.2; 1. /. 3.; 123456789.5; -2.5e-8; 1e300; 3.03 ];
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Concurrent readers of one cached graph *)

(* Shortest-path cost by a plain Dijkstra over an adjacency array, with a
   set of (dist, vertex) as the queue — independent of the engine. *)
let reference_dijkstra adj ~src ~dst =
  let module S = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let dist = Hashtbl.create 64 in
  Hashtbl.replace dist src 0;
  let rec loop q =
    match S.min_elt_opt q with
    | None -> None
    | Some ((d, u) as top) ->
      let q = S.remove top q in
      if u = dst then Some d
      else if d > Hashtbl.find dist u then loop q
      else
        loop
          (List.fold_left
             (fun q (v, w) ->
               let c = d + w in
               match Hashtbl.find_opt dist v with
               | Some old when old <= c -> q
               | _ ->
                 Hashtbl.replace dist v c;
                 S.add (c, v) q)
             q adj.(u))
  in
  loop (S.singleton (0, src))

(* Two sessions share the runtime the graph index caches. Each sends a
   stream of Q13 (BFS) and Q14 (Dijkstra) reads; every reply must equal
   the reference answer. Searches that shared one workspace between
   sessions interleaved at thread switches and came back wrong or failed
   with "index out of bounds". *)
let test_concurrent_cached_readers () =
  let n = 6000 and m = 80_000 in
  let rng = Random.State.make [| 12 |] in
  let edges =
    Array.init m (fun _ ->
        ( Random.State.int rng n,
          Random.State.int rng n,
          1 + Random.State.int rng 100 ))
  in
  let table =
    Storage.Table.of_rows
      (Storage.Schema.of_pairs
         [
           ("a", Storage.Dtype.TInt); ("b", Storage.Dtype.TInt);
           ("w", Storage.Dtype.TInt);
         ])
      (Array.to_list
         (Array.map (fun (a, b, w) -> [ V.Int a; V.Int b; V.Int w ]) edges))
  in
  let adj = Array.make n [] in
  Array.iter (fun (a, b, w) -> adj.(a) <- (b, w) :: adj.(a)) edges;
  let bfs = Baselines.Native_bfs.of_table table ~src_col:"a" ~dst_col:"b" in
  let pairs =
    Array.init 40 (fun _ ->
        let s = Random.State.int rng n in
        (s, (s + 1 + Random.State.int rng (n - 1)) mod n))
  in
  let expect answer =
    match answer with Some c -> [ Printf.sprintf "ROW %d" c ] | None -> []
  in
  let stream =
    Array.to_list pairs
    |> List.concat_map (fun (s, d) ->
           [
             ( Printf.sprintf
                 "SELECT CHEAPEST SUM(1) WHERE %d REACHES %d OVER e EDGE (a, b)"
                 s d,
               expect (Baselines.Native_bfs.distance bfs ~source:s ~target:d) );
             ( Printf.sprintf
                 "SELECT CHEAPEST SUM(x: w) WHERE %d REACHES %d OVER e x EDGE \
                  (a, b)"
                 s d,
               expect (reference_dijkstra adj ~src:s ~dst:d) );
           ])
    |> Array.of_list
  in
  let db = Db.create () in
  Db.load_table db ~name:"e" table;
  (match Db.create_graph_index db ~table:"e" ~src:"a" ~dst:"b" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "index: %s" (Sqlgraph.Error.to_string e));
  with_server db (fun srv ->
      let per_session = 250 in
      let failures = Array.make 2 [] in
      let threads =
        Array.init 2 (fun k ->
            let c = connect1 srv in
            Thread.create
              (fun () ->
                for i = 0 to per_session - 1 do
                  let sql, rows =
                    stream.(((k * 7) + i) mod Array.length stream)
                  in
                  let resp = Client.request ~timeout_ms:30_000 c sql in
                  let got = List.filter (has_prefix ~prefix:"ROW ") resp in
                  if not (Client.is_ok resp && got = rows) then
                    failures.(k) <-
                      (sql ^ " -> " ^ String.concat " | " resp) :: failures.(k)
                done;
                Client.close c)
              ())
      in
      Array.iter Thread.join threads;
      let all = failures.(0) @ failures.(1) in
      check tint
        (match all with
        | [] -> "every reply matches the reference"
        | first :: _ -> "wrong or failed replies, e.g. " ^ first)
        0 (List.length all))

(* ------------------------------------------------------------------ *)

let () =
  (* sessions write to sockets the peer may have closed; surface that as
     EPIPE (handled) rather than a process-killing signal *)
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "server"
    [
      ( "protocol",
        [
          test_escape_roundtrip;
          Alcotest.test_case "terminal lines" `Quick test_terminal_lines;
          Alcotest.test_case "snapshot parse" `Quick test_snapshot_parse;
          test_lines_any_split;
          Alcotest.test_case "8 MiB line reads linearly" `Quick
            test_long_line_linear;
          test_reply_roundtrip;
          test_repl_roundtrip;
          Alcotest.test_case "request classes" `Quick test_request_classes;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "oversized line" `Quick test_oversized_line;
          Alcotest.test_case "oversized streamed" `Quick test_oversized_streamed;
          Alcotest.test_case "garbage bytes" `Quick test_garbage_bytes;
          Alcotest.test_case "half-closed socket" `Quick test_half_closed_socket;
          Alcotest.test_case "idle timeout" `Quick test_idle_timeout;
          Alcotest.test_case "session cap" `Quick test_session_cap;
          Alcotest.test_case "load shed" `Quick test_load_shed;
          Alcotest.test_case "load shed retry (virtual clock)" `Quick
            test_load_shed_retry;
          Alcotest.test_case "quit and shutdown" `Quick test_quit_and_shutdown;
          Alcotest.test_case "forged fields in an ERR" `Quick test_forged_fields;
          Alcotest.test_case "pool ignores a forged snapshot" `Quick
            test_pool_forged_snapshot;
          Alcotest.test_case "line break refused" `Quick test_line_break_refused;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolation;
          Alcotest.test_case "rollback invisible" `Quick test_rollback_invisible;
          Alcotest.test_case "published snapshot stays intact" `Quick
            test_published_snapshot_intact;
          Alcotest.test_case "concurrent readers of a cached graph" `Quick
            test_concurrent_cached_readers;
        ] );
      ( "durability",
        [
          Alcotest.test_case "group commit" `Quick test_group_commit_durability;
          Alcotest.test_case "group commit counts piggy-backed commits" `Quick
            test_group_commit_piggyback;
          Alcotest.test_case "readonly inspection" `Quick test_readonly_inspection;
        ] );
      ( "introspection",
        [
          Alcotest.test_case "qid parse" `Quick test_qid_parse;
          Alcotest.test_case "wire qids + stat tables" `Quick
            test_wire_introspection;
          Alcotest.test_case "two-session qids" `Quick test_two_session_qids;
          Alcotest.test_case "parse error recorded" `Quick
            test_wire_parse_error_recorded;
          Alcotest.test_case "served statements logged" `Quick
            test_served_statements_logged;
          Alcotest.test_case "trace qid matches the wire" `Quick
            test_trace_qid_matches_wire;
          Alcotest.test_case "concurrent sessions share the logs" `Quick
            test_concurrent_sessions_share_logs;
          Alcotest.test_case "served DOUBLE reads back exact" `Quick
            test_served_double_exact;
        ] );
      ("fuzz", [ test_concurrency_fuzzer ]);
    ]
