(* Deterministic discrete-event workload driver (ROADMAP "workload
   simulator + scale-up stress tier").

   N virtual clients sit in a binary-heap event queue over a virtual
   clock (Event_queue).  Popping a client's event draws the next
   statement from that client's seeded SplitMix stream — single-pair
   CHEAPEST, batched pairs tables, kv INSERT/DELETE bursts, UNNEST path
   queries, BEGIN..COMMIT/ROLLBACK transactions, checkpoints, reconnect
   churn, rare edge DML, and governed statements with a tiny budget —
   executes it against the chosen backend, and reschedules the client at
   now + think time.  Think times are drawn from the same streams, so
   the full event trace (virtual time, client, class, SQL) is a pure
   function of the config: the run folds it into a CRC32 chain and two
   runs with the same seed must produce the same digest.

   Wall-clock statement latency never feeds back into virtual time — it
   only goes into a Telemetry.Registry histogram per statement class, so
   the run reports p50/p99/max without perturbing the trace.

   Invariants: the driver records every write, every served snapshot
   and its reconciliation reads into a History and judges it once, at
   the end (History.check; violations are collected, never fatal — the
   report carries them).  Acked writes carry the rows they wrote and the
   count they reported, so the history checks row-count conservation,
   that acked commits survive the scripted kill-and-recover (the Inproc
   backend runs the WAL with fsync on: with --no-fsync the log batches
   appends in a userspace arena, so a kill would legally lose a suffix
   of acked statements), that rolled-back transactions never appear,
   that every session's snapshot is monotone across reconnects, and
   that each read returns the serial state at its version.  What a
   class expects of its outcome — the governed class must fail with
   resource:rows where the backend governs one statement, ordinary
   statements must not fail — is checked here and recorded as
   unexpected when it does not hold. *)

module V = Storage.Value
module Db = Sqlgraph.Db
module Wal = Sqlgraph.Wal
module Governor = Sqlgraph.Governor
module Error = Sqlgraph.Error
module Registry = Telemetry.Registry
module Server = Sqlgraph_server.Server
module Client = Sqlgraph_server.Client
module Protocol = Sqlgraph_server.Protocol
module Scheduler = Sqlgraph_server.Scheduler

type backend = Inproc | Server_sessions
type tier = Small | Medium | Large

type config = {
  backend : backend;
  seed : int;
  clients : int;
  statements : int;  (* stop once this many virtual statements executed *)
  persons : int;
  friendships : int;  (* directed edges requested from the generator *)
  batch_pairs : int;  (* rows in each client's pairs table *)
  kv_keys : int;  (* key range of the DML-burst table *)
  kill_at : int option;  (* Inproc: crash+recover after this many statements *)
  data_dir : string option;  (* Inproc WAL root; None = fresh temp dir *)
  domains : int;  (* SET parallelism applied to every backend db *)
}

let config_of_tier ?(backend = Inproc) ?(seed = 20170519) ?(domains = 1) tier =
  match tier with
  | Small ->
    {
      backend;
      seed;
      domains;
      clients = 4;
      statements = 50_000;
      persons = 400;
      friendships = 3_000;
      batch_pairs = 16;
      kv_keys = 128;
      kill_at = Some 25_000;
      data_dir = None;
    }
  | Medium ->
    {
      backend;
      seed;
      domains;
      clients = 8;
      statements = 1_000_000;
      persons = 2_000;
      friendships = 16_000;
      batch_pairs = 32;
      kv_keys = 512;
      kill_at = Some 500_000;
      data_dir = None;
    }
  | Large ->
    (* SF100-class: the paper's 448k persons / 40M directed edges —
       the size that pushes the CSR past Csr.auto_compact_threshold
       and onto the packed slot arrays. *)
    {
      backend;
      seed;
      domains;
      clients = 16;
      statements = 2_000_000;
      persons = 448_000;
      friendships = 39_998_000;
      batch_pairs = 64;
      kv_keys = 4_096;
      kill_at = Some 1_000_000;
      data_dir = None;
    }

(* ------------------------------------------------------------------ *)
(* Statement classes *)

type cls =
  | Point
  | Batch
  | Insert_kv
  | Delete_kv
  | Unnest
  | Txn
  | Governed
  | Checkpoint
  | Reconnect
  | Edge_dml

let cls_name = function
  | Point -> "point"
  | Batch -> "batch"
  | Insert_kv -> "insert_kv"
  | Delete_kv -> "delete_kv"
  | Unnest -> "unnest"
  | Txn -> "txn"
  | Governed -> "governed"
  | Checkpoint -> "checkpoint"
  | Reconnect -> "reconnect"
  | Edge_dml -> "edge_dml"

(* weights per mille; DML bursts dominate so a million-statement run
   stays tractable, path queries exercise the graph engine, and the
   rare classes (checkpoint, reconnect, edge DML) fire hundreds of
   times over a medium run without dominating it *)
let mix =
  [
    (Point, 150);
    (Batch, 8);
    (Insert_kv, 350);
    (Delete_kv, 260);
    (Unnest, 25);
    (Txn, 50);
    (Governed, 25);
    (Checkpoint, 2);
    (Reconnect, 5);
    (Edge_dml, 2);
  ]

let mix_total = List.fold_left (fun a (_, w) -> a + w) 0 mix

let pick_cls rng =
  let r = Datagen.Splitmix.int rng ~bound:mix_total in
  let rec go acc = function
    | [] -> Point
    | (c, w) :: rest -> if r < acc + w then c else go (acc + w) rest
  in
  go 0 mix

(* mean virtual think time per class, seconds; jittered 0.5x..1.5x from
   the client's stream so event interleaving is irregular but exactly
   reproducible *)
let think_mean = function
  | Point -> 0.005
  | Batch -> 0.050
  | Insert_kv -> 0.001
  | Delete_kv -> 0.001
  | Unnest -> 0.010
  | Txn -> 0.020
  | Governed -> 0.005
  | Checkpoint -> 0.100
  | Reconnect -> 0.050
  | Edge_dml -> 0.020

let think cls rng =
  think_mean cls *. (0.5 +. Datagen.Splitmix.float rng)

let point_sql s d =
  Printf.sprintf
    "SELECT CHEAPEST SUM(1) WHERE %d REACHES %d OVER friends EDGE (src, dst)"
    s d

let unnest_sql s d =
  Printf.sprintf
    "SELECT R.ordinality, R.src, R.dst FROM (SELECT CHEAPEST SUM(e: 1) AS \
     (c, p) WHERE %d REACHES %d OVER friends e EDGE (src, dst)) T, \
     UNNEST(T.p) WITH ORDINALITY AS R"
    s d

let batch_sql cid =
  Printf.sprintf
    "SELECT s, d, CHEAPEST SUM(1) AS c FROM pairs_c%d WHERE s REACHES d \
     OVER friends EDGE (src, dst)"
    cid

(* ------------------------------------------------------------------ *)
(* Report *)

type class_stats = {
  cls : string;
  count : int;
  mean : float;
  p50 : float;
  p99 : float;
  lat_max : float;
}

type report = {
  statements : int;
  events : int;
  virtual_seconds : float;
  wall_seconds : float;
  violation_count : int;
  violations : string list;  (* first few, for the console *)
  judged : (string * int) list;  (* events each invariant judged *)
  digest : int;  (* CRC32 chain over the generated event trace *)
  outcome_digest : int;  (* ... and over outcome summaries *)
  recoveries : int;
  checkpoints : int;
  reconnects : int;
  classes : class_stats list;
  vertices : int;
  edges : int;
}

(* ------------------------------------------------------------------ *)
(* Replies *)

(* The outcome summary folded into the outcome digest, rendered from a
   reply's decoded terminal line: "ok:rows=<n>", "ok:ins=<n>",
   "ok:del=<n>", "ok", "err:resource:<kind>" or "err". *)
let summary lines =
  match Protocol.decode_reply (Client.terminal lines) with
  | Some (Protocol.Ok { rows = Some n; _ }) -> Printf.sprintf "ok:rows=%d" n
  | Some (Protocol.Ok { verb = "INSERT"; count = Some n; _ }) ->
    Printf.sprintf "ok:ins=%d" n
  | Some (Protocol.Ok { verb = "DELETE"; count = Some n; _ }) ->
    Printf.sprintf "ok:del=%d" n
  | Some (Protocol.Ok _) -> "ok"
  | Some (Protocol.Err { category; _ })
    when String.starts_with ~prefix:"resource:" category ->
    "err:" ^ category
  | _ -> "err"

let mutate_graph db ~ids ~seed ~statements =
  (* Seeded DML burst over the friends edge table — the mutation shape
     the simulator's Edge_dml class applies, packaged for the
     cross-engine byte-identity regression test. *)
  let rng = Datagen.Splitmix.create ~seed in
  let m = Array.length ids in
  for _ = 1 to statements do
    let a = ids.(Datagen.Splitmix.int rng ~bound:m) in
    let b = ids.(Datagen.Splitmix.int rng ~bound:m) in
    let sql =
      if Datagen.Splitmix.int rng ~bound:3 = 0 then
        Printf.sprintf "DELETE FROM friends WHERE src = %d AND dst = %d" a b
      else
        Printf.sprintf
          "INSERT INTO friends VALUES (%d, %d, '2012-06-01', 1.0)" a b
    in
    match Db.exec db sql with
    | Ok _ -> ()
    | Error e -> failwith ("mutate_graph: " ^ Error.to_string e)
  done

(* ------------------------------------------------------------------ *)
(* Backends *)

type inproc = {
  mutable store : Wal.t;
  mutable db : Db.t;
  dir : string;
  mutable version : int;
      (* the serial version: one per autocommit write or COMMIT *)
}

type exec_ctx =
  | In_ctx of inproc
  | Srv_ctx of Server.t * Client.t array

(* ------------------------------------------------------------------ *)
(* The run *)

let fresh_temp_dir () =
  let path = Filename.temp_file "sqlgraph-sim" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let connect srv =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Server.attach srv a;
  Client.of_fd b

let run cfg =
  if cfg.clients < 1 then invalid_arg "Sim: clients < 1";
  (* reconnect churn writes into sockets the peer may already have
     closed; surface that as EPIPE, not a process kill *)
  if Sys.os_type = "Unix" then
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let graph =
    Datagen.Snb.generate_custom ~persons:cfg.persons
      ~friendships:cfg.friendships ~seed:cfg.seed ()
  in
  let ids = Datagen.Snb.person_ids graph in
  let nids = Array.length ids in
  let registry = Registry.create () in
  let history = History.create () in
  History.preload history ~table:"friends" graph.Datagen.Snb.n_directed_edges;
  let unexpected cid fmt = Printf.ksprintf (History.unexpected history ~session:cid) fmt in
  let recoveries = ref 0 in
  let checkpoints = ref 0 in
  let reconnects = ref 0 in
  let digest = ref 0 in
  let outcome_digest = ref 0 in
  let chain d s = d := Wal.crc32 (Printf.sprintf "%08x|%s" !d s) in
  let observe cls dt =
    Registry.observe registry ("sim_" ^ cls_name cls ^ "_seconds") dt
      ~help:"Simulated statement latency"
  in
  (* per-client pairs tables, preloaded once: the batched workload *)
  let pairs_tables =
    Array.init cfg.clients (fun i ->
        Datagen.Workload.pairs_table
          (Datagen.Workload.random_pairs
             ~seed:(cfg.seed + 101 + i)
             ~ids cfg.batch_pairs))
  in
  let load_base db =
    Db.load_table db ~name:"persons" graph.Datagen.Snb.persons;
    Db.load_table db ~name:"friends" graph.Datagen.Snb.friends;
    Array.iteri
      (fun i t -> Db.load_table db ~name:(Printf.sprintf "pairs_c%d" i) t)
      pairs_tables;
    (match Db.exec db "CREATE TABLE kv (k INTEGER, v INTEGER)" with
    | Ok _ -> ()
    | Error e -> failwith ("sim setup: " ^ Error.to_string e));
    match Db.create_graph_index db ~table:"friends" ~src:"src" ~dst:"dst" with
    | Ok () -> ()
    | Error e -> failwith ("sim setup index: " ^ Error.to_string e)
  in
  let own_dir = cfg.data_dir = None in
  let dir =
    match cfg.data_dir with Some d -> d | None -> fresh_temp_dir ()
  in
  let cleanup_ctx = ref (fun () -> ()) in
  let finally () =
    !cleanup_ctx ();
    if own_dir then Sqlgraph.Persist.rm_rf dir
  in
  Fun.protect ~finally (fun () ->
      let ctx =
        match cfg.backend with
        | Inproc -> (
          match Wal.open_dir ~fsync:true dir with
          | Error e -> failwith ("sim open_dir: " ^ Error.to_string e)
          | Ok (store, db, _) ->
            Db.set_parallelism db cfg.domains;
            load_base db;
            (* checkpoint the bulk-loaded base state: load_table skips
               the log, so recovery must start from this snapshot *)
            (match Wal.checkpoint store db with
            | Ok () -> ()
            | Error e -> failwith ("sim checkpoint: " ^ Error.to_string e));
            let ip = { store; db; dir; version = 0 } in
            cleanup_ctx := (fun () -> try Wal.close ip.store with _ -> ());
            In_ctx ip)
        | Server_sessions ->
          let db = Db.create () in
          Db.set_parallelism db cfg.domains;
          load_base db;
          let config =
            {
              Scheduler.default_config with
              max_sessions = cfg.clients + 4;
              write_high_water = cfg.clients + 4;
            }
          in
          let srv = Server.create ~config ~db ~store:None () in
          let clients = Array.init cfg.clients (fun _ -> connect srv) in
          (* reconnects replace entries in place: close what is current *)
          cleanup_ctx :=
            (fun () ->
              Array.iter (fun c -> try Client.close c with _ -> ()) clients;
              Server.shutdown srv);
          Srv_ctx (srv, clients)
      in
      (* ---- one statement, either backend: the reply lines the wire
         carries, the in-process outcome rendered as the server would *)
      let exec ?budget cid sql =
        match ctx with
        | In_ctx ip -> (
          match Db.exec ip.db ?budget sql with
          | Ok o ->
            let commits =
              match o with
              | Db.Committed -> true
              | Db.Inserted _ | Db.Deleted _ | Db.Updated _ ->
                not (Db.in_transaction ip.db)
              | _ -> false
            in
            if commits then ip.version <- ip.version + 1;
            Protocol.ok_outcome ~snapshot:ip.version o
          | Error e -> [ Protocol.err e ])
        | Srv_ctx (_, clients) -> (
          (* the server's budget is config-wide: [budget] is not sent;
             only served sessions have snapshots of their own to judge *)
          match Client.request ~timeout_ms:60_000 clients.(cid) sql with
          | lines ->
            History.seen_reply history ~session:cid lines;
            lines
          | exception Client.Closed m ->
            unexpected cid "session died: %s" m;
            [])
      in
      let governs = match ctx with In_ctx _ -> true | Srv_ctx _ -> false in
      let hello cid =
        match ctx with
        | Srv_ctx (_, clients) -> (
          match Client.hello ~timeout_ms:60_000 clients.(cid) with
          | line -> History.seen_reply history ~session:cid [ line ]
          | exception Client.Closed m -> unexpected cid "no greeting: %s" m)
        | In_ctx _ -> ()
      in
      for cid = 0 to cfg.clients - 1 do
        hello cid
      done;
      (* the reconciliation reads: the tables' counts (kv's rows at the
         end and after recovery), judged by the history's read rule *)
      let reconcile ?(rows = false) site =
        let read table shape sql =
          let lines = exec 0 sql in
          if not (Client.is_ok lines) then
            unexpected 0 "%s: %s answered %s" site sql (summary lines);
          History.served_read history ~session:0 ~table shape lines
        in
        if rows then read "kv" `Rows "SELECT k, v FROM kv"
        else read "kv" `Count "SELECT COUNT(*) FROM kv";
        read "friends" `Count "SELECT COUNT(*) FROM friends"
      in
      (* the backend-specific rare events: a checkpoint event checkpoints
         the WAL in process and reconciles over the wire (no
         meta-commands there); a reconnect event reconciles in process
         and closes + reattaches the session over the wire, whose new
         greeting the history judges for snapshot monotonicity *)
      let checkpoint_event cid =
        match ctx with
        | In_ctx ip ->
          (match Wal.checkpoint ip.store ip.db with
          | Ok () -> incr checkpoints
          | Error e -> unexpected cid "checkpoint failed: %s" (Error.to_string e));
          "\\checkpoint"
        | Srv_ctx _ ->
          reconcile "checkpoint";
          incr checkpoints;
          "\\reconcile"
      in
      let reconnect_event cid =
        incr reconnects;
        match ctx with
        | In_ctx _ ->
          reconcile "reconnect";
          "\\reconcile"
        | Srv_ctx (srv, clients) ->
          (try Client.close clients.(cid) with _ -> ());
          clients.(cid) <- connect srv;
          hello cid;
          "\\reconnect"
      in
      (* ---- the event loop ------------------------------------------- *)
      let q = Event_queue.create () in
      let rngs =
        Array.init cfg.clients (fun i ->
            Datagen.Splitmix.create ~seed:(cfg.seed + (7919 * (i + 1))))
      in
      for i = 0 to cfg.clients - 1 do
        Event_queue.push q ~time:(float_of_int i *. 1e-4) i
      done;
      let executed = ref 0 in
      let events = ref 0 in
      let vclock = ref 0. in
      let killed = ref false in
      let t_wall0 = Unix.gettimeofday () in
      let maybe_kill () =
        match (cfg.kill_at, ctx) with
        | Some at, In_ctx ip when (not !killed) && !executed >= at ->
          killed := true;
          chain digest "KILL";
          (* the kill -9 shape: drop the fd mid-run, no flush, then
             recover the directory; the reads after it must find every
             acked write *)
          Wal.crash_for_testing ip.store;
          (match Wal.open_dir ~fsync:true ip.dir with
          | Error e -> unexpected 0 "recovery failed: %s" (Error.to_string e)
          | Ok (store', db', _) ->
            (* parallelism is session state, not durable state: re-apply
               it to the recovered db *)
            Db.set_parallelism db' cfg.domains;
            ip.store <- store';
            ip.db <- db';
            cleanup_ctx := (fun () -> try Wal.close store' with _ -> ());
            (match
               Db.create_graph_index db' ~table:"friends" ~src:"src" ~dst:"dst"
             with
            | Ok () -> ()
            | Error e -> unexpected 0 "post-recovery index: %s" (Error.to_string e));
            incr recoveries;
            reconcile ~rows:true "kill-and-recover")
        | Some _, Srv_ctx _ | Some _, In_ctx _ | None, _ -> ()
      in
      let exec_one cid cls =
        let rng = rngs.(cid) in
        let pick_id () = ids.(Datagen.Splitmix.int rng ~bound:nids) in
        let pick_pair () =
          let s = pick_id () in
          let rec other tries =
            let d = pick_id () in
            if d <> s || tries > 8 then d else other (tries + 1)
          in
          (s, other 0)
        in
        let kv_insert () =
          let k = Datagen.Splitmix.int rng ~bound:cfg.kv_keys in
          let v = Datagen.Splitmix.int rng ~bound:1_000_000 in
          ( History.Insert { table = "kv"; key = k; value = v },
            Printf.sprintf "INSERT INTO kv VALUES (%d, %d)" k v )
        in
        let expect_ok what lines =
          if not (Client.is_ok lines) then
            unexpected cid "%s failed: %s" what (summary lines)
        in
        (* a write: acked at its snapshot with the count it reported *)
        let write effects sql =
          let lines =
            History.served_write history ~session:cid effects (fun () ->
                exec cid sql)
          in
          expect_ok (cls_name cls) lines;
          (sql, summary lines, 1)
        in
        match cls with
        | Point | Unnest ->
          let s, d = pick_pair () in
          let sql = if cls = Point then point_sql s d else unnest_sql s d in
          let lines = exec cid sql in
          expect_ok (cls_name cls) lines;
          (sql, summary lines, 1)
        | Batch ->
          let sql = batch_sql cid in
          let lines = exec cid sql in
          (match Protocol.decode_reply (Client.terminal lines) with
          | Some (Protocol.Ok { rows = Some n; _ }) when n > cfg.batch_pairs ->
            unexpected cid "batch returned %d rows for %d pairs" n cfg.batch_pairs
          | Some (Protocol.Ok _) -> ()
          | _ -> unexpected cid "batch failed: %s" (summary lines));
          (sql, summary lines, 1)
        | Insert_kv ->
          let effect, sql = kv_insert () in
          write [ effect ] sql
        | Delete_kv ->
          let k = Datagen.Splitmix.int rng ~bound:cfg.kv_keys in
          write
            [ History.Delete { table = "kv"; key = k } ]
            (Printf.sprintf "DELETE FROM kv WHERE k = %d" k)
        | Edge_dml ->
          let s, d = pick_pair () in
          write
            [ History.Insert { table = "friends"; key = s; value = d } ]
            (Printf.sprintf "INSERT INTO friends VALUES (%d, %d, '2012-06-01', 1.0)"
               s d)
        | Txn ->
          let n_inner = 1 + Datagen.Splitmix.int rng ~bound:4 in
          let commit = Datagen.Splitmix.int rng ~bound:4 > 0 in
          let inner = List.init n_inner (fun _ -> kv_insert ()) in
          let ok = History.served_txn history ~session:cid ~commit inner (exec cid) in
          if not ok then unexpected cid "txn statement failed";
          let stmts =
            ("BEGIN" :: List.map snd inner) @ [ (if commit then "COMMIT" else "ROLLBACK") ]
          in
          (String.concat "; " stmts, (if ok then "ok" else "err"), List.length stmts)
        | Governed ->
          (* tiny budget must trip: pairs_c<cid> has batch_pairs >= 2
             rows, the budget allows 1; a backend that cannot govern one
             statement (the server's budget is config-wide) must answer
             it in full *)
          let budget = Governor.budget ~max_rows:1 () in
          let sql = Printf.sprintf "SELECT s, d FROM pairs_c%d" cid in
          let lines = exec ~budget cid sql in
          (match Protocol.decode_reply (Client.terminal lines) with
          | Some (Protocol.Err { category = "resource:rows"; _ }) when governs -> ()
          | Some (Protocol.Ok _) when not governs -> ()
          | Some (Protocol.Ok _) -> unexpected cid "governed statement was not limited"
          | _ -> unexpected cid "governed statement: unexpected %s" (summary lines));
          (sql, summary lines, 1)
        | Checkpoint -> (checkpoint_event cid, "ok", 1)
        | Reconnect -> (reconnect_event cid, "ok", 1)
      in
      let rec loop () =
        if !executed < cfg.statements then
          match Event_queue.pop q with
          | None -> ()
          | Some (t, cid) ->
            vclock := t;
            maybe_kill ();
            let rng = rngs.(cid) in
            let cls = pick_cls rng in
            let t0 = Unix.gettimeofday () in
            let sql, summary, nstmts = exec_one cid cls in
            let dt = Unix.gettimeofday () -. t0 in
            observe cls dt;
            chain digest
              (Printf.sprintf "%.6f|%d|%s|%s" t cid (cls_name cls) sql);
            chain outcome_digest summary;
            executed := !executed + nstmts;
            incr events;
            Event_queue.push q ~time:(t +. think cls rng) cid;
            loop ()
      in
      loop ();
      (* end-of-run reconciliation closes the books *)
      reconcile ~rows:true "final";
      let wall = Unix.gettimeofday () -. t_wall0 in
      let verdict = History.check history in
      let classes =
        List.filter_map
          (fun (c, _) ->
            match
              Registry.percentiles registry ("sim_" ^ cls_name c ^ "_seconds")
            with
            | Some p when p.Registry.count > 0 ->
              Some
                {
                  cls = cls_name c;
                  count = p.Registry.count;
                  mean = p.Registry.sum /. float_of_int p.Registry.count;
                  p50 = p.Registry.p50;
                  p99 = p.Registry.p99;
                  lat_max = p.Registry.max;
                }
            | _ -> None)
          mix
      in
      {
        statements = !executed;
        events = !events;
        virtual_seconds = !vclock;
        wall_seconds = wall;
        violation_count = List.length verdict.History.violations;
        violations = List.filteri (fun i _ -> i < 20) (History.describe verdict);
        judged =
          List.map
            (fun (inv, n) -> (History.invariant_name inv, n))
            verdict.History.judged;
        digest = !digest;
        outcome_digest = !outcome_digest;
        recoveries = !recoveries;
        checkpoints = !checkpoints;
        reconnects = !reconnects;
        classes;
        vertices = graph.Datagen.Snb.n_persons;
        edges = graph.Datagen.Snb.n_directed_edges;
      })

(* ------------------------------------------------------------------ *)
(* Rendering *)

let json_report cfg (r : report) =
  let module M = Sqlgraph.Metrics in
  M.Obj
    ([
      ("schema", M.String "sqlgraph-bench-v1");
      ("suite", M.String "sim");
      ( "backend",
        M.String
          (match cfg.backend with
          | Inproc -> "inproc"
          | Server_sessions -> "server") );
      ("seed", M.Int cfg.seed);
      ("clients", M.Int cfg.clients);
      ("domains", M.Int cfg.domains);
    ]
    @ M.host ()
    @ [
      ("statements", M.Int r.statements);
      ("events", M.Int r.events);
      ("vertices", M.Int r.vertices);
      ("edges", M.Int r.edges);
      ("virtual_seconds", M.num r.virtual_seconds);
      ("wall_seconds", M.num r.wall_seconds);
      ( "statements_per_sec",
        M.num (float_of_int r.statements /. Float.max 1e-9 r.wall_seconds) );
      ("digest", M.String (Printf.sprintf "%08x" r.digest));
      ("outcome_digest", M.String (Printf.sprintf "%08x" r.outcome_digest));
      ("violations", M.Int r.violation_count);
      ("judged", M.Obj (List.map (fun (name, n) -> (name, M.Int n)) r.judged));
      ("violation_samples", M.List (List.map (fun s -> M.String s) r.violations));
      ("recoveries", M.Int r.recoveries);
      ("checkpoints", M.Int r.checkpoints);
      ("reconnects", M.Int r.reconnects);
      ( "results",
        M.List
          (List.map
             (fun c ->
               M.Obj
                 [
                   ("name", M.String ("sim/" ^ c.cls));
                   ("count", M.Int c.count);
                   ("mean_seconds", M.num c.mean);
                   ("p50_seconds", M.num c.p50);
                   ("p99_seconds", M.num c.p99);
                   ("max_seconds", M.num c.lat_max);
                 ])
             r.classes) );
    ])

let print_report (r : report) =
  Printf.printf
    "sim: %d statements in %d events, %.1f virtual s, %.2f wall s (%.0f \
     stmts/s)\n"
    r.statements r.events r.virtual_seconds r.wall_seconds
    (float_of_int r.statements /. Float.max 1e-9 r.wall_seconds);
  Printf.printf
    "trace digest %08x, outcome digest %08x; %d recoveries, %d checkpoints, \
     %d reconnects\n"
    r.digest r.outcome_digest r.recoveries r.checkpoints r.reconnects;
  Printf.printf "%-12s %10s %12s %12s %12s %12s\n" "class" "count" "mean_ms"
    "p50_ms" "p99_ms" "max_ms";
  List.iter
    (fun c ->
      Printf.printf "%-12s %10d %12.3f %12.3f %12.3f %12.3f\n" c.cls c.count
        (1e3 *. c.mean) (1e3 *. c.p50) (1e3 *. c.p99) (1e3 *. c.lat_max))
    r.classes;
  Printf.printf "judged: %s\n"
    (String.concat ", "
       (List.map (fun (name, n) -> Printf.sprintf "%s %d" name n) r.judged));
  if r.violation_count = 0 then Printf.printf "invariants: OK (0 violations)\n%!"
  else begin
    Printf.printf "invariants: %d VIOLATIONS\n" r.violation_count;
    List.iter (fun v -> Printf.printf "  - %s\n" v) r.violations;
    Printf.printf "%!"
  end
