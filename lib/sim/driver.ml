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

   Invariants checked on every event (violations are collected, never
   fatal — the report carries them):
     - governor verdicts honoured: a statement run under an exhausting
       budget must fail with Resource_error, and ordinary statements
       must not fail at all;
     - row-count conservation: INSERT/DELETE row counts must match a
       cheap oracle model (per-key multiset for kv, a counter for
       friends), reconciled against a COUNT query on reconnect/checkpoint;
     - acked commits survive kill-and-recover: the Inproc backend runs
       the WAL with fsync on (with --no-fsync the log batches appends in
       a userspace arena, so a kill would legally lose a suffix of acked
       statements and the invariant would not be checkable), crashes it
       mid-run (fd dropped, no flush — the kill -9 shape) and reopens
       the directory; the recovered row counts must equal the oracle
       exactly, since every acknowledged statement was fsynced before it
       was acknowledged and the crash lands between events;
     - snapshot monotonicity: in the Server backend every session's
       observed snapshot version must never decrease, across reconnects
       included. *)

module V = Storage.Value
module Db = Sqlgraph.Db
module Wal = Sqlgraph.Wal
module Governor = Sqlgraph.Governor
module Error = Sqlgraph.Error
module Registry = Telemetry.Registry
module Server = Sqlgraph_server.Server
module Client = Sqlgraph_server.Client
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
(* Oracle: the cheap reference model DML is checked against *)

type oracle = {
  mutable kv_total : int;
  per_key : int array;
  mutable friends_rows : int;
}

(* ------------------------------------------------------------------ *)
(* Backends *)

type inproc = {
  mutable store : Wal.t;
  mutable db : Db.t;
  dir : string;
}

type session = {
  mutable client : Client.t;
  mutable last_snapshot : int;
}

type exec_ctx =
  | In_ctx of inproc
  | Srv_ctx of Server.t * session array

(* outcome summary: deterministic description folded into the outcome
   digest ("ok:<rows>" / "err:<category>") *)
let summary_of_result = function
  | Ok (Db.Selected r) -> Printf.sprintf "ok:rows=%d" (Sqlgraph.Resultset.nrows r)
  | Ok (Db.Inserted n) -> Printf.sprintf "ok:ins=%d" n
  | Ok (Db.Deleted n) -> Printf.sprintf "ok:del=%d" n
  | Ok (Db.Updated n) -> Printf.sprintf "ok:upd=%d" n
  | Ok _ -> "ok"
  | Error (Error.Resource_error { kind; _ }) ->
    Printf.sprintf "err:resource:%s" (Error.resource_kind_name kind)
  | Error _ -> "err"

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
(* The run *)

let fresh_temp_dir () =
  let path = Filename.temp_file "sqlgraph-sim" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

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
  let violations = ref [] in
  let violation_count = ref 0 in
  let violate fmt =
    Printf.ksprintf
      (fun msg ->
        incr violation_count;
        if !violation_count <= 20 then violations := msg :: !violations)
      fmt
  in
  let oracle =
    {
      kv_total = 0;
      per_key = Array.make cfg.kv_keys 0;
      friends_rows = graph.Datagen.Snb.n_directed_edges;
    }
  in
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
            let ip = { store; db; dir } in
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
          let connect () =
            let a, b =
              Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
            in
            Server.attach srv a;
            Client.of_fd b
          in
          let sessions =
            Array.init cfg.clients (fun _ ->
                { client = connect (); last_snapshot = -1 })
          in
          cleanup_ctx :=
            (fun () ->
              Array.iter (fun s -> try Client.close s.client with _ -> ())
                sessions;
              Server.shutdown srv);
          Srv_ctx (srv, sessions)
      in
      (* ---- execution helpers ---------------------------------------- *)
      let exec_inproc ?budget ip sql =
        let r = Db.exec ip.db ?budget sql in
        (summary_of_result r, r)
      in
      let session_note sess resp =
        (match Client.snapshot resp with
        | Some v ->
          if v < sess.last_snapshot then
            violate "snapshot regressed: %d after %d" v sess.last_snapshot;
          sess.last_snapshot <- max v sess.last_snapshot
        | None -> ());
        resp
      in
      let exec_server sessions cid sql =
        let sess = sessions.(cid) in
        let resp =
          try session_note sess (Client.request ~timeout_ms:60_000 sess.client sql)
          with Client.Closed m ->
            violate "session %d died: %s" cid m;
            []
        in
        let term = Client.terminal resp in
        let summary =
          if Client.is_ok resp then begin
            match String.split_on_char ' ' term with
            | "OK" :: "SELECT" :: rest | "OK" :: "EXPLAIN" :: rest -> (
              match
                List.find_map
                  (fun tok ->
                    if String.length tok > 5 && String.sub tok 0 5 = "rows=" then
                      int_of_string_opt
                        (String.sub tok 5 (String.length tok - 5))
                    else None)
                  rest
              with
              | Some n -> Printf.sprintf "ok:rows=%d" n
              | None -> "ok")
            | "OK" :: "INSERT" :: n :: _ ->
              Printf.sprintf "ok:ins=%s" n
            | "OK" :: "DELETE" :: n :: _ ->
              Printf.sprintf "ok:del=%s" n
            | _ -> "ok"
          end
          else "err:" ^ term
        in
        (summary, term)
      in
      (* count parsers shared by the invariant checks *)
      let inserted_of summary =
        if String.length summary > 7 && String.sub summary 0 7 = "ok:ins=" then
          int_of_string_opt (String.sub summary 7 (String.length summary - 7))
        else None
      in
      let deleted_of summary =
        if String.length summary > 7 && String.sub summary 0 7 = "ok:del=" then
          int_of_string_opt (String.sub summary 7 (String.length summary - 7))
        else None
      in
      let rows_of summary =
        if String.length summary > 8 && String.sub summary 0 8 = "ok:rows=" then
          int_of_string_opt (String.sub summary 8 (String.length summary - 8))
        else None
      in
      let count_table name =
        let sql = Printf.sprintf "SELECT COUNT(*) FROM %s" name in
        match ctx with
        | In_ctx ip -> (
          match Db.query ip.db sql with
          | Ok r -> (
            match Sqlgraph.Resultset.rows r with
            | [ [ V.Int n ] ] -> Some n
            | _ -> None)
          | Error _ -> None)
        | Srv_ctx _ -> None
      in
      let reconcile site =
        (* row-count conservation against the oracle; Inproc reads the
           authoritative Db, Server mode parses the ROW line *)
        match ctx with
        | In_ctx _ -> (
          (match count_table "kv" with
          | Some n when n <> oracle.kv_total ->
            violate "%s: kv has %d rows, oracle %d" site n oracle.kv_total
          | _ -> ());
          match count_table "friends" with
          | Some n when n <> oracle.friends_rows ->
            violate "%s: friends has %d rows, oracle %d" site n
              oracle.friends_rows
          | _ -> ())
        | Srv_ctx (_, sessions) ->
          List.iter
            (fun (table, expect) ->
              let resp =
                try
                  session_note sessions.(0)
                    (Client.request ~timeout_ms:60_000 sessions.(0).client
                       (Printf.sprintf "SELECT COUNT(*) FROM %s" table))
                with Client.Closed _ -> []
              in
              let row =
                List.find_opt
                  (fun l -> String.length l > 4 && String.sub l 0 4 = "ROW ")
                  resp
              in
              match row with
              | Some l -> (
                match
                  int_of_string_opt
                    (String.trim (String.sub l 4 (String.length l - 4)))
                with
                | Some n when n <> expect ->
                  violate "%s: %s has %d rows, oracle %d" site table n expect
                | _ -> ())
              | None -> violate "%s: COUNT(*) FROM %s returned no row" site table)
            [ ("kv", oracle.kv_total); ("friends", oracle.friends_rows) ]
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
             recover the directory and demand the oracle state back *)
          Wal.crash_for_testing ip.store;
          (match Wal.open_dir ~fsync:true ip.dir with
          | Error e ->
            violate "recovery failed: %s" (Error.to_string e)
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
            | Error e -> violate "post-recovery index: %s" (Error.to_string e));
            incr recoveries;
            reconcile "kill-and-recover")
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
        match cls with
        | Point | Unnest ->
          let s, d = pick_pair () in
          let sql = if cls = Point then point_sql s d else unnest_sql s d in
          let summary =
            match ctx with
            | In_ctx ip ->
              let summary, r = exec_inproc ip sql in
              (match r with
              | Error e -> violate "%s failed: %s" (cls_name cls) (Error.to_string e)
              | Ok _ -> ());
              summary
            | Srv_ctx (_, sessions) ->
              let summary, term = exec_server sessions cid sql in
              if not (String.length summary >= 2 && String.sub summary 0 2 = "ok")
              then violate "%s failed: %s" (cls_name cls) term;
              summary
          in
          (sql, summary, 1)
        | Batch ->
          let sql = batch_sql cid in
          let summary =
            match ctx with
            | In_ctx ip ->
              let summary, r = exec_inproc ip sql in
              (match r with
              | Ok (Db.Selected rs) ->
                let n = Sqlgraph.Resultset.nrows rs in
                if n > cfg.batch_pairs then
                  violate "batch returned %d rows for %d pairs" n cfg.batch_pairs
              | Ok _ -> ()
              | Error e -> violate "batch failed: %s" (Error.to_string e));
              summary
            | Srv_ctx (_, sessions) ->
              let summary, term = exec_server sessions cid sql in
              (match rows_of summary with
              | Some n when n > cfg.batch_pairs ->
                violate "batch returned %d rows for %d pairs" n cfg.batch_pairs
              | Some _ -> ()
              | None -> violate "batch failed: %s" term);
              summary
          in
          (sql, summary, 1)
        | Insert_kv ->
          let k = Datagen.Splitmix.int rng ~bound:cfg.kv_keys in
          let v = Datagen.Splitmix.int rng ~bound:1_000_000 in
          let sql = Printf.sprintf "INSERT INTO kv VALUES (%d, %d)" k v in
          let summary =
            match ctx with
            | In_ctx ip -> fst (exec_inproc ip sql)
            | Srv_ctx (_, sessions) -> fst (exec_server sessions cid sql)
          in
          (match inserted_of summary with
          | Some 1 ->
            oracle.per_key.(k) <- oracle.per_key.(k) + 1;
            oracle.kv_total <- oracle.kv_total + 1
          | _ -> violate "kv insert: unexpected outcome %s" summary);
          (sql, summary, 1)
        | Delete_kv ->
          let k = Datagen.Splitmix.int rng ~bound:cfg.kv_keys in
          let sql = Printf.sprintf "DELETE FROM kv WHERE k = %d" k in
          let summary =
            match ctx with
            | In_ctx ip -> fst (exec_inproc ip sql)
            | Srv_ctx (_, sessions) -> fst (exec_server sessions cid sql)
          in
          (match deleted_of summary with
          | Some n ->
            if n <> oracle.per_key.(k) then
              violate "kv delete k=%d removed %d rows, oracle %d" k n
                oracle.per_key.(k);
            oracle.kv_total <- oracle.kv_total - oracle.per_key.(k);
            oracle.per_key.(k) <- 0
          | None -> violate "kv delete: unexpected outcome %s" summary);
          (sql, summary, 1)
        | Edge_dml ->
          let s, d = pick_pair () in
          let sql =
            Printf.sprintf "INSERT INTO friends VALUES (%d, %d, '2012-06-01', 1.0)"
              s d
          in
          let summary =
            match ctx with
            | In_ctx ip -> fst (exec_inproc ip sql)
            | Srv_ctx (_, sessions) -> fst (exec_server sessions cid sql)
          in
          (match inserted_of summary with
          | Some 1 -> oracle.friends_rows <- oracle.friends_rows + 1
          | _ -> violate "edge insert: unexpected outcome %s" summary);
          (sql, summary, 1)
        | Txn ->
          let n_inner = 1 + Datagen.Splitmix.int rng ~bound:4 in
          let commit = Datagen.Splitmix.int rng ~bound:4 > 0 in
          let inner =
            List.init n_inner (fun _ ->
                let k = Datagen.Splitmix.int rng ~bound:cfg.kv_keys in
                let v = Datagen.Splitmix.int rng ~bound:1_000_000 in
                (k, Printf.sprintf "INSERT INTO kv VALUES (%d, %d)" k v))
          in
          let stmts =
            ("BEGIN" :: List.map snd inner)
            @ [ (if commit then "COMMIT" else "ROLLBACK") ]
          in
          let ok = ref true in
          List.iter
            (fun sql ->
              let summary =
                match ctx with
                | In_ctx ip -> fst (exec_inproc ip sql)
                | Srv_ctx (_, sessions) -> fst (exec_server sessions cid sql)
              in
              if not (String.length summary >= 2 && String.sub summary 0 2 = "ok")
              then begin
                ok := false;
                violate "txn statement failed: %s (%s)" sql summary
              end)
            stmts;
          (* all-or-nothing: the oracle applies the whole transaction at
             COMMIT and nothing at ROLLBACK *)
          if !ok && commit then
            List.iter
              (fun (k, _) ->
                oracle.per_key.(k) <- oracle.per_key.(k) + 1;
                oracle.kv_total <- oracle.kv_total + 1)
              inner;
          (String.concat "; " stmts, (if !ok then "ok" else "err"), List.length stmts)
        | Governed -> (
          (* tiny budget must trip: pairs_c<cid> has batch_pairs >= 2
             rows, the budget allows 1 — anything but Resource_error
             Rows is a governor violation *)
          let sql = Printf.sprintf "SELECT s, d FROM pairs_c%d" cid in
          match ctx with
          | In_ctx ip ->
            let budget = Governor.budget ~max_rows:1 () in
            let summary, r = exec_inproc ~budget ip sql in
            (match r with
            | Error (Error.Resource_error { kind = Error.Rows; _ }) -> ()
            | Ok _ -> violate "governed statement was not limited"
            | Error e ->
              violate "governed statement: unexpected error %s"
                (Error.to_string e));
            (sql, summary, 1)
          | Srv_ctx (_, sessions) ->
            (* the server's budget is config-wide; run the statement
               ungoverned and only check it succeeds *)
            let summary, term = exec_server sessions cid sql in
            if not (Client.is_ok [ term ]) then
              violate "pairs scan failed: %s" term;
            (sql, summary, 1))
        | Checkpoint -> (
          match ctx with
          | In_ctx ip ->
            (match Wal.checkpoint ip.store ip.db with
            | Ok () -> incr checkpoints
            | Error e -> violate "checkpoint failed: %s" (Error.to_string e));
            ("\\checkpoint", "ok", 1)
          | Srv_ctx _ ->
            (* no meta-commands over the wire: a checkpoint event in
               server mode reconciles counts against the oracle instead *)
            reconcile "checkpoint";
            incr checkpoints;
            ("\\reconcile", "ok", 1))
        | Reconnect -> (
          match ctx with
          | In_ctx _ ->
            reconcile "reconnect";
            incr reconnects;
            ("\\reconcile", "ok", 1)
          | Srv_ctx (srv, sessions) ->
            let sess = sessions.(cid) in
            (try Client.close sess.client with _ -> ());
            let a, b =
              Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
            in
            Server.attach srv a;
            sess.client <- Client.of_fd b;
            (* snapshot monotonicity must hold across the reconnect:
               last_snapshot survives, and the fresh session's first
               response re-checks it *)
            incr reconnects;
            ("\\reconnect", "ok", 1))
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
      reconcile "final";
      let wall = Unix.gettimeofday () -. t_wall0 in
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
        violation_count = !violation_count;
        violations = List.rev !violations;
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
  if r.violation_count = 0 then Printf.printf "invariants: OK (0 violations)\n%!"
  else begin
    Printf.printf "invariants: %d VIOLATIONS\n" r.violation_count;
    List.iter (fun v -> Printf.printf "  - %s\n" v) r.violations;
    Printf.printf "%!"
  end
