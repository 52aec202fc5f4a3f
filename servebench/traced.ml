(* The traced round: per-layer numbers for one workload, from outside the
   program.  After the same set-up as a measured round, the workload's
   statement stream runs for --seconds with each statement sent, in
   turn, three ways:

   - over the socket, as in a measured round;
   - as direct calls into the server-side layers, in the order a session
     makes them, with spans off;
   - the same with a benchmark-owned span around each call.

   Socket minus spans-off latency is what the server adds around the
   layers (server.residual_ms); spans-on minus spans-off is the tracing
   cost (trace.overhead_pct); only spans-on statements feed the layer
   metrics.  Two probes follow: one 256-pair batch straight into
   Graph.Runtime.run_pairs at 1 and 2 domains and, on the read-only
   workloads, 16 durable INSERTs down the write path, so every
   write-path metric has a value on every workload.

   Spans are kept in memory and written as a Chrome trace-event file at
   the end (open it in https://ui.perfetto.dev). *)

module Db = Sqlgraph.Db
module Wal = Sqlgraph.Wal
module Scheduler = Sqlgraph_server.Scheduler
module Server = Sqlgraph_server.Server
module Protocol = Sqlgraph_server.Protocol
module Interp = Executor.Interp

type result = {
  metrics : (string * float * string * string) list;
      (** name, value, unit, how it was measured *)
  verdicts : Workload.verdict list;
}

(* Every per-layer metric, with its unit, in report order. *)
let per_layer =
  [
    ("server.residual_ms", "ms");
    ("server.err_replies", "count");
    ("server.scheduler.refresh_us", "us");
    ("server.protocol_us", "us");
    ("sql.fingerprint_us", "us");
    ("sql.parse_us", "us");
    ("relalg.bind_us", "us");
    ("relalg.rewrite_us", "us");
    ("executor.self_ms", "ms");
    ("executor.index_hit_ratio", "ratio");
    ("graph.build_dict_ms", "ms");
    ("graph.build_encode_ms", "ms");
    ("graph.build_csr_ms", "ms");
    ("graph.builds_per_write", "count");
    ("graph.traverse_ms", "ms");
    ("graph.edges_scanned_per_pair", "count");
    ("graph.waves_per_stmt", "count");
    ("graph.dir_switches_per_stmt", "count");
    ("graph.steals_per_stmt", "count");
    ("graph.workers", "count");
    ("graph.imbalance_pct", "%");
    ("graph.batch_ms_domains1", "ms");
    ("graph.batch_ms_domains2", "ms");
    ("server.scheduler.writer_wait_ms", "ms");
    ("core.db.exec_write_ms", "ms");
    ("server.scheduler.publish_ms", "ms");
    ("storage.rows_copied_per_write", "count");
    ("core.wal.bytes_per_write", "bytes");
    ("server.group_commit.wait_ms", "ms");
    ("server.group_commit.commits_per_fsync", "count");
    ("gc.alloc_mb_per_op", "MB");
    ("gc.major_collections_per_s", "1/s");
    ("trace.overhead_pct", "%");
    ("trace.unattributed_pct", "%");
  ]

(* --- spans --------------------------------------------------------- *)

type span = {
  id : int;
  parent : int;  (** 0 = a request's root span *)
  req : int;  (** shared by every span of one statement *)
  name : string;
  t0 : float;
  t1 : float;
  derived : bool;  (** placed from Interp.stats timings, not a call boundary *)
}

let spans : span list ref = ref []
let recording = ref false
let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

(* Time [f] as span [name]; [f] receives the span's id (its children's
   parent).  With recording off this is a plain call. *)
let span ~req ~parent name f =
  if not !recording then f 0
  else begin
    let id = fresh_id () in
    let t0 = Unix.gettimeofday () in
    let r = f id in
    let t1 = Unix.gettimeofday () in
    spans := { id; parent; req; name; t0; t1; derived = false } :: !spans;
    r
  end

let write_chrome_trace path =
  let all = List.rev !spans in
  let origin = List.fold_left (fun a s -> Float.min a s.t0) Float.infinity all in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\": %S, \"cat\": \"servebench\", \"ph\": \"X\", \"pid\": 1, \
             \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"req\": %d, \
             \"span\": %d, \"parent\": %d%s}}\n"
            (if i = 0 then "" else ",")
            s.name
            ((s.t0 -. origin) *. 1e6)
            ((s.t1 -. s.t0) *. 1e6)
            s.req s.id s.parent
            (if s.derived then ", \"derived\": true" else ""))
        all;
      output_string oc "]}\n")

(* --- direct calls into the server-side layers ---------------------- *)

type session = {
  sched : Scheduler.t;
  store : Wal.t;
  db : Db.t;  (** private snapshot replica, like a session's *)
  seen : (string, int) Hashtbl.t;
  mutable loaded : int;
  published : (string, int) Hashtbl.t;
      (** table versions at the last publish, to count copied rows *)
}

let friends_key =
  { Executor.Graph_index.table = "friends"; src = [ 0 ]; dst = [ 1 ] }

(* One direct statement's observations, spans on or off. *)
type obs = {
  o_cls : Workload.cls;
  o_traced : bool;
  o_ms : float;  (** whole request *)
  o_stats : Interp.stats option;  (** reads *)
  o_copied : int;  (** writes: rows of the tables the publish copied *)
  o_wal_bytes : int;  (** writes *)
}

let versions db =
  let cat = Db.catalog db in
  List.filter_map
    (fun n -> Option.map (fun v -> (n, v)) (Storage.Catalog.version cat n))
    (Storage.Catalog.names cat)

(* A read, in the order Session runs it: refresh the private snapshot,
   fingerprint, parse, bind, rewrite, execute, render. *)
let read s ~req (st : Workload.stmt) =
  span ~req ~parent:0 "request" (fun root ->
      let call name f = span ~req ~parent:root name (fun _ -> f ()) in
      s.loaded <-
        call "server.scheduler.refresh" (fun () ->
            Scheduler.refresh_snapshot s.sched ~session_db:s.db ~seen:s.seen
              ~last_version:s.loaded);
      ignore (call "sql.fingerprint" (fun () -> Sql.Fingerprint.of_sql st.Workload.sql));
      let q =
        match call "sql.parse" (fun () -> Sql.Parser.parse_stmt st.Workload.sql) with
        | Sql.Ast.Select q -> q
        | _ -> invalid_arg "not a SELECT"
      in
      let catalog = Db.catalog s.db in
      let plan =
        call "relalg.bind" (fun () -> Relalg.Binder.bind_query ~catalog ~params:[||] q)
      in
      let plan =
        call "relalg.rewrite" (fun () ->
            Relalg.Rewriter.rewrite ~options:Relalg.Rewriter.default_options plan)
      in
      let gov = Sqlgraph.Governor.start Sqlgraph.Governor.no_limits in
      let ctx =
        Interp.create_ctx ~catalog ~indices:(Db.indices s.db)
          ~domains:(Db.parallelism s.db)
          ~check:(Sqlgraph.Governor.checkpoint gov) ()
      in
      let table =
        span ~req ~parent:root "executor.run" (fun exec ->
            let t = Interp.run ctx plan in
            if !recording then begin
              (* graph build and traversal happen inside Interp.run: lay
                 their measured durations out back to back, ending now *)
              let st = Interp.stats ctx in
              let build = st.Interp.graph_build_seconds in
              let traverse = st.Interp.graph_traverse_seconds in
              let start = ref (Unix.gettimeofday () -. build -. traverse) in
              let derived name secs =
                if secs > 0. then begin
                  spans :=
                    {
                      id = fresh_id (); parent = exec; req; name;
                      t0 = !start; t1 = !start +. secs; derived = true;
                    }
                    :: !spans;
                  start := !start +. secs
                end
              in
              derived "graph.build" build;
              derived "graph.traverse" traverse
            end;
            t)
      in
      let lines =
        call "server.protocol" (fun () ->
            Protocol.ok_outcome ~snapshot:s.loaded
              (Db.Selected (Sqlgraph.Resultset.of_table table)))
      in
      (lines, Some (Interp.stats ctx), 0))

(* A durable autocommit write, in the order Session runs it.  The writer
   lock is released however the statement ends. *)
let write s ~req (st : Workload.stmt) =
  span ~req ~parent:0 "request" (fun root ->
      let call name f = span ~req ~parent:root name (fun _ -> f ()) in
      (match call "server.scheduler.writer_acquire" (fun () -> Scheduler.writer_acquire s.sched) with
      | `Ok -> ()
      | `Busy _ -> failwith "write load-shed");
      let r, wal_bytes, target =
        Fun.protect
          ~finally:(fun () ->
            call "server.scheduler.writer_release" (fun () ->
                Scheduler.writer_release s.sched))
          (fun () ->
            let before = Wal.logical_end s.store in
            let r =
              call "core.db.exec" (fun () -> Db.exec (Scheduler.db s.sched) st.Workload.sql)
            in
            let wal_bytes = Wal.logical_end s.store - before in
            call "server.scheduler.publish" (fun () -> Scheduler.publish s.sched);
            (r, wal_bytes, call "server.scheduler.log_target" (fun () -> Scheduler.log_target s.sched)))
      in
      call "server.group_commit.wait_durable" (fun () -> Scheduler.wait_durable s.sched target);
      let snapshot = Scheduler.snapshot_version s.sched in
      let lines =
        call "server.protocol" (fun () ->
            match r with
            | Ok o -> Protocol.ok_outcome ~snapshot o
            | Error e -> [ Protocol.err e ])
      in
      (lines, None, wal_bytes))

(* Rows of the tables whose version moved since the last publish — what
   Scheduler.publish copied. *)
let copied_rows s =
  let shared = Scheduler.db s.sched in
  List.fold_left
    (fun acc (name, v) ->
      if Hashtbl.find_opt s.published name = Some v then acc
      else begin
        Hashtbl.replace s.published name v;
        acc
        + Option.fold ~none:0 ~some:Storage.Table.nrows
            (Storage.Catalog.find (Db.catalog shared) name)
      end)
    0 (versions shared)

let req_counter = ref 0

let direct s ~traced (st : Workload.stmt) =
  incr req_counter;
  let req = !req_counter in
  recording := traced;
  let t0 = Unix.gettimeofday () in
  let lines, stats, wal_bytes =
    match
      Db.protect (fun () ->
          if st.Workload.cls = Workload.Write then write s ~req st else read s ~req st)
    with
    | Ok r -> r
    | Error e -> ([ Protocol.err e ], None, 0)
  in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  recording := false;
  let copied = if st.Workload.cls = Workload.Write then copied_rows s else 0 in
  ( {
      o_cls = st.Workload.cls;
      o_traced = traced;
      o_ms = ms;
      o_stats = stats;
      o_copied = copied;
      o_wal_bytes = wal_bytes;
    },
    Workload.check st lines )

(* --- metric derivation --------------------------------------------- *)

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Mean duration (seconds) of the spans called [name]. *)
let span_mean name =
  mean
    (List.filter_map
       (fun sp -> if sp.name = name then Some (sp.t1 -. sp.t0) else None)
       !spans)

(* Share of traced request time not covered by the request's direct
   child spans. *)
let unattributed_pct () =
  let covered = Hashtbl.create 4096 in
  List.iter
    (fun sp ->
      if sp.parent <> 0 && not sp.derived then
        Hashtbl.replace covered sp.parent
          ((sp.t1 -. sp.t0)
          +. Option.value ~default:0. (Hashtbl.find_opt covered sp.parent)))
    !spans;
  let total, uncovered =
    List.fold_left
      (fun (tot, unc) sp ->
        if sp.parent = 0 then
          let d = sp.t1 -. sp.t0 in
          let c = Option.value ~default:0. (Hashtbl.find_opt covered sp.id) in
          (tot +. d, unc +. Float.max 0. (d -. c))
        else (tot, unc))
      (0., 0.) !spans
  in
  100. *. uncovered /. total

(* The graph the index holds for the current catalog of [db], built if
   the last write invalidated it. *)
let cached_runtime db =
  let indices = Db.indices db and catalog = Db.catalog db in
  ignore (Executor.Graph_index.warm indices ~catalog);
  let version = Option.value ~default:0 (Storage.Catalog.version catalog "friends") in
  fst (Option.get (Executor.Graph_index.lookup indices friends_key ~version))

(* Median time of one 256-pair batch straight into the kernel, after two
   untimed runs (the first parallel batch pays for its workspaces). *)
let batch_ms rt pairs ~domains =
  let once () =
    let t0 = Unix.gettimeofday () in
    ignore (Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted ~domains ~pairs ());
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  ignore (once ());
  ignore (once ());
  Served.median (List.init 5 (fun _ -> once ()))

let ms x = x *. 1e3
let us x = x *. 1e6

(* Per-layer metrics from the direct phase's observations ([phase]), the
   probes' ([probe]) and the socket phase's numbers. *)
let derive ~key ~phase ~probe ~builds ~sock_key_ms ~nsock ~err_replies ~gc ~loop_s
    ~sched_counters ~batch1 ~batch2 ~commits_per_fsync =
  let traced = List.filter (fun o -> o.o_traced) (phase @ probe) in
  let reads = List.filter (fun o -> o.o_cls <> Workload.Write) traced in
  let writes = List.filter (fun o -> o.o_cls = Workload.Write) traced in
  let stats = List.filter_map (fun o -> o.o_stats) reads in
  let sum f = List.fold_left (fun a st -> a + f st) 0 stats in
  let per_read f = float_of_int (sum f) /. float_of_int (max 1 (List.length stats)) in
  let mean_of f l = mean (List.map f l) in
  let builds =
    builds
    @ List.filter_map
        (fun (st : Interp.stats) ->
          let n = float_of_int st.Interp.graphs_built in
          if n = 0. then None
          else
            Some
              ( st.Interp.build_dict_seconds /. n,
                st.Interp.build_encode_seconds /. n,
                st.Interp.build_csr_seconds /. n ))
        stats
  in
  let build_ms f = ms (mean_of f builds) in
  let direct_p50 =
    Served.median
      (List.filter_map
         (fun o -> if o.o_cls = key && not o.o_traced then Some o.o_ms else None)
         phase)
  in
  (* medians: on edge-writes the ~100 ms rebuild reads land in the
     spans-on or spans-off third by chance and would swing a mean *)
  let request_p50 flag =
    Served.median
      (List.filter_map (fun o -> if o.o_traced = flag then Some o.o_ms else None) phase)
  in
  let pairs =
    List.fold_left
      (fun a o -> a + if o.o_cls = Workload.Batch_q then Prep.batch_size else 1)
      0 reads
  in
  let hits = sum (fun st -> st.Interp.index_hits) in
  let lookups = hits + sum (fun st -> st.Interp.index_misses) in
  let (gc0 : Gc.stat), (gc1 : Gc.stat) = gc in
  let allocated (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  let nreads = List.length reads and nwrites = List.length writes in
  let rn = Printf.sprintf "mean of %d traced reads" nreads in
  let wn = Printf.sprintf "mean of %d traced writes" nwrites in
  let bn = Printf.sprintf "mean of %d builds" (List.length builds) in
  let sc = sched_counters in
  [
    ( "server.residual_ms", Served.median sock_key_ms -. direct_p50, "ms",
      Printf.sprintf "p50 over the socket minus p50 direct call (spans off), %s"
        (Workload.cls_name key) );
    ( "server.err_replies", float_of_int err_replies, "count",
      Printf.sprintf "of %d socket replies" nsock );
    ("server.scheduler.refresh_us", us (span_mean "server.scheduler.refresh"), "us", rn);
    ("server.protocol_us", us (span_mean "server.protocol"), "us", "mean of traced statements");
    ("sql.fingerprint_us", us (span_mean "sql.fingerprint"), "us", rn);
    ("sql.parse_us", us (span_mean "sql.parse"), "us", rn);
    ("relalg.bind_us", us (span_mean "relalg.bind"), "us", rn);
    ("relalg.rewrite_us", us (span_mean "relalg.rewrite"), "us", rn);
    ( "executor.self_ms",
      ms
        (span_mean "executor.run"
        -. mean_of
             (fun (st : Interp.stats) ->
               st.Interp.graph_build_seconds +. st.Interp.graph_traverse_seconds)
             stats),
      "ms", rn ^ ", Interp.run minus build and traversal" );
    ( "executor.index_hit_ratio",
      (if lookups = 0 then 0. else float_of_int hits /. float_of_int lookups),
      "ratio", Printf.sprintf "%d of %d index lookups" hits lookups );
    ("graph.build_dict_ms", build_ms (fun (d, _, _) -> d), "ms", bn);
    ("graph.build_encode_ms", build_ms (fun (_, e, _) -> e), "ms", bn);
    ("graph.build_csr_ms", build_ms (fun (_, _, c) -> c), "ms", bn);
    ( "graph.builds_per_write",
      float_of_int (sum (fun st -> st.Interp.graphs_built)) /. float_of_int (max 1 nwrites),
      "count", Printf.sprintf "builds in %d traced reads per traced write" nreads );
    ( "graph.traverse_ms",
      ms (mean_of (fun (st : Interp.stats) -> st.Interp.graph_traverse_seconds) stats),
      "ms", rn );
    ( "graph.edges_scanned_per_pair",
      float_of_int (sum (fun st -> st.Interp.trav_edges)) /. float_of_int (max 1 pairs),
      "count", Printf.sprintf "%d pairs" pairs );
    ("graph.waves_per_stmt", per_read (fun st -> st.Interp.trav_waves), "count", rn);
    ("graph.dir_switches_per_stmt", per_read (fun st -> st.Interp.trav_dir_switches), "count", rn);
    ("graph.steals_per_stmt", per_read (fun st -> st.Interp.trav_steals), "count", rn);
    ("graph.workers", float_of_int sc.Graph.Runtime.sc_workers, "count", "last parallel batch");
    ( "graph.imbalance_pct", float_of_int sc.Graph.Runtime.sc_imbalance_pct, "%",
      "last parallel batch" );
    ("graph.batch_ms_domains1", batch1, "ms", "median of 5 direct run_pairs, batch 0");
    ("graph.batch_ms_domains2", batch2, "ms", "median of 5 direct run_pairs, batch 0");
    ("server.scheduler.writer_wait_ms", ms (span_mean "server.scheduler.writer_acquire"), "ms", wn);
    ("core.db.exec_write_ms", ms (span_mean "core.db.exec"), "ms", wn);
    ("server.scheduler.publish_ms", ms (span_mean "server.scheduler.publish"), "ms", wn);
    ("storage.rows_copied_per_write", mean_of (fun o -> float_of_int o.o_copied) writes, "count", wn);
    ("core.wal.bytes_per_write", mean_of (fun o -> float_of_int o.o_wal_bytes) writes, "bytes", wn);
    ("server.group_commit.wait_ms", ms (span_mean "server.group_commit.wait_durable"), "ms", wn);
    ("server.group_commit.commits_per_fsync", commits_per_fsync, "count", "mean group size");
    ( "gc.alloc_mb_per_op",
      (allocated gc1 -. allocated gc0) *. float_of_int (Sys.word_size / 8) /. 1048576.
      /. float_of_int (nsock + List.length phase),
      "MB", Printf.sprintf "%d statements" (nsock + List.length phase) );
    ( "gc.major_collections_per_s",
      float_of_int (gc1.major_collections - gc0.major_collections) /. loop_s,
      "1/s", Printf.sprintf "over %.2f s" loop_s );
    ( "trace.overhead_pct",
      100. *. (request_p50 true -. request_p50 false) /. request_p50 false,
      "%", "p50 direct request, spans on vs off" );
    ( "trace.unattributed_pct", unattributed_pct (), "%",
      "traced request time outside its child spans" );
  ]

let child ~work ~w ~seed ~seconds ~trace_out =
  let refs : Prep.refs = Served.input_marshal (Filename.concat work "refs.bin") in
  let server, _ = Served.restore_and_start ~work ~tag:"traced" in
  Served.configure w server;
  let sched = Server.scheduler server.Served.srv in
  let shared = Scheduler.db sched in
  let key = Workload.key w in
  let verdicts = ref [] in
  (* the set-up's index warm-up is this round's first graph build *)
  let warm = Graph.Runtime.stats (cached_runtime shared) in
  let builds =
    [ Graph.Runtime.(warm.dict_seconds, warm.encode_seconds, warm.csr_seconds) ]
  in
  (* the workload for [seconds], each statement in turn over the socket,
     as direct calls with spans off, or with spans on — the three see the
     same host state, so their differences are the server's and the
     spans' *)
  let client = server.Served.client in
  let stream = Workload.stream w refs ~seed ~round:101 in
  let warmup = Served.drive client stream ~until:(Unix.gettimeofday () +. Served.warmup_s) in
  List.iter (fun (st, _, _, lines) -> verdicts := Workload.check st lines :: !verdicts) warmup;
  let s =
    {
      sched;
      store = Option.get (Scheduler.store sched);
      db = Db.create ~indices:(Db.indices shared) ();
      seen = Hashtbl.create 8;
      loaded = -1;
      published = Hashtbl.of_seq (List.to_seq (versions shared));
    }
  in
  Db.set_parallelism s.db (if w = Workload.Batch then 2 else 1);
  let run_direct ~traced st =
    let o, v = direct s ~traced st in
    verdicts := v :: !verdicts;
    o
  in
  let sock_key_ms = ref [] and nsock = ref 0 and err_replies = ref 0 in
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  (* each run of three statements takes the three ways in a seeded
     random order, so none of them always follows the same other one *)
  let order = [| 0; 1; 2 |] and rng = Random.State.make [| seed; 104 |] in
  let rec loop k phase =
    if Unix.gettimeofday () -. t0 >= seconds then phase
    else
      let (st : Workload.stmt) = stream () in
      if k mod 3 = 0 then
        for i = 2 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let x = order.(i) in
          order.(i) <- order.(j);
          order.(j) <- x
        done;
      match order.(k mod 3) with
      | 0 ->
        let t_send = Unix.gettimeofday () in
        let lines =
          try Sqlgraph_server.Client.request client st.Workload.sql
          with Sqlgraph_server.Client.Closed m -> [ "BYE " ^ m ]
        in
        let dt = (Unix.gettimeofday () -. t_send) *. 1000. in
        let v = Workload.check st lines in
        verdicts := v :: !verdicts;
        incr nsock;
        (match v with Workload.Err _ -> incr err_replies | _ -> ());
        if st.Workload.cls = key then sock_key_ms := dt :: !sock_key_ms;
        loop (k + 1) phase
      | m -> loop (k + 1) (run_direct ~traced:(m = 2) st :: phase)
  in
  let phase = loop 0 [] in
  let loop_s = Unix.gettimeofday () -. t0 in
  let gc1 = Gc.quick_stat () in
  (* probes: the kernel on one batch, then writes where the workload
     has none *)
  s.loaded <-
    Scheduler.refresh_snapshot sched ~session_db:s.db ~seen:s.seen ~last_version:s.loaded;
  let rt = cached_runtime s.db in
  let sched_counters = Graph.Runtime.sched_counters rt in
  let pairs =
    Array.map (fun (a, b) -> (Storage.Value.Int a, Storage.Value.Int b)) refs.Prep.batches.(0)
  in
  let batch1 = batch_ms rt pairs ~domains:1 in
  let batch2 = batch_ms rt pairs ~domains:2 in
  let probe =
    if w = Workload.Edge_writes then []
    else
      let st = Random.State.make [| seed; 103 |] in
      List.init 16 (fun _ ->
          let a = refs.Prep.persons.(Random.State.int st (Array.length refs.Prep.persons)) in
          let b = Prep.other_person st refs.Prep.persons a in
          run_direct ~traced:true
            { Workload.cls = Workload.Write; sql = Workload.insert a b; expect = Workload.Inserted })
  in
  let commits_per_fsync =
    match
      Telemetry.Registry.percentiles (Scheduler.metrics sched) "sqlgraph_server_group_commit_size"
    with
    | Some p when p.Telemetry.Registry.count > 0 ->
      p.Telemetry.Registry.sum /. float_of_int p.Telemetry.Registry.count
    | _ -> 0.
  in
  let metrics =
    derive ~key ~phase ~probe ~builds ~sock_key_ms:!sock_key_ms ~nsock:!nsock
      ~err_replies:!err_replies ~gc:(gc0, gc1) ~loop_s ~sched_counters ~batch1 ~batch2
      ~commits_per_fsync
  in
  write_chrome_trace trace_out;
  Served.output_marshal (Filename.concat work "traced.bin")
    { metrics; verdicts = List.rev !verdicts };
  Sqlgraph_server.Client.close client
