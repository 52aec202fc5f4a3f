(* The telemetry subsystem: structured spans (ring bounds, injected
   clock, cancellation-safe nesting under parallel traversal and fault
   injection), the metrics registry (percentiles, Prometheus shape), the
   Db absorption path (cumulative histograms over a 100+ statement
   session, last_stats cleared on failure) and the JSON round-trip
   property for Metrics.to_string / to_compact_string against the test
   suite's own parser. *)

module Tr = Telemetry.Trace
module Reg = Telemetry.Registry
module M = Sqlgraph.Metrics
module J = Testjson.Json_support
module Fault = Sqlgraph.Fault
module Err = Sqlgraph.Error

open Testjson.Support

(* Every test leaves the recorder disabled with the real clock, whatever
   happens inside. *)
let with_trace ?(capacity = 65536) f =
  Tr.configure ~capacity;
  Tr.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Tr.set_enabled false;
      Tr.set_clock Unix.gettimeofday;
      Fault.clear ())
    f

(* {1 Recorder} *)

let test_injected_clock () =
  with_trace @@ fun () ->
  let t = ref 0.0 in
  Tr.set_clock (fun () ->
      t := !t +. 1.0;
      !t);
  let q = Tr.next_query () in
  let sp = Tr.begin_span ~attrs:[ ("k", "v") ] "outer" in
  Tr.instant "mark";
  Tr.end_span sp;
  let evs = Tr.events () in
  check tint "three events" 3 (List.length evs);
  let ts = List.map (fun e -> e.Tr.ev_ts) evs in
  check (Alcotest.list (Alcotest.float 0.0)) "deterministic timestamps"
    [ 1.0; 2.0; 3.0 ] ts;
  List.iter
    (fun e -> check tint "query id stamped" q e.Tr.ev_query)
    evs;
  match evs with
  | [ b; i; e ] ->
    check Alcotest.string "begin name" "outer" b.Tr.ev_name;
    check
      (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
      "attrs preserved"
      [ ("k", "v") ]
      b.Tr.ev_attrs;
    check tint "instant parented under outer" b.Tr.ev_span i.Tr.ev_parent;
    check tint "end matches begin span" b.Tr.ev_span e.Tr.ev_span
  | _ -> Alcotest.fail "unexpected event shape"

let test_ring_bounds () =
  with_trace ~capacity:16 @@ fun () ->
  for i = 1 to 100 do
    Tr.instant (Printf.sprintf "ev%d" i)
  done;
  let evs = Tr.events () in
  check tint "ring holds capacity" 16 (List.length evs);
  check tint "dropped counts overwrites" 84 (Tr.dropped ());
  (* Oldest-first snapshot of the survivors: ev85 .. ev100. *)
  check Alcotest.string "oldest survivor" "ev85"
    (List.hd evs).Tr.ev_name;
  check Alcotest.string "newest survivor" "ev100"
    (List.nth evs 15).Tr.ev_name;
  Tr.clear ();
  check tint "clear resets dropped" 0 (Tr.dropped ());
  check tint "clear drops events" 0 (List.length (Tr.events ()))

let test_disabled_is_noop () =
  Tr.configure ~capacity:64;
  Tr.set_enabled false;
  let sp = Tr.begin_span "ghost" in
  check tint "disabled begin_span returns -1" (-1) sp;
  Tr.end_span sp;
  Tr.instant "ghost";
  check tint "nothing recorded" 0 (List.length (Tr.events ()))

let test_unwind_closes_children () =
  with_trace @@ fun () ->
  ignore (Tr.next_query ());
  (* Simulate a cancellation unwind: the inner spans never see their
     end_span calls; closing the outer one must close them first,
     innermost out. *)
  let outer = Tr.begin_span "outer" in
  let _mid = Tr.begin_span "mid" in
  let _inner = Tr.begin_span "inner" in
  Tr.end_span outer;
  let evs = Tr.events () in
  let kinds = List.map (fun e -> (e.Tr.ev_kind, e.Tr.ev_name)) evs in
  check
    (Alcotest.list (Alcotest.pair (Alcotest.testable (fun fmt -> function
         | Tr.Begin -> Format.pp_print_string fmt "B"
         | Tr.End -> Format.pp_print_string fmt "E"
         | Tr.Instant -> Format.pp_print_string fmt "i") ( = ))
        Alcotest.string))
    "ends innermost-out"
    [
      (Tr.Begin, "outer");
      (Tr.Begin, "mid");
      (Tr.Begin, "inner");
      (Tr.End, "inner");
      (Tr.End, "mid");
      (Tr.End, "outer");
    ]
    kinds

let test_span_closes_on_exception () =
  with_trace @@ fun () ->
  ignore (Tr.next_query ());
  (try Tr.span "boom" (fun () -> failwith "injected") with Failure _ -> ());
  let evs = Tr.events () in
  check tint "begin and end both recorded" 2 (List.length evs);
  check Alcotest.bool "span closed" true
    (List.exists (fun e -> e.Tr.ev_kind = Tr.End) evs)

(* A restart's trace shows what it spent: inside [wal_replay], one
   [ckpt_load] per checkpointed table (closed with its row count), then
   [log_replay] for the log tail. *)
let test_recovery_spans () =
  let dir = Filename.temp_file "sqlgraph_tel" "" in
  Sys.remove dir;
  let ok = function Ok v -> v | Error e -> Alcotest.fail (Err.to_string e) in
  Fun.protect
    ~finally:(fun () -> Sqlgraph.Persist.rm_rf dir)
    (fun () ->
      let store, db, _ = ok (Sqlgraph.Wal.open_dir ~fsync:false dir) in
      exec_exn db "CREATE TABLE a (x INTEGER)";
      exec_exn db "INSERT INTO a VALUES (1), (2), (3)";
      exec_exn db "CREATE TABLE b (s VARCHAR)";
      exec_exn db "INSERT INTO b VALUES ('p')";
      ok (Sqlgraph.Wal.checkpoint store db);
      exec_exn db "INSERT INTO b VALUES ('q')";
      Sqlgraph.Wal.close store;
      with_trace (fun () ->
          let store, _, _ = ok (Sqlgraph.Wal.open_dir ~fsync:false dir) in
          Sqlgraph.Wal.close store;
          let evs = Tr.events () in
          let begins name =
            List.filter
              (fun e -> e.Tr.ev_kind = Tr.Begin && e.Tr.ev_name = name)
              evs
          in
          let replay =
            match begins "wal_replay" with
            | [ e ] -> e.Tr.ev_span
            | l -> Alcotest.failf "%d wal_replay spans" (List.length l)
          in
          let child name =
            List.map
              (fun e ->
                check tint (name ^ " under wal_replay") replay e.Tr.ev_parent;
                e)
              (begins name)
          in
          let rows_of sp =
            List.find_map
              (fun e ->
                if e.Tr.ev_kind = Tr.End && e.Tr.ev_span = sp then
                  List.assoc_opt "rows" e.Tr.ev_attrs
                else None)
              evs
          in
          let loads =
            List.map
              (fun e ->
                (List.assoc "table" e.Tr.ev_attrs, rows_of e.Tr.ev_span))
              (child "ckpt_load")
          in
          check
            Alcotest.(list (pair string (option string)))
            "one ckpt_load per table, with its rows"
            [ ("a", Some "3"); ("b", Some "1") ]
            (List.sort compare loads);
          check tint "one log_replay" 1 (List.length (child "log_replay"))))

let test_self_ms_by_name () =
  with_trace @@ fun () ->
  let t = ref 0.0 in
  Tr.set_clock (fun () -> !t);
  let q = Tr.next_query () in
  let outer = Tr.begin_span "outer" in
  t := 1.0;
  let inner = Tr.begin_span "inner" in
  t := 3.0;
  Tr.end_span inner;
  t := 10.0;
  Tr.end_span outer;
  match Tr.self_ms_by_name ~query:q with
  | [ (n1, ms1); (n2, ms2) ] ->
    check Alcotest.string "biggest self-time first" "outer" n1;
    check (Alcotest.float 1e-6) "outer self = total - child" 8000.0 ms1;
    check Alcotest.string "child second" "inner" n2;
    check (Alcotest.float 1e-6) "inner self" 2000.0 ms2
  | other ->
    Alcotest.failf "expected two names, got %d" (List.length other)

(* {1 Span-tree well-formedness under execution} *)

(* Replay per-track span stacks over the event list: every End must
   close the innermost open span of its track, and every track must be
   empty afterwards.  Begin parents must either be -1, an open span on
   the same track, or a span of another track (a spawned domain's root
   linking to the coordinator). *)
let assert_well_formed evs =
  let stacks : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack track =
    match Hashtbl.find_opt stacks track with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks track s;
      s
  in
  let seen_spans = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match e.Tr.ev_kind with
      | Tr.Begin ->
        Hashtbl.replace seen_spans e.Tr.ev_span e.Tr.ev_track;
        let s = stack e.Tr.ev_track in
        (match (!s, e.Tr.ev_parent) with
        | _, -1 -> ()
        | top :: _, p when p = top -> ()
        | _, p when Hashtbl.mem seen_spans p -> ()
        | _, p ->
          Alcotest.failf "span %d (%s) has unknown parent %d" e.Tr.ev_span
            e.Tr.ev_name p);
        s := e.Tr.ev_span :: !s
      | Tr.End -> (
        let s = stack e.Tr.ev_track in
        match !s with
        | top :: rest when top = e.Tr.ev_span -> s := rest
        | top :: _ ->
          Alcotest.failf "End %d (%s) but innermost open span is %d"
            e.Tr.ev_span e.Tr.ev_name top
        | [] ->
          Alcotest.failf "End %d (%s) on empty track %d" e.Tr.ev_span
            e.Tr.ev_name e.Tr.ev_track)
      | Tr.Instant -> ())
    evs;
  Hashtbl.iter
    (fun track s ->
      match !s with
      | [] -> ()
      | sp :: _ -> Alcotest.failf "track %d left span %d open" track sp)
    stacks

(* A small digraph with fan-out so the batched engine has several source
   groups to spread over domains: ring + chords, seeded by [n]. *)
let traversal_db n =
  let db = Sqlgraph.Db.create () in
  exec_exn db "CREATE TABLE e (src INTEGER, dst INTEGER)";
  let buf = Buffer.create 256 in
  for i = 0 to n - 1 do
    if Buffer.length buf > 0 then Buffer.add_string buf ", ";
    Buffer.add_string buf (Printf.sprintf "(%d, %d)" i ((i + 1) mod n));
    Buffer.add_string buf
      (Printf.sprintf ", (%d, %d)" i ((i * 7) + 3) )
  done;
  exec_exn db (Printf.sprintf "INSERT INTO e VALUES %s" (Buffer.contents buf));
  exec_exn db "CREATE TABLE p (v INTEGER)";
  let buf = Buffer.create 64 in
  for i = 0 to min (n - 1) 7 do
    if Buffer.length buf > 0 then Buffer.add_string buf ", ";
    Buffer.add_string buf (Printf.sprintf "(%d)" i)
  done;
  exec_exn db (Printf.sprintf "INSERT INTO p VALUES %s" (Buffer.contents buf));
  db

let pairs_sql =
  "SELECT a.v, b.v FROM p a, p b WHERE a.v REACHES b.v OVER e EDGE (src, dst)"

let wellformed_prop =
  QCheck.Test.make ~count:8 ~name:"span tree well-formed (domains=4, faults)"
    QCheck.(pair (int_range 5 24) (int_range 0 2))
    (fun (n, fault_mode) ->
      Tr.configure ~capacity:65536;
      Tr.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Tr.set_enabled false;
          Fault.clear ())
        (fun () ->
          let db = traversal_db n in
          Sqlgraph.Db.set_parallelism db 4;
          (match fault_mode with
          | 1 -> Fault.set (Some (Fault.At_site "bfs"))
          | 2 -> Fault.set (Some (Fault.After_checks 3))
          | _ -> Fault.clear ());
          Tr.clear ();
          let result = Sqlgraph.Db.query db pairs_sql in
          (match (fault_mode, result) with
          | 0, Error e ->
            Alcotest.failf "fault-free query failed: %s" (Err.to_string e)
          | _ -> ());
          QCheck.assume (Tr.dropped () = 0);
          assert_well_formed (Tr.events ());
          true))

let test_parallel_tracks () =
  with_trace @@ fun () ->
  let db = traversal_db 16 in
  Sqlgraph.Db.set_parallelism db 4;
  Tr.clear ();
  (match Sqlgraph.Db.query db pairs_sql with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "query failed: %s" (Err.to_string e));
  let evs = Tr.events () in
  assert_well_formed evs;
  let names =
    List.filter_map
      (fun e -> if e.Tr.ev_kind = Tr.Begin then Some e.Tr.ev_name else None)
      evs
  in
  List.iter
    (fun required ->
      if not (List.mem required names) then
        Alcotest.failf "missing span %S (have: %s)" required
          (String.concat ", "
             (List.sort_uniq String.compare names)))
    [ "parse"; "bind"; "rewrite"; "execute"; "statement"; "graph_build";
      "dict"; "encode"; "csr"; "traversal_batch" ];
  (* the workers' "domain" spans run under the coordinator's statement *)
  match evs with
  | [] -> ()
  | first :: _ ->
    List.iter
      (fun e -> check tint "one statement id" first.Tr.ev_query e.Tr.ev_query)
      evs

(* Two session threads with registered tracks interleave their
   statements step by step: each thread's events carry its own
   statement id, not the id the other thread allocated last. *)
let test_query_id_per_track () =
  with_trace @@ fun () ->
  Tr.clear ();
  let turn = Array.init 2 (fun _ -> Semaphore.Binary.make false) in
  let step me f =
    Semaphore.Binary.acquire turn.(me);
    f ();
    Semaphore.Binary.release turn.(1 - me)
  in
  let ids = Array.make 2 0 and seen = Array.make 2 0 in
  let session me () =
    Tr.register_thread_track (100 + me);
    let sp = ref (-1) in
    step me (fun () -> ids.(me) <- Tr.next_query ());
    step me (fun () -> sp := Tr.begin_span (Printf.sprintf "s%d" me));
    step me (fun () ->
        Tr.instant "mark";
        Tr.end_span !sp;
        seen.(me) <- Tr.current_query ());
    Tr.unregister_thread_track ()
  in
  let threads = Array.init 2 (fun me -> Thread.create (session me) ()) in
  Semaphore.Binary.release turn.(0);
  Array.iter Thread.join threads;
  check Alcotest.bool "distinct statement ids" true (ids.(0) <> ids.(1));
  let evs = Tr.events () in
  check tint "three events per track" 6 (List.length evs);
  List.iter
    (fun e ->
      let me = e.Tr.ev_track - 100 in
      check tint
        (Printf.sprintf "track %d event carries its own id" e.Tr.ev_track)
        ids.(me) e.Tr.ev_query)
    evs;
  check (Alcotest.array tint) "current_query per track" ids seen

(* {1 Registry} *)

let test_registry_percentiles () =
  let r = Reg.create () in
  for i = 1 to 1000 do
    Reg.observe r "lat" (float_of_int i /. 1000.0)
  done;
  match Reg.percentiles r "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some p ->
    check tint "count" 1000 p.Reg.count;
    check (Alcotest.float 1e-6) "sum" 500.5 p.Reg.sum;
    check (Alcotest.float 1e-9) "max exact" 1.0 p.Reg.max;
    check Alcotest.bool "p50 <= p90" true (p.Reg.p50 <= p.Reg.p90);
    check Alcotest.bool "p90 <= p99" true (p.Reg.p90 <= p.Reg.p99);
    check Alcotest.bool "p99 <= max" true (p.Reg.p99 <= p.Reg.max);
    (* Log buckets: 4 per decade, so an estimate is within ~78% above
       the true quantile. *)
    check Alcotest.bool "p50 in bucket range" true
      (p.Reg.p50 >= 0.5 && p.Reg.p50 <= 0.9)

let test_registry_prometheus () =
  let r = Reg.create () in
  Reg.inc r ~help:"Statements executed." "sqlgraph_statements_total" 3;
  Reg.set_gauge r ~help:"Traversal domains." "sqlgraph_parallelism" 4.0;
  Reg.observe r ~help:"Latency." "sqlgraph_statement_seconds" 0.01;
  Reg.observe r "sqlgraph_statement_seconds" 0.2;
  let out = Reg.to_prometheus r in
  let has s =
    check Alcotest.bool (Printf.sprintf "contains %S" s) true
      (Astring.String.is_infix ~affix:s out)
  in
  has "# HELP sqlgraph_statements_total Statements executed.";
  has "# TYPE sqlgraph_statements_total counter";
  has "sqlgraph_statements_total 3";
  has "# TYPE sqlgraph_parallelism gauge";
  has "sqlgraph_parallelism 4";
  has "# TYPE sqlgraph_statement_seconds histogram";
  has "sqlgraph_statement_seconds_bucket{le=\"+Inf\"} 2";
  has "sqlgraph_statement_seconds_count 2";
  has "sqlgraph_statement_seconds_sum";
  (* Cumulative buckets: the +Inf bucket equals the count and buckets
     never decrease. *)
  let buckets =
    String.split_on_char '\n' out
    |> List.filter (fun l ->
           Astring.String.is_prefix ~affix:"sqlgraph_statement_seconds_bucket"
             l)
    |> List.map (fun l ->
           match String.rindex_opt l ' ' with
           | Some i ->
             int_of_string
               (String.sub l (i + 1) (String.length l - i - 1))
           | None -> Alcotest.failf "bad bucket line %S" l)
  in
  check Alcotest.bool "buckets monotone" true
    (fst
       (List.fold_left
          (fun (ok, prev) v -> (ok && v >= prev, v))
          (true, 0) buckets))

let test_registry_table () =
  let r = Reg.create () in
  Reg.inc r "a_total" 1;
  Reg.observe r "h_seconds" 0.5;
  let t = Reg.to_table r in
  check Alcotest.bool "table names both metrics" true
    (Astring.String.is_infix ~affix:"a_total" t
    && Astring.String.is_infix ~affix:"h_seconds" t
    && Astring.String.is_infix ~affix:"p50" t)

(* {1 Db absorption} *)

let test_db_session_histogram () =
  let db = traversal_db 12 in
  let before =
    match Reg.percentiles (Sqlgraph.Db.registry db) "sqlgraph_statement_seconds" with
    | Some p -> p.Reg.count
    | None -> 0
  in
  for _ = 1 to 110 do
    ignore (Sqlgraph.Db.query_exn db pairs_sql)
  done;
  let reg = Sqlgraph.Db.registry db in
  (match Reg.percentiles reg "sqlgraph_statement_seconds" with
  | None -> Alcotest.fail "statement histogram missing"
  | Some p ->
    check tint "110 more statements observed" (before + 110) p.Reg.count;
    check Alcotest.bool "quantiles ordered" true
      (p.Reg.p50 <= p.Reg.p90 && p.Reg.p90 <= p.Reg.p99
     && p.Reg.p99 <= p.Reg.max));
  let counter name =
    Reg.fold reg ~init:None ~f:(fun acc n ~help:_ m ->
        match m with Reg.Counter c when n = name -> Some c | _ -> acc)
  in
  (match counter "sqlgraph_statements_total" with
  | Some c -> check Alcotest.bool "statements_total counted" true (c >= 110)
  | None -> Alcotest.fail "sqlgraph_statements_total missing");
  match counter "sqlgraph_traversal_searches_total" with
  | Some c -> check Alcotest.bool "traversal counters absorbed" true (c > 0)
  | None -> Alcotest.fail "sqlgraph_traversal_searches_total missing"

let test_db_failed_statement_counted () =
  let db = Sqlgraph.Db.create () in
  (match Sqlgraph.Db.exec db "SELECT nonsense FROM nowhere" with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ -> ());
  let reg = Sqlgraph.Db.registry db in
  let counter name =
    Reg.fold reg ~init:None ~f:(fun acc n ~help:_ m ->
        match m with Reg.Counter c when n = name -> Some c | _ -> acc)
  in
  check (Alcotest.option tint) "failure counted" (Some 1)
    (counter "sqlgraph_statements_failed_total")

(* Satellite: last_stats must not survive a failed statement. *)
let test_last_stats_cleared_on_failure () =
  let db = traversal_db 8 in
  ignore (Sqlgraph.Db.query_exn db pairs_sql);
  check Alcotest.bool "stats after success" true
    (Sqlgraph.Db.last_stats db <> None);
  (match Sqlgraph.Db.exec db "SELECT v FROM missing_table" with
  | Ok _ -> Alcotest.fail "expected bind failure"
  | Error _ -> ());
  check Alcotest.bool "stats cleared by failure" true
    (Sqlgraph.Db.last_stats db = None);
  (* A mid-traversal fault clears them too. *)
  ignore (Sqlgraph.Db.query_exn db pairs_sql);
  Fault.set (Some (Fault.At_site "bfs"));
  Fun.protect ~finally:Fault.clear (fun () ->
      match Sqlgraph.Db.query db pairs_sql with
      | Ok _ -> Alcotest.fail "expected injected fault"
      | Error _ -> ());
  check Alcotest.bool "stats cleared by fault" true
    (Sqlgraph.Db.last_stats db = None)

let test_set_slow_query_ms () =
  let db = Sqlgraph.Db.create () in
  check (Alcotest.option tint) "disabled by default" None
    (Sqlgraph.Db.slow_query_ms db);
  (match Sqlgraph.Db.exec db "SET slow_query_ms = 250" with
  | Ok (Sqlgraph.Db.Option_set ("slow_query_ms", 250)) -> ()
  | Ok _ -> Alcotest.fail "unexpected outcome"
  | Error e -> Alcotest.failf "SET failed: %s" (Err.to_string e));
  check (Alcotest.option tint) "threshold applied" (Some 250)
    (Sqlgraph.Db.slow_query_ms db);
  match Sqlgraph.Db.exec db "SET slow_query_ms = -1" with
  | Error (Err.Bind_error _) -> ()
  | _ -> Alcotest.fail "negative threshold must be rejected"

(* {1 Catapult export} *)

let test_catapult_parses () =
  with_trace @@ fun () ->
  let db = traversal_db 12 in
  Sqlgraph.Db.set_parallelism db 2;
  Tr.clear ();
  ignore (Sqlgraph.Db.query_exn db pairs_sql);
  let doc =
    match J.parse_result (Tr.to_catapult ()) with
    | Ok d -> d
    | Error m -> Alcotest.failf "catapult not valid JSON: %s" m
  in
  match J.member "traceEvents" doc with
  | Some (M.List evs) ->
    check Alcotest.bool "has events" true (List.length evs > 0);
    List.iter
      (fun ev ->
        match J.to_string_opt (J.member "ph" ev) with
        | Some ("B" | "E" | "i") -> ()
        | other ->
          Alcotest.failf "bad ph %s"
            (Option.value ~default:"<none>" other))
      evs
  | _ -> Alcotest.fail "no traceEvents array"

(* {1 JSON round-trip (satellite)} *)

let sane_float f = if Float.is_finite f then f else 0.0

let json_gen =
  let open QCheck.Gen in
  let any_char_string =
    string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 12)
  in
  let scalar =
    oneof
      [
        return M.Null;
        map (fun b -> M.Bool b) bool;
        map (fun i -> M.Int i) int;
        map (fun f -> M.Float (sane_float f)) float;
        oneofl
          [
            M.Float (-0.0);
            M.Float 0.0;
            M.Float 1e-300;
            M.Float 1.7976931348623157e308;
            M.Float 3.0;
            M.Float (-999999999999999.0);
            M.String "quote\" backslash\\ control\x01\x1f tab\t nl\n";
          ];
        map (fun s -> M.String s) any_char_string;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           frequency
             [
               (3, scalar);
               (1, map (fun l -> M.List l) (list_size (int_bound 4) (self (n / 2))));
               ( 1,
                 map
                   (fun kvs -> M.Obj kvs)
                   (list_size (int_bound 4)
                      (pair any_char_string (self (n / 2)))) );
             ])

let json_arb =
  QCheck.make ~print:(fun j -> M.to_string j) json_gen

let roundtrip_prop =
  QCheck.Test.make ~count:500 ~name:"to_string/to_compact_string round-trip"
    json_arb
    (fun j ->
      let check_via render =
        match J.parse_result (render j) with
        | Ok j' -> J.equal j j'
        | Error m -> QCheck.Test.fail_reportf "parse error: %s" m
      in
      check_via M.to_string && check_via M.to_compact_string)

let test_json_special_cases () =
  check Alcotest.string "NaN renders null" "null" (M.to_string (M.Float Float.nan));
  check Alcotest.string "+inf renders null" "null"
    (M.to_string (M.Float Float.infinity));
  check Alcotest.string "num maps NaN to Null" "null"
    (M.to_string (M.num Float.nan));
  (* -0.0 survives with its sign bit. *)
  (match J.parse_result (M.to_string (M.Float (-0.0))) with
  | Ok (M.Float f) ->
    check Alcotest.bool "-0.0 sign preserved" true
      (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float (-0.0)))
  | _ -> Alcotest.fail "-0.0 did not parse back as a float");
  (* Control characters, quotes, backslashes. *)
  let s = "a\"b\\c\x00\x01\x1f\n\r\t z" in
  (match J.parse_result (M.to_string (M.String s)) with
  | Ok (M.String s') -> check Alcotest.string "hostile string survives" s s'
  | Ok _ -> Alcotest.fail "not a string"
  | Error m -> Alcotest.failf "parse error: %s" m);
  (* Compact form is single-line. *)
  let j =
    M.Obj [ ("a", M.List [ M.Int 1; M.Float 2.5 ]); ("b", M.String "x\ny") ]
  in
  check Alcotest.bool "compact has no raw newline" true
    (not (String.contains (M.to_compact_string j) '\n'))

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "telemetry"
    [
      ( "trace",
        [
          Alcotest.test_case "injected clock" `Quick test_injected_clock;
          Alcotest.test_case "ring bounds" `Quick test_ring_bounds;
          Alcotest.test_case "disabled is no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "unwind closes children" `Quick
            test_unwind_closes_children;
          Alcotest.test_case "span closes on exception" `Quick
            test_span_closes_on_exception;
          Alcotest.test_case "self time by name" `Quick test_self_ms_by_name;
          Alcotest.test_case "recovery spans" `Quick test_recovery_spans;
          Alcotest.test_case "parallel traversal spans" `Quick
            test_parallel_tracks;
          Alcotest.test_case "statement id per track" `Quick
            test_query_id_per_track;
          Alcotest.test_case "catapult export parses" `Quick
            test_catapult_parses;
        ] );
      qsuite "trace-properties" [ wellformed_prop ];
      ( "registry",
        [
          Alcotest.test_case "percentiles" `Quick test_registry_percentiles;
          Alcotest.test_case "prometheus shape" `Quick
            test_registry_prometheus;
          Alcotest.test_case "table" `Quick test_registry_table;
        ] );
      ( "db",
        [
          Alcotest.test_case "session histogram over 110 statements" `Quick
            test_db_session_histogram;
          Alcotest.test_case "failed statement counted" `Quick
            test_db_failed_statement_counted;
          Alcotest.test_case "last_stats cleared on failure" `Quick
            test_last_stats_cleared_on_failure;
          Alcotest.test_case "SET slow_query_ms" `Quick test_set_slow_query_ms;
        ] );
      ( "json",
        [
          Alcotest.test_case "special cases" `Quick test_json_special_cases;
        ] );
      qsuite "json-properties" [ roundtrip_prop ];
    ]
