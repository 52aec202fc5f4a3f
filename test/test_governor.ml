(* The resource governor and the fault-injection harness.

   Covers: every budget axis (timeout / rows / steps / frontier / paths),
   cooperative cancellation, fault injection at a checkpoint of each
   execution layer (interp, BFS, Dijkstra, all-paths, sql_bfs), the
   Db.protect exception taxonomy, governor counters in Interp.stats, and
   — the point of the whole subsystem — that a statement killed mid-run
   leaves the session and any open transaction snapshot intact. *)

module V = Storage.Value
module Gov = Sqlgraph.Governor
module Fault = Sqlgraph.Fault
module Err = Sqlgraph.Error

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let kind_name = function
  | Ok _ -> "ok"
  | Error (Err.Resource_error { kind; _ }) -> Err.resource_kind_name kind
  | Error e -> Err.to_string e

(* Assert an exec/query outcome failed with the given resource kind. *)
let check_kind what expected outcome =
  match outcome with
  | Error (Err.Resource_error { kind; _ }) when kind = expected -> ()
  | other ->
    Alcotest.failf "%s: expected %s resource error, got %s" what
      (Err.resource_kind_name expected)
      (kind_name other)

let exec_exn db sql = ignore (Sqlgraph.Db.exec_exn db sql)

(* A directed chain 1 -> 2 -> ... -> n. *)
let chain_db n =
  let db = Sqlgraph.Db.create () in
  exec_exn db "CREATE TABLE e (src INTEGER, dst INTEGER, w DOUBLE)";
  let buf = Buffer.create 1024 in
  for i = 1 to n - 1 do
    if Buffer.length buf > 0 then Buffer.add_string buf ", ";
    Buffer.add_string buf (Printf.sprintf "(%d, %d, 1.5)" i (i + 1))
  done;
  exec_exn db (Printf.sprintf "INSERT INTO e VALUES %s" (Buffer.contents buf));
  db

(* A broom: star 0 -> 1..n followed by a chain n -> n+1 -> ... -> n+tail.
   The BFS queue holds ~n vertices while the star layer drains, and the
   target sits at the end of the tail so the search cannot early-exit
   before the throttled checkpoint observes the fat frontier. *)
let broom_db n tail =
  let db = Sqlgraph.Db.create () in
  exec_exn db "CREATE TABLE e (src INTEGER, dst INTEGER)";
  let buf = Buffer.create 1024 in
  for i = 1 to n do
    if Buffer.length buf > 0 then Buffer.add_string buf ", ";
    Buffer.add_string buf (Printf.sprintf "(0, %d)" i)
  done;
  for i = n to n + tail - 1 do
    Buffer.add_string buf (Printf.sprintf ", (%d, %d)" i (i + 1))
  done;
  exec_exn db (Printf.sprintf "INSERT INTO e VALUES %s" (Buffer.contents buf));
  db

let reaches = "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (src, dst)"

let weighted =
  "SELECT CHEAPEST SUM(w) WHERE ? REACHES ? OVER e EDGE (src, dst)"

(* ------------------------------------------------------------------ *)
(* Budgets                                                             *)
(* ------------------------------------------------------------------ *)

let test_no_limits () =
  let db = chain_db 50 in
  let r =
    Sqlgraph.Db.query db ~params:[| V.Int 1; V.Int 50 |]
      ~budget:Gov.no_limits reaches
  in
  match r with
  | Ok rs -> check tbool "distance 49" true (Sqlgraph.Resultset.value rs = V.Int 49)
  | Error e -> Alcotest.failf "no_limits failed: %s" (Err.to_string e)

let test_timeout_large_graph () =
  (* A graph big enough that the traversal cannot finish in 10ms, and a
     deadline short enough that the governor must interrupt it. The
     statement has to come back promptly (checkpoints fire every ~64
     kernel iterations) and the session must stay usable. *)
  let graph =
    Datagen.Snb.generate_custom ~persons:20000 ~friendships:100000 ~seed:7 ()
  in
  let db = Sqlgraph.Db.create () in
  Sqlgraph.Db.load_table db ~name:"friends" graph.Datagen.Snb.friends;
  let budget = Gov.budget ~timeout_ms:10. () in
  let t0 = Unix.gettimeofday () in
  let r =
    Sqlgraph.Db.query db ~params:[| V.Int 1; V.Int 19999 |] ~budget
      "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)"
  in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  check_kind "10ms deadline" Err.Timeout r;
  (* Promptness: generous slack over the ~2x-deadline target so slow CI
     machines don't flake, but still far below the ungoverned runtime. *)
  check tbool
    (Printf.sprintf "interrupted promptly (%.1fms)" elapsed_ms)
    true (elapsed_ms < 1000.);
  (* session survives *)
  let r2 = Sqlgraph.Db.query_exn db "SELECT 1" in
  check tbool "session alive" true (Sqlgraph.Resultset.value r2 = V.Int 1)

let test_max_steps () =
  let db = chain_db 2000 in
  let budget = Gov.budget ~max_steps:100 () in
  check_kind "steps budget" Err.Steps
    (Sqlgraph.Db.query db ~params:[| V.Int 1; V.Int 2000 |] ~budget reaches)

let test_max_frontier () =
  let db = broom_db 2000 200 in
  let budget = Gov.budget ~max_frontier:50 () in
  check_kind "frontier budget" Err.Frontier
    (Sqlgraph.Db.query db ~params:[| V.Int 0; V.Int 2200 |] ~budget reaches)

let test_max_rows_result () =
  let db = chain_db 100 in
  let budget = Gov.budget ~max_rows:10 () in
  check_kind "result rows" Err.Rows
    (Sqlgraph.Db.query db ~budget "SELECT * FROM e");
  (* at the limit is fine *)
  let ok =
    Sqlgraph.Db.query db ~budget:(Gov.budget ~max_rows:99 ()) "SELECT * FROM e"
  in
  check tbool "exactly at limit passes" true (Result.is_ok ok)

let test_max_rows_rec_cte () =
  let db = chain_db 500 in
  let budget = Gov.budget ~max_rows:50 () in
  check_kind "recursive CTE accumulation" Err.Rows
    (Sqlgraph.Db.query db ~budget
       "WITH RECURSIVE r (node) AS (SELECT 1 UNION \
          SELECT e.dst FROM r JOIN e ON r.node = e.src) \
        SELECT COUNT(*) FROM r")

let test_max_paths_kernel () =
  (* A diamond lattice: k stacked diamonds give 2^k shortest paths, so
     enumeration must be stopped by the paths budget, not by distance. *)
  let k = 10 in
  let src = ref [] and dst = ref [] in
  (* diamond i: a = 3i, b1 = 3i+1, b2 = 3i+2, c = 3(i+1) *)
  for i = 0 to k - 1 do
    let a = (3 * i) and b1 = (3 * i) + 1 and b2 = (3 * i) + 2 in
    let c = 3 * (i + 1) in
    src := !src @ [ a; a; b1; b2 ];
    dst := !dst @ [ b1; b2; c; c ]
  done;
  let csr =
    Graph.Csr.build ~vertex_count:((3 * k) + 1)
      ~src:(Array.of_list !src) ~dst:(Array.of_list !dst)
  in
  let gov = Gov.start (Gov.budget ~max_paths:50 ()) in
  let chk = Gov.checkpoint gov in
  let dag = Graph.All_paths.build ~check:chk csr ~source:0 in
  check tint "2^10 distinct paths"
    1024
    (Graph.All_paths.count_paths ~check:chk dag ~target:(3 * k));
  match
    Graph.All_paths.enumerate ~check:chk dag ~target:(3 * k) ~limit:2000 ()
  with
  | _ -> Alcotest.fail "paths budget not enforced"
  | exception Gov.Resource_error { kind = Err.Paths; spent; _ } ->
    (* per-path reporting makes the budget exact: it trips at path 51 *)
    check tint "exact path accounting" 51 (int_of_float spent)

let test_cancellation () =
  let gov = Gov.start Gov.no_limits in
  Gov.check gov ~site:"test" ();
  check tbool "not cancelled yet" false (Gov.cancelled gov);
  Gov.cancel gov;
  match Gov.check gov ~site:"test" () with
  | () -> Alcotest.fail "cancelled governor did not raise"
  | exception Gov.Resource_error { kind = Err.Cancelled; _ } -> ()

let test_counters_in_stats () =
  let db = chain_db 300 in
  let rs =
    Sqlgraph.Db.query_exn db ~params:[| V.Int 1; V.Int 300 |]
      ~budget:(Gov.budget ~timeout_ms:60000. ())
      reaches
  in
  check tbool "query answered" true (Sqlgraph.Resultset.value rs = V.Int 299);
  match Sqlgraph.Db.last_stats db with
  | None -> Alcotest.fail "no stats recorded"
  | Some s ->
    check tbool "checkpoints fired" true (s.Executor.Interp.gov_checks > 0);
    check tbool "steps counted" true (s.Executor.Interp.gov_steps > 0);
    check tbool "budget remaining known" true
      (Float.is_finite s.Executor.Interp.gov_budget_remaining_ms
      && s.Executor.Interp.gov_budget_remaining_ms > 0.)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

(* Each layer: arm At_site, run a statement that reaches that site,
   expect a Fault resource error, then prove the harness is one-shot by
   re-running the same statement successfully. *)
let fault_roundtrip db site ?params sql =
  Fault.set (Some (Fault.At_site site));
  check_kind (site ^ " fault") Err.Fault (Sqlgraph.Db.query db ?params sql);
  check tbool (site ^ " fault disarmed itself") true (Fault.current () = None);
  match Sqlgraph.Db.query db ?params sql with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "%s: rerun after one-shot fault failed: %s" site
      (Err.to_string e)

let test_fault_interp () =
  let db = chain_db 10 in
  fault_roundtrip db "interp" "SELECT * FROM e WHERE src < 5"

let test_fault_bfs () =
  let db = chain_db 200 in
  fault_roundtrip db "bfs" ~params:[| V.Int 1; V.Int 200 |] reaches

let test_fault_dijkstra () =
  let db = chain_db 200 in
  fault_roundtrip db "dijkstra" ~params:[| V.Int 1; V.Int 200 |] weighted

let test_fault_all_paths () =
  let csr =
    Graph.Csr.build ~vertex_count:4 ~src:[| 0; 0; 1; 2 |] ~dst:[| 1; 2; 3; 3 |]
  in
  let gov = Gov.start Gov.no_limits in
  let chk = Gov.checkpoint gov in
  let dag = Graph.All_paths.build ~check:chk csr ~source:0 in
  Fault.set (Some (Fault.At_site "all_paths"));
  (match Graph.All_paths.enumerate ~check:chk dag ~target:3 () with
  | _ -> Alcotest.fail "all_paths fault did not fire"
  | exception Fault.Injected { site; _ } ->
    check tbool "site is all_paths" true (site = "all_paths"));
  check tbool "one-shot" true (Fault.current () = None);
  check tint "enumeration works after disarm" 2
    (List.length (Graph.All_paths.enumerate ~check:chk dag ~target:3 ()))

let test_fault_sql_bfs_baseline () =
  let db = chain_db 30 in
  let gov = Gov.start Gov.no_limits in
  Fault.set (Some (Fault.At_site "sql_bfs"));
  (match
     Baselines.Sql_bfs.frontier_distance db ~governor:gov ~edge_table:"e"
       ~src_col:"src" ~dst_col:"dst" ~source:1 ~target:30 ()
   with
  | _ -> Alcotest.fail "sql_bfs fault did not fire"
  | exception Gov.Resource_error _ -> Alcotest.fail "wrong exception"
  | exception Fault.Injected { site; _ } ->
    check tbool "site is sql_bfs" true (site = "sql_bfs"));
  (* the driver's cleanup ran: its temp tables are gone *)
  let leftovers =
    List.filter
      (fun n ->
        Astring.String.is_prefix ~affix:"baseline_" n)
      (Storage.Catalog.names (Sqlgraph.Db.catalog db))
  in
  check tint "temp tables dropped on unwind" 0 (List.length leftovers);
  check tint "baseline works after disarm" 29
    (Option.get
       (Baselines.Sql_bfs.frontier_distance db ~governor:gov ~edge_table:"e"
          ~src_col:"src" ~dst_col:"dst" ~source:1 ~target:30 ()))

let test_fault_after_checks () =
  let db = chain_db 100 in
  Fault.set (Some (Fault.After_checks 5));
  check_kind "after=5" Err.Fault
    (Sqlgraph.Db.query db ~params:[| V.Int 1; V.Int 100 |] reaches);
  check tbool "disarmed" true (Fault.current () = None)

let test_fault_parse_and_env () =
  check tbool "after=3" true (Fault.parse "after=3" = Some (Fault.After_checks 3));
  check tbool "site=bfs" true (Fault.parse "site=bfs" = Some (Fault.At_site "bfs"));
  check tbool "off" true (Fault.parse "off" = None);
  check tbool "empty" true (Fault.parse "" = None);
  check tbool "garbage" true (Fault.parse "garbage" = None);
  check tbool "after=x" true (Fault.parse "after=x" = None);
  check tbool "site=" true (Fault.parse "site=" = None);
  Unix.putenv Fault.env_var "site=dijkstra";
  Fault.arm_from_env ();
  check tbool "armed from env" true
    (Fault.current () = Some (Fault.At_site "dijkstra"));
  Fault.clear ();
  Unix.putenv Fault.env_var "off";
  Fault.arm_from_env ();
  check tbool "env off leaves disarmed" true (Fault.current () = None)

(* ------------------------------------------------------------------ *)
(* The bidirectional kernel                                            *)
(* ------------------------------------------------------------------ *)

(* A cost-only single pair on an indexed graph runs Bfs.distance, not the
   one-sided BFS: it must honour budgets and faults the same way, and the
   pooled workspace it leaves behind must answer the next query. *)
let indexed_chain_db n =
  let db = chain_db n in
  (match Sqlgraph.Db.create_graph_index db ~table:"e" ~src:"src" ~dst:"dst" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "index: %s" (Err.to_string e));
  db

let cost_rows db ~src ~dst =
  Sqlgraph.Resultset.rows
    (Sqlgraph.Db.query_exn db ~params:[| V.Int src; V.Int dst |] reaches)

let test_bidir_budget () =
  let db = indexed_chain_db 2000 in
  (match
     Sqlgraph.Db.exec_exn db
       "EXPLAIN ANALYZE SELECT CHEAPEST SUM(1) WHERE 1 REACHES 2000 OVER e \
        EDGE (src, dst)"
   with
  | Sqlgraph.Db.Explained out ->
    check tbool "bidirectional search" true
      (Astring.String.is_infix ~affix:"search=bidir" out)
  | _ -> Alcotest.fail "expected Explained");
  check_kind "steps budget" Err.Steps
    (Sqlgraph.Db.query db ~params:[| V.Int 1; V.Int 2000 |]
       ~budget:(Gov.budget ~max_steps:100 ()) reaches);
  check tbool "next query on the pooled workspace" true
    (cost_rows db ~src:1 ~dst:2000 = [ [ V.Int 1999 ] ]);
  match Sqlgraph.Db.last_stats db with
  | Some s -> check tbool "workspace reused" true (s.Executor.Interp.pool_hits >= 1)
  | None -> Alcotest.fail "no stats recorded"

let test_bidir_fault () =
  let db = indexed_chain_db 200 in
  List.iter
    (fun (src, dst, want) ->
      let what = Printf.sprintf "%d -> %d" src dst in
      Fault.set (Fault.parse "site=bfs");
      check_kind what Err.Fault
        (Sqlgraph.Db.query db ~params:[| V.Int src; V.Int dst |] reaches);
      check tbool (what ^ ": disarmed") true (Fault.current () = None);
      check tbool (what ^ ": answer after the fault") true
        (cost_rows db ~src ~dst = want))
    (* source = destination and adjacent pairs finish within one
       throttled interval: the fault must still fire once per search *)
    [
      (1, 1, [ [ V.Int 0 ] ]);
      (1, 2, [ [ V.Int 1 ] ]);
      (1, 200, [ [ V.Int 199 ] ]);
      (200, 1, []);
    ]

(* A weighted single pair on an indexed graph runs Dijkstra.bidir_int,
   path or not: integer weights (3 per chain edge) on the radix heap. *)
let weighted_path =
  "SELECT CHEAPEST SUM(CAST(w * 2 AS INTEGER)) AS (cost, path) WHERE ? \
   REACHES ? OVER e EDGE (src, dst)"

(* (cost, edge rows of the path) per result row; chain edge i -> i + 1 is
   row i - 1 *)
let weighted_rows db ~src ~dst =
  List.map
    (function
      | [ V.Int cost; path ] -> (cost, snd (Option.get (Executor.Nested.destruct path)))
      | _ -> Alcotest.fail "expected an (INTEGER, PATH) row")
    (Sqlgraph.Resultset.rows
       (Sqlgraph.Db.query_exn db ~params:[| V.Int src; V.Int dst |]
          weighted_path))

let test_weighted_bidir_budget () =
  let db = indexed_chain_db 2000 in
  check_kind "steps budget" Err.Steps
    (Sqlgraph.Db.query db ~params:[| V.Int 1; V.Int 2000 |]
       ~budget:(Gov.budget ~max_steps:100 ()) weighted_path);
  check tbool "next query on the pooled workspace" true
    (weighted_rows db ~src:1 ~dst:2000 = [ (5997, Array.init 1999 Fun.id) ]);
  match Sqlgraph.Db.last_stats db with
  | Some s -> check tbool "workspace reused" true (s.Executor.Interp.pool_hits >= 1)
  | None -> Alcotest.fail "no stats recorded"

let test_weighted_bidir_fault () =
  let db = indexed_chain_db 200 in
  List.iter
    (fun (src, dst, want) ->
      let what = Printf.sprintf "%d -> %d" src dst in
      Fault.set (Fault.parse "site=dijkstra");
      check_kind what Err.Fault
        (Sqlgraph.Db.query db ~params:[| V.Int src; V.Int dst |] weighted_path);
      check tbool (what ^ ": disarmed") true (Fault.current () = None);
      check tbool (what ^ ": answer after the fault") true
        (weighted_rows db ~src ~dst = want))
    [
      (1, 1, [ (0, [||]) ]);
      (1, 2, [ (3, [| 0 |]) ]);
      (1, 200, [ (597, Array.init 199 Fun.id) ]);
      (200, 1, []);
    ]

(* ------------------------------------------------------------------ *)
(* Failure safety: sessions and transactions survive                   *)
(* ------------------------------------------------------------------ *)

let rows_of db sql = Sqlgraph.Resultset.rows (Sqlgraph.Db.query_exn db sql)

let test_txn_snapshot_survives_fault () =
  let db = Sqlgraph.Db.create () in
  exec_exn db "CREATE TABLE t (id INTEGER, v INTEGER)";
  exec_exn db "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)";
  exec_exn db "BEGIN";
  exec_exn db "INSERT INTO t VALUES (4, 40)";
  let before = rows_of db "SELECT * FROM t ORDER BY id" in
  (* kill an UPDATE mid-statement, inside the open transaction (DML
     statements checkpoint at site "dml" before evaluating) *)
  Fault.set (Some (Fault.At_site "dml"));
  check_kind "update killed" Err.Fault
    (Sqlgraph.Db.exec db "UPDATE t SET v = v + 1 WHERE id >= 1");
  (* the failed statement changed nothing *)
  check tbool "table unchanged by failed statement" true
    (rows_of db "SELECT * FROM t ORDER BY id" = before);
  (* the transaction is still open and functional *)
  exec_exn db "INSERT INTO t VALUES (5, 50)";
  check tint "txn still accepts statements" 5
    (List.length (rows_of db "SELECT * FROM t"));
  (* rollback restores the BEGIN snapshot *)
  exec_exn db "ROLLBACK";
  check tbool "rollback restores snapshot" true
    (rows_of db "SELECT * FROM t ORDER BY id"
    = [ [ V.Int 1; V.Int 10 ]; [ V.Int 2; V.Int 20 ]; [ V.Int 3; V.Int 30 ] ])

let test_txn_commit_after_budget_failure () =
  let db = chain_db 2000 in
  exec_exn db "BEGIN";
  exec_exn db "INSERT INTO e VALUES (9001, 9002, 1.0)";
  (* a budget failure mid-transaction... *)
  check_kind "steps exhausted in txn" Err.Steps
    (Sqlgraph.Db.query db ~params:[| V.Int 1; V.Int 2000 |]
       ~budget:(Gov.budget ~max_steps:10 ())
       reaches);
  (* ...doesn't poison the transaction: COMMIT keeps the good insert *)
  exec_exn db "COMMIT";
  check tint "committed row survived" 1
    (List.length (rows_of db "SELECT * FROM e WHERE src = 9001"))

let test_insert_select_atomic_under_fault () =
  let db = Sqlgraph.Db.create () in
  exec_exn db "CREATE TABLE src_t (id INTEGER)";
  exec_exn db "INSERT INTO src_t VALUES (1), (2), (3), (4)";
  exec_exn db "CREATE TABLE dst_t (id INTEGER)";
  (* the fault fires inside the INSERT ... SELECT's source evaluation;
     the staged append must not leave a partial insert behind *)
  Fault.set (Some (Fault.At_site "interp"));
  check_kind "insert-select killed" Err.Fault
    (Sqlgraph.Db.exec db "INSERT INTO dst_t SELECT id FROM src_t");
  check tint "no partial insert" 0 (List.length (rows_of db "SELECT * FROM dst_t"))

(* ------------------------------------------------------------------ *)
(* The Db.protect / guard taxonomy                                     *)
(* ------------------------------------------------------------------ *)

let test_protect_taxonomy () =
  let io = function Error (Err.Io_error _) -> true | _ -> false in
  let internal = function Error (Err.Internal_error _) -> true | _ -> false in
  check tbool "Csv_error -> Io_error" true
    (io (Sqlgraph.Db.protect (fun () -> raise (Err.Csv_error "bad row"))));
  check tbool "Sys_error -> Io_error" true
    (io (Sqlgraph.Db.protect (fun () -> raise (Sys_error "no such file"))));
  check tbool "Not_found -> Internal_error" true
    (internal (Sqlgraph.Db.protect (fun () -> raise Not_found)));
  check tbool "Stack_overflow -> Internal_error" true
    (internal (Sqlgraph.Db.protect (fun () -> raise Stack_overflow)));
  check tbool "ok passes through" true
    (Sqlgraph.Db.protect (fun () -> 42) = Ok 42)

let test_csv_import_guarded () =
  let db = Sqlgraph.Db.create () in
  (match Sqlgraph.Csv.import_untyped db ~path:"/nonexistent/x.csv" ~table:"t" with
  | Error (Err.Io_error _) -> ()
  | Ok _ -> Alcotest.fail "import of missing file succeeded"
  | Error e -> Alcotest.failf "wrong error: %s" (Err.to_string e));
  let path = Filename.temp_file "sqlgraph_gov" ".csv" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc "a,b\n1,x\n2,y\n");
  (match Sqlgraph.Csv.import_untyped db ~path ~table:"t" with
  | Ok 2 -> ()
  | Ok n -> Alcotest.failf "expected 2 rows, got %d" n
  | Error e -> Alcotest.failf "import failed: %s" (Err.to_string e));
  Sys.remove path;
  check tint "imported rows queryable" 2
    (List.length (rows_of db "SELECT a, b FROM t"))

let () =
  (* belt and braces: never let a leftover armed fault leak across tests *)
  let wrap f () =
    Fault.clear ();
    Fun.protect ~finally:Fault.clear f
  in
  let tc name f = Alcotest.test_case name `Quick (wrap f) in
  Alcotest.run "governor"
    [
      ( "budgets",
        [
          tc "no limits" test_no_limits;
          tc "timeout on a large graph" test_timeout_large_graph;
          tc "max steps" test_max_steps;
          tc "max frontier" test_max_frontier;
          tc "max rows (result)" test_max_rows_result;
          tc "max rows (recursive CTE)" test_max_rows_rec_cte;
          tc "max paths (kernel)" test_max_paths_kernel;
          tc "cancellation token" test_cancellation;
          tc "counters merged into stats" test_counters_in_stats;
        ] );
      ( "faults",
        [
          tc "interp checkpoint" test_fault_interp;
          tc "bfs checkpoint" test_fault_bfs;
          tc "dijkstra checkpoint" test_fault_dijkstra;
          tc "all-paths checkpoint" test_fault_all_paths;
          tc "sql_bfs baseline checkpoint" test_fault_sql_bfs_baseline;
          tc "after-N-checks" test_fault_after_checks;
          tc "parse + env arming" test_fault_parse_and_env;
        ] );
      ( "bidirectional kernel",
        [
          tc "budget cancels, pool recovers" test_bidir_budget;
          tc "bfs fault once per search" test_bidir_fault;
          tc "weighted: budget cancels, pool recovers"
            test_weighted_bidir_budget;
          tc "weighted: dijkstra fault once per search"
            test_weighted_bidir_fault;
        ] );
      ( "failure safety",
        [
          tc "txn snapshot survives fault" test_txn_snapshot_survives_fault;
          tc "commit after budget failure" test_txn_commit_after_budget_failure;
          tc "insert-select stays atomic" test_insert_select_atomic_under_fault;
        ] );
      ( "guard taxonomy",
        [
          tc "protect maps exceptions" test_protect_taxonomy;
          tc "csv import guarded" test_csv_import_guarded;
        ] );
    ]
