(* End-to-end tests of the paper's extension: the appendix examples
   verbatim, semantic edge cases, the graph index, and randomized
   equivalence against an independent BFS reference. *)

module V = Storage.Value

open Testjson.Support

(* The appendix fixture: persons and friendships of Figure 2 (the subset
   the examples actually touch), friendships stored in both directions. *)
let paper_db () =
  let db = Sqlgraph.Db.create () in
  let e sql = ignore (Sqlgraph.Db.exec_exn db sql) in
  e "CREATE TABLE persons (id INTEGER, firstName VARCHAR, lastName VARCHAR)";
  e
    "INSERT INTO persons VALUES (933, 'Mahinda', 'Perera'), \
     (1129, 'Carmen', 'Lepland'), (8333, 'Chen', 'Wang'), \
     (4139, 'Hans', 'Johansson'), (6597, 'Fritz', 'Muller')";
  e "CREATE TABLE friends (src INTEGER, dst INTEGER, creationDate DATE, weight DOUBLE)";
  e
    "INSERT INTO friends VALUES \
     (933, 1129, '2010-03-24', 0.5), (1129, 933, '2010-03-24', 0.5), \
     (1129, 8333, '2010-12-02', 2.0), (8333, 1129, '2010-12-02', 2.0), \
     (8333, 4139, '2012-05-01', 1.0), (4139, 8333, '2012-05-01', 1.0)";
  (* 6597 has no friends: isolated vertex, not even in the edge table *)
  db


(* ------------------------------------------------------------------ *)
(* The appendix, example by example                                    *)
(* ------------------------------------------------------------------ *)

let test_appendix_a1_q13 () =
  let db = paper_db () in
  let r =
    q db
      ~params:[| V.Int 933; V.Int 8333 |]
      "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)"
  in
  check tbool "distance 2" true (Sqlgraph.Resultset.value r = V.Int 2)

let test_appendix_a2_vertex_properties () =
  let db = paper_db () in
  let r =
    rows db
      ~params:[| V.Int 933; V.Int 8333 |]
      "SELECT p1.firstName || ' ' || p1.lastName AS person1, \
              p2.firstName || ' ' || p2.lastName AS person2, \
              CHEAPEST SUM(1) AS distance \
       FROM persons p1, persons p2 \
       WHERE p1.id = ? AND p2.id = ? \
         AND p1.id REACHES p2.id OVER friends EDGE (src, dst)"
  in
  check tbool "the paper's result row" true
    (r = [ [ V.Str "Mahinda Perera"; V.Str "Chen Wang"; V.Int 2 ] ])

let test_appendix_a3_reachability () =
  let db = paper_db () in
  let r =
    rows db ~params:[| V.Int 933 |]
      "WITH friends1 AS (SELECT * FROM friends WHERE creationDate < '2011-01-01') \
       SELECT firstName || ' ' || lastName AS person \
       FROM persons WHERE ? REACHES id OVER friends1 EDGE (src, dst)"
  in
  check tbool "three reachable persons" true
    (r
    = [
        [ V.Str "Mahinda Perera" ];
        [ V.Str "Carmen Lepland" ];
        [ V.Str "Chen Wang" ];
      ])

let test_appendix_a4_weighted_paths () =
  let db = paper_db () in
  let r =
    rows db ~params:[| V.Int 933 |]
      "WITH friends1 AS (SELECT * FROM friends WHERE creationDate < '2011-01-01') \
       SELECT firstName || ' ' || lastName AS person, \
              CHEAPEST SUM(f: CAST(weight * 2 AS INTEGER)) AS (cost, path) \
       FROM persons WHERE ? REACHES id OVER friends1 f EDGE (src, dst)"
  in
  (* costs from the paper: Mahinda 0, Carmen 1, Chen 5 *)
  let costs = List.map (fun row -> List.nth row 1) r in
  check tbool "costs" true (costs = [ V.Int 0; V.Int 1; V.Int 5 ]);
  let path_lengths =
    List.map
      (fun row ->
        match List.nth row 2 with
        | V.Path { rows; _ } -> Array.length rows
        | _ -> -1)
      r
  in
  check tbool "path lengths 0/1/2" true (path_lengths = [ 0; 1; 2 ])

let test_appendix_a4_unnest () =
  let db = paper_db () in
  let r =
    rows db ~params:[| V.Int 933 |]
      "SELECT T.person, T.cost, R.src, R.dst FROM ( \
         WITH friends1 AS (SELECT * FROM friends WHERE creationDate < '2011-01-01') \
         SELECT firstName || ' ' || lastName AS person, \
                CHEAPEST SUM(f: CAST(weight * 2 AS INTEGER)) AS (cost, path) \
         FROM persons WHERE ? REACHES id OVER friends1 f EDGE (src, dst) \
       ) T, UNNEST(T.path) AS R"
  in
  (* exactly the paper's final result table: Mahinda's empty path is
     discarded by the inner lateral join *)
  check tbool "paper's unnested result" true
    (r
    = [
        [ V.Str "Carmen Lepland"; V.Int 1; V.Int 933; V.Int 1129 ];
        [ V.Str "Chen Wang"; V.Int 5; V.Int 933; V.Int 1129 ];
        [ V.Str "Chen Wang"; V.Int 5; V.Int 1129; V.Int 8333 ];
      ])

let test_left_outer_unnest_keeps_empty_paths () =
  let db = paper_db () in
  let r =
    rows db ~params:[| V.Int 933 |]
      "SELECT T.person, R.src FROM ( \
         WITH friends1 AS (SELECT * FROM friends WHERE creationDate < '2011-01-01') \
         SELECT firstName AS person, CHEAPEST SUM(f: 1) AS (cost, path) \
         FROM persons WHERE ? REACHES id OVER friends1 f EDGE (src, dst) \
       ) T LEFT JOIN UNNEST(T.path) AS R ON TRUE"
  in
  (* Mahinda (source = destination) is retained with NULL edge columns *)
  check tbool "retained with nulls" true
    (List.mem [ V.Str "Mahinda"; V.Null ] r);
  (* Mahinda padded once + Carmen's 1 edge + Chen's 2 edges *)
  check tint "padded plus real edges" 4 (List.length r)

let test_unnest_with_ordinality () =
  let db = paper_db () in
  let r =
    rows db ~params:[| V.Int 933; V.Int 4139 |]
      "SELECT R.ordinality, R.src, R.dst FROM ( \
         SELECT CHEAPEST SUM(e: 1) AS (c, p) \
         WHERE ? REACHES ? OVER friends e EDGE (src, dst)) T, \
       UNNEST(T.p) WITH ORDINALITY AS R"
  in
  check tbool "ordered hops" true
    (r
    = [
        [ V.Int 1; V.Int 933; V.Int 1129 ];
        [ V.Int 2; V.Int 1129; V.Int 8333 ];
        [ V.Int 3; V.Int 8333; V.Int 4139 ];
      ])

(* ------------------------------------------------------------------ *)
(* Semantics around the extension                                      *)
(* ------------------------------------------------------------------ *)

let test_unreachable_pairs_filtered () =
  let db = paper_db () in
  (* 6597 is not a vertex of the friends graph at all *)
  let r =
    rows db ~params:[| V.Int 933; V.Int 6597 |]
      "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)"
  in
  check tint "empty result" 0 (List.length r)

let test_source_equals_destination () =
  let db = paper_db () in
  let r =
    q db ~params:[| V.Int 933; V.Int 933 |]
      "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)"
  in
  check tbool "cost 0" true (Sqlgraph.Resultset.value r = V.Int 0)

let test_float_weights () =
  let db = paper_db () in
  let r =
    q db ~params:[| V.Int 933; V.Int 8333 |]
      "SELECT CHEAPEST SUM(e: weight) AS c \
       WHERE ? REACHES ? OVER friends e EDGE (src, dst)"
  in
  check tbool "0.5 + 2.0" true (Sqlgraph.Resultset.value r = V.Float 2.5)

let test_weight_must_be_positive () =
  let db = paper_db () in
  match
    Sqlgraph.Db.query db ~params:[| V.Int 933; V.Int 8333 |]
      "SELECT CHEAPEST SUM(e: weight - 0.5) AS c \
       WHERE ? REACHES ? OVER friends e EDGE (src, dst)"
  with
  | Error (Sqlgraph.Error.Runtime_error m) ->
    check tbool "mentions the rule" true
      (Astring.String.is_infix ~affix:"> 0" m)
  | _ -> Alcotest.fail "expected a weight error"

let test_reachability_only_query () =
  let db = paper_db () in
  (* no CHEAPEST SUM: pure filter semantics *)
  let r =
    rows db ~params:[| V.Int 4139 |]
      "SELECT id FROM persons WHERE ? REACHES id OVER friends EDGE (src, dst) ORDER BY id"
  in
  check tbool "all four connected" true
    (r = [ [ V.Int 933 ]; [ V.Int 1129 ]; [ V.Int 4139 ]; [ V.Int 8333 ] ])

let test_graph_direction_respected () =
  let db = Sqlgraph.Db.create () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE e (a INTEGER, b INTEGER)");
  ignore (Sqlgraph.Db.exec_exn db "INSERT INTO e VALUES (1, 2), (2, 3)");
  let reaches s d =
    rows db
      ~params:[| V.Int s; V.Int d |]
      "SELECT 1 WHERE ? REACHES ? OVER e EDGE (a, b)"
    <> []
  in
  check tbool "forward" true (reaches 1 3);
  check tbool "backward" false (reaches 3 1)

let test_multiple_reaches_predicates () =
  let db = Sqlgraph.Db.create () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE g1 (a INTEGER, b INTEGER)");
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE g2 (a INTEGER, b INTEGER)");
  ignore (Sqlgraph.Db.exec_exn db "INSERT INTO g1 VALUES (1, 2), (2, 3)");
  ignore (Sqlgraph.Db.exec_exn db "INSERT INTO g2 VALUES (1, 5)");
  let r =
    rows db
      ~params:[| V.Int 1; V.Int 3; V.Int 1; V.Int 5 |]
      "SELECT CHEAPEST SUM(x: 1) AS c1, CHEAPEST SUM(y: 1) AS c2 \
       WHERE ? REACHES ? OVER g1 x EDGE (a, b) \
         AND ? REACHES ? OVER g2 y EDGE (a, b)"
  in
  check tbool "both costs" true (r = [ [ V.Int 2; V.Int 1 ] ]);
  (* if either predicate fails the row is filtered *)
  let r2 =
    rows db
      ~params:[| V.Int 1; V.Int 3; V.Int 5; V.Int 1 |]
      "SELECT CHEAPEST SUM(x: 1) AS c1, CHEAPEST SUM(y: 1) AS c2 \
       WHERE ? REACHES ? OVER g1 x EDGE (a, b) \
         AND ? REACHES ? OVER g2 y EDGE (a, b)"
  in
  check tint "conjunction filters" 0 (List.length r2)

let test_batched_pairs_table () =
  let db = paper_db () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE pairs (s INTEGER, d INTEGER)");
  ignore
    (Sqlgraph.Db.exec_exn db
       "INSERT INTO pairs VALUES (933, 8333), (933, 4139), (1129, 4139), (933, 6597)");
  let r =
    rows db
      "SELECT s, d, CHEAPEST SUM(1) AS c FROM pairs \
       WHERE s REACHES d OVER friends EDGE (src, dst) ORDER BY s, d"
  in
  (* the 933->6597 pair is unreachable and filtered; one graph build for
     the whole batch (the Figure 1b execution shape) *)
  check tbool "batch" true
    (r
    = [
        [ V.Int 933; V.Int 4139; V.Int 3 ];
        [ V.Int 933; V.Int 8333; V.Int 2 ];
        [ V.Int 1129; V.Int 4139; V.Int 2 ];
      ]);
  match Sqlgraph.Db.last_stats db with
  | Some s -> check tint "single graph build" 1 s.Executor.Interp.graphs_built
  | None -> Alcotest.fail "expected stats"

let test_cheapest_inside_expression () =
  let db = paper_db () in
  let r =
    q db ~params:[| V.Int 933; V.Int 8333 |]
      "SELECT CHEAPEST SUM(1) * 10 AS c WHERE ? REACHES ? OVER friends EDGE (src, dst)"
  in
  check tbool "scaled" true (Sqlgraph.Resultset.value r = V.Int 20)

let test_edge_table_with_string_keys () =
  let db = Sqlgraph.Db.create () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE routes (f VARCHAR, t VARCHAR)");
  ignore
    (Sqlgraph.Db.exec_exn db
       "INSERT INTO routes VALUES ('AMS', 'LHR'), ('LHR', 'JFK'), ('JFK', 'SFO')");
  let r =
    q db
      ~params:[| V.Str "AMS"; V.Str "SFO" |]
      "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER routes EDGE (f, t)"
  in
  check tbool "string vertices" true (Sqlgraph.Resultset.value r = V.Int 3)

let test_null_edges_are_skipped () =
  let db = Sqlgraph.Db.create () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE e (a INTEGER, b INTEGER)");
  ignore
    (Sqlgraph.Db.exec_exn db "INSERT INTO e VALUES (1, 2), (NULL, 3), (2, NULL)");
  let r =
    rows db
      ~params:[| V.Int 1; V.Int 3 |]
      "SELECT 1 WHERE ? REACHES ? OVER e EDGE (a, b)"
  in
  check tint "null edges define no connectivity" 0 (List.length r)

let test_reaches_over_subquery_edge_table () =
  let db = paper_db () in
  (* the edge table can be an inline subquery, not just a name/CTE *)
  let r =
    rows db ~params:[| V.Int 933 |]
      "SELECT id FROM persons \
       WHERE ? REACHES id OVER (SELECT src, dst FROM friends \
                                WHERE creationDate < '2011-01-01') e \
       EDGE (src, dst) ORDER BY id"
  in
  check tbool "subquery edge table" true
    (r = [ [ V.Int 933 ]; [ V.Int 1129 ]; [ V.Int 8333 ] ])

let test_weight_expression_over_subquery_columns () =
  let db = paper_db () in
  (* weights computed from a derived column of the edge subquery *)
  let r =
    q db ~params:[| V.Int 933; V.Int 8333 |]
      "SELECT CHEAPEST SUM(e: w2) AS c \
       WHERE ? REACHES ? OVER (SELECT src, dst, CAST(weight * 10 AS INTEGER) AS w2 \
                               FROM friends) e EDGE (src, dst)"
  in
  check tbool "derived weight" true (Sqlgraph.Resultset.value r = V.Int 25)

let test_date_arithmetic_in_sql () =
  let db = paper_db () in
  check tbool "date + int" true
    (rows db "SELECT CAST('2010-03-24' AS DATE) + 7"
    = [ [ V.Date (Storage.Date.of_ymd ~year:2010 ~month:3 ~day:31) ] ]);
  check tbool "date - date" true
    (rows db
       "SELECT CAST('2011-01-01' AS DATE) - CAST('2010-12-31' AS DATE)"
    = [ [ V.Int 1 ] ]);
  check tbool "year month day of edges" true
    (rows db
       "SELECT DISTINCT YEAR(creationDate) FROM friends ORDER BY 1"
    = [ [ V.Int 2010 ]; [ V.Int 2012 ] ])

(* soak: a mid-size generated graph, many random pairs, engine vs native *)
let test_soak_against_native () =
  let g = Datagen.Snb.generate_custom ~persons:400 ~friendships:1500 ~seed:77 () in
  let db = Sqlgraph.Db.create () in
  Sqlgraph.Db.load_table db ~name:"friends" g.Datagen.Snb.friends;
  (match Sqlgraph.Db.create_graph_index db ~table:"friends" ~src:"src" ~dst:"dst" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s" (Sqlgraph.Error.to_string e));
  let native =
    Baselines.Native_bfs.of_table g.Datagen.Snb.friends ~src_col:"src"
      ~dst_col:"dst"
  in
  let ids = Datagen.Snb.person_ids g in
  let pairs = Datagen.Workload.random_pairs ~seed:78 ~ids 200 in
  Array.iter
    (fun (s, d) ->
      let expected = Baselines.Native_bfs.distance native ~source:s ~target:d in
      let got =
        match
          rows db
            ~params:[| V.Int s; V.Int d |]
            "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)"
        with
        | [ [ V.Int c ] ] -> Some c
        | [] -> None
        | _ -> Alcotest.fail "unexpected result shape"
      in
      if got <> expected then
        Alcotest.failf "disagreement on %d -> %d: engine %s, native %s" s d
          (match got with Some c -> string_of_int c | None -> "unreachable")
          (match expected with Some c -> string_of_int c | None -> "unreachable"))
    pairs

let test_aggregates_over_graph_results () =
  let db = paper_db () in
  (* group/aggregate over graph-select output: average distance from 933 *)
  let r =
    rows db ~params:[| V.Int 933 |]
      "SELECT COUNT(*) AS reachable, AVG(c) AS avg_dist, MAX(c) AS diameter        FROM (SELECT id, CHEAPEST SUM(1) AS c FROM persons              WHERE ? REACHES id OVER friends EDGE (src, dst)) t"
  in
  (* from 933: itself 0, 1129 at 1, 8333 at 2, 4139 at 3 *)
  check tbool "aggregated costs" true
    (r = [ [ V.Int 4; V.Float 1.5; V.Int 3 ] ]);
  (* histogram of distances *)
  let h =
    rows db ~params:[| V.Int 933 |]
      "SELECT c, COUNT(*) FROM (SELECT CHEAPEST SUM(1) AS c FROM persons        WHERE ? REACHES id OVER friends EDGE (src, dst)) t        GROUP BY c ORDER BY c"
  in
  check tbool "distance histogram" true
    (h
    = [
        [ V.Int 0; V.Int 1 ]; [ V.Int 1; V.Int 1 ]; [ V.Int 2; V.Int 1 ];
        [ V.Int 3; V.Int 1 ];
      ])

(* the dangerous layout case: CHEAPEST SUMs of *different* REACHES
   predicates interleaved in the select list — the appended cost/path
   columns are grouped per operator, not in item order *)
let test_interleaved_cheapests_across_two_reaches () =
  let db = Sqlgraph.Db.create () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE g1 (a INTEGER, b INTEGER, w INTEGER)");
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE g2 (a INTEGER, b INTEGER, w INTEGER)");
  ignore (Sqlgraph.Db.exec_exn db "INSERT INTO g1 VALUES (1, 2, 10), (2, 3, 10)");
  ignore (Sqlgraph.Db.exec_exn db "INSERT INTO g2 VALUES (1, 5, 7)");
  let r =
    rows db
      "SELECT CHEAPEST SUM(y: 1) AS hops2,               CHEAPEST SUM(x: w) AS cost1,               CHEAPEST SUM(y: w) AS cost2,               CHEAPEST SUM(x: 1) AS hops1        WHERE 1 REACHES 3 OVER g1 x EDGE (a, b)          AND 1 REACHES 5 OVER g2 y EDGE (a, b)"
  in
  check tbool "item order preserved, per-op layout correct" true
    (r = [ [ V.Int 1; V.Int 20; V.Int 7; V.Int 2 ] ])

let test_multiple_paths_same_reaches () =
  let db = paper_db () in
  (* two AS (cost, path) items against one predicate: two path columns *)
  let r =
    rows db ~params:[| V.Int 933; V.Int 8333 |]
      "SELECT CHEAPEST SUM(e: 1) AS (hops, p1),               CHEAPEST SUM(e: CAST(weight * 2 AS INTEGER)) AS (wcost, p2)        WHERE ? REACHES ? OVER friends e EDGE (src, dst)"
  in
  match r with
  | [ [ V.Int 2; V.Path { rows = pa; _ }; V.Int 5; V.Path { rows = pb; _ } ] ]
    ->
    check tint "hop path length" 2 (Array.length pa);
    check tint "weighted path length" 2 (Array.length pb)
  | _ -> Alcotest.fail "unexpected shape"

let test_two_graphs_same_query () =
  let db = paper_db () in
  ignore
    (Sqlgraph.Db.exec_exn db "CREATE TABLE follows (a INTEGER, b INTEGER)");
  ignore
    (Sqlgraph.Db.exec_exn db "INSERT INTO follows VALUES (933, 4139), (4139, 6597)");
  (* two REACHES over different edge tables in one query *)
  let r =
    rows db
      ~params:[| V.Int 933; V.Int 8333; V.Int 933; V.Int 6597 |]
      "SELECT CHEAPEST SUM(f: 1) AS via_friends, CHEAPEST SUM(g: 1) AS via_follows        WHERE ? REACHES ? OVER friends f EDGE (src, dst)          AND ? REACHES ? OVER follows g EDGE (a, b)"
  in
  check tbool "two graphs, two costs" true (r = [ [ V.Int 2; V.Int 2 ] ])

let test_order_by_cost_alias () =
  let db = paper_db () in
  let r =
    rows db ~params:[| V.Int 933 |]
      "SELECT id, CHEAPEST SUM(1) AS c FROM persons \
       WHERE ? REACHES id OVER friends EDGE (src, dst) \
       ORDER BY c DESC, id LIMIT 2"
  in
  check tbool "farthest first" true
    (r = [ [ V.Int 4139; V.Int 3 ]; [ V.Int 8333; V.Int 2 ] ])

(* ------------------------------------------------------------------ *)
(* Composite vertex keys (§2: multi-attribute node addressing)         *)
(* ------------------------------------------------------------------ *)

(* flights between (airline, airport) pairs: a node is addressed by two
   attributes, exactly the generalisation §2 sketches *)
let composite_db () =
  let db = Sqlgraph.Db.create () in
  let e sql = ignore (Sqlgraph.Db.exec_exn db sql) in
  e
    "CREATE TABLE legs (carrier1 VARCHAR, port1 VARCHAR,      carrier2 VARCHAR, port2 VARCHAR, minutes INTEGER)";
  e
    "INSERT INTO legs VALUES      ('KL', 'AMS', 'KL', 'LHR', 80),      ('KL', 'LHR', 'KL', 'JFK', 420),      ('BA', 'LHR', 'BA', 'SFO', 660),      ('KL', 'JFK', 'BA', 'LHR', 410)";
  db

let test_composite_reachability () =
  let db = composite_db () in
  let reaches c1 p1 c2 p2 =
    rows db
      ~params:[| V.Str c1; V.Str p1; V.Str c2; V.Str p2 |]
      "SELECT 1 WHERE (?, ?) REACHES (?, ?) OVER legs        EDGE ((carrier1, port1), (carrier2, port2))"
    <> []
  in
  (* KL AMS -> KL JFK -> BA LHR -> BA SFO *)
  check tbool "multi-hop across carriers" true (reaches "KL" "AMS" "BA" "SFO");
  check tbool "direction respected" false (reaches "BA" "SFO" "KL" "AMS");
  (* (BA, AMS) is not a vertex even though both components exist *)
  check tbool "component combination matters" false
    (reaches "BA" "AMS" "KL" "LHR")

let test_composite_cheapest_and_path () =
  let db = composite_db () in
  let r =
    rows db
      ~params:[| V.Str "KL"; V.Str "AMS"; V.Str "BA"; V.Str "SFO" |]
      "SELECT CHEAPEST SUM(e: minutes) AS total,               CHEAPEST SUM(e: 1) AS hops        WHERE (?, ?) REACHES (?, ?) OVER legs e        EDGE ((carrier1, port1), (carrier2, port2))"
  in
  check tbool "weighted over composite graph" true
    (r = [ [ V.Int (80 + 420 + 410 + 660); V.Int 4 ] ]);
  (* paths unnest like any other edge table *)
  let hops =
    rows db
      ~params:[| V.Str "KL"; V.Str "AMS"; V.Str "BA"; V.Str "SFO" |]
      "SELECT R.carrier2, R.port2 FROM (          SELECT CHEAPEST SUM(e: 1) AS (c, p)          WHERE (?, ?) REACHES (?, ?) OVER legs e          EDGE ((carrier1, port1), (carrier2, port2))) T,        UNNEST(T.p) AS R"
  in
  check tbool "unnested composite path" true
    (hops
    = [
        [ V.Str "KL"; V.Str "LHR" ];
        [ V.Str "KL"; V.Str "JFK" ];
        [ V.Str "BA"; V.Str "LHR" ];
        [ V.Str "BA"; V.Str "SFO" ];
      ])

let test_composite_errors () =
  let db = composite_db () in
  let fails sql =
    match Sqlgraph.Db.query db sql with
    | Error (Sqlgraph.Error.Bind_error _) -> true
    | _ -> false
  in
  check tbool "width mismatch (endpoint)" true
    (fails
       "SELECT 1 WHERE ('KL') REACHES ('KL', 'LHR') OVER legs         EDGE ((carrier1, port1), (carrier2, port2))");
  check tbool "scalar endpoint for composite key" true
    (fails
       "SELECT 1 WHERE 'KL' REACHES 'BA' OVER legs         EDGE ((carrier1, port1), (carrier2, port2))");
  check tbool "component type mismatch" true
    (fails
       "SELECT 1 WHERE (1, 'AMS') REACHES ('KL', 'LHR') OVER legs         EDGE ((carrier1, port1), (carrier2, port2))");
  check tbool "row outside REACHES" true
    (fails "SELECT (1, 2) FROM legs")

(* ------------------------------------------------------------------ *)
(* Graph index                                                         *)
(* ------------------------------------------------------------------ *)

let test_graph_index_reuse_and_invalidation () =
  let db = paper_db () in
  (match Sqlgraph.Db.create_graph_index db ~table:"friends" ~src:"src" ~dst:"dst" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "index: %s" (Sqlgraph.Error.to_string e));
  let run () =
    ignore
      (q db ~params:[| V.Int 933; V.Int 8333 |]
         "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)");
    Option.get (Sqlgraph.Db.last_stats db)
  in
  let s1 = run () in
  check tint "first run builds" 1 s1.Executor.Interp.graphs_built;
  let s2 = run () in
  check tint "second run reuses" 1 s2.Executor.Interp.index_hits;
  check tint "second run builds nothing" 0 s2.Executor.Interp.graphs_built;
  (* mutating the table invalidates the cached graph *)
  ignore
    (Sqlgraph.Db.exec_exn db "INSERT INTO friends VALUES (4139, 933, '2013-01-01', 1.0)");
  let s3 = run () in
  check tint "rebuild after insert" 1 s3.Executor.Interp.graphs_built;
  (* dropping the index stops the caching *)
  (match Sqlgraph.Db.drop_graph_index db ~table:"friends" ~src:"src" ~dst:"dst" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "drop index: %s" (Sqlgraph.Error.to_string e));
  let s4 = run () in
  check tint "no reuse after drop" 0 s4.Executor.Interp.index_hits

let test_graph_index_unknown_table () =
  let db = paper_db () in
  match Sqlgraph.Db.create_graph_index db ~table:"nope" ~src:"a" ~dst:"b" with
  | Error (Sqlgraph.Error.Bind_error _) -> ()
  | _ -> Alcotest.fail "expected bind error"

(* The weight memo: a weighted CHEAPEST on a cached graph reuses the
   validated, CSR-aligned weights stored on the index entry. None of these
   may ever see a stale or another expression's vector. *)
let memo_db () =
  let db = Sqlgraph.Db.create () in
  let e sql = ignore (Sqlgraph.Db.exec_exn db sql) in
  e "CREATE TABLE e (a INTEGER, b INTEGER, w INTEGER)";
  e "INSERT INTO e VALUES (1, 2, 5), (2, 3, 5), (1, 3, 20)";
  e "CREATE TABLE cfg (k INTEGER)";
  e "INSERT INTO cfg VALUES (1)";
  (match Sqlgraph.Db.create_graph_index db ~table:"e" ~src:"a" ~dst:"b" with
  | Ok () -> ()
  | Error err -> Alcotest.failf "index: %s" (Sqlgraph.Error.to_string err));
  db

let cheapest_sql weights =
  Printf.sprintf "SELECT %s WHERE 1 REACHES 3 OVER e x EDGE (a, b)"
    (String.concat ", "
       (List.mapi
          (fun i w -> Printf.sprintf "CHEAPEST SUM(x: %s) AS c%d" w i)
          weights))

let costs db weights =
  match rows db (cheapest_sql weights) with
  | [ r ] -> r
  | rs -> Alcotest.failf "expected one row, got %d" (List.length rs)

let tvalues = Alcotest.list (Alcotest.testable V.pp V.equal)

let test_weight_memo_sees_edge_dml () =
  let db = memo_db () in
  let e sql = ignore (Sqlgraph.Db.exec_exn db sql) in
  check tvalues "first (evaluated)" [ V.Int 10 ] (costs db [ "x.w" ]);
  check tvalues "second (memoized)" [ V.Int 10 ] (costs db [ "x.w" ]);
  check tint "second run reused the graph" 1
    (Option.get (Sqlgraph.Db.last_stats db)).Executor.Interp.index_hits;
  e "INSERT INTO e VALUES (1, 4, 1), (4, 3, 2)";
  check tvalues "after INSERT" [ V.Int 3 ] (costs db [ "x.w" ]);
  e "UPDATE e SET w = 1 WHERE a = 1 AND b = 3";
  check tvalues "after UPDATE" [ V.Int 1 ] (costs db [ "x.w" ]);
  check tvalues "after UPDATE, memoized" [ V.Int 1 ] (costs db [ "x.w" ])

let test_weight_memo_skips_subqueries () =
  let db = memo_db () in
  let w = "x.w * (SELECT k FROM cfg)" in
  check tvalues "k = 1" [ V.Int 10 ] (costs db [ w ]);
  ignore (Sqlgraph.Db.exec_exn db "UPDATE cfg SET k = 3");
  (* cfg moved, e did not: the cached graph is still current, so only
     never memoizing the subquery weight keeps this answer right *)
  check tvalues "k = 3" [ V.Int 30 ] (costs db [ w ]);
  check tint "same cached graph" 1
    (Option.get (Sqlgraph.Db.last_stats db)).Executor.Interp.index_hits

let test_weight_memo_never_stores_invalid () =
  let db = memo_db () in
  let fails () =
    match Sqlgraph.Db.query db (cheapest_sql [ "x.w" ]) with
    | Error err -> Sqlgraph.Error.to_string err
    | Ok _ -> Alcotest.fail "expected a weight error"
  in
  List.iter
    (fun (dml, what) ->
      ignore (Sqlgraph.Db.exec_exn db dml);
      let first = fails () in
      check tbool (what ^ ": weight error") true
        (Astring.String.is_infix ~affix:"must be > 0" first);
      check Alcotest.string (what ^ ": same error again") first (fails ()))
    [
      ("INSERT INTO e VALUES (5, 6, 0)", "zero");
      ("UPDATE e SET w = NULL WHERE a = 5", "NULL");
    ];
  ignore (Sqlgraph.Db.exec_exn db "DELETE FROM e WHERE a = 5");
  check tvalues "valid again" [ V.Int 10 ] (costs db [ "x.w" ])

let test_weight_memo_keeps_expressions_apart () =
  let db = memo_db () in
  let weights = [ "x.w"; "x.w * 3"; "x.w * 0.5"; "x.w + 100" ] in
  let want = [ V.Int 10; V.Int 30; V.Float 5.; V.Int 120 ] in
  check tvalues "one query, four weights" want (costs db weights);
  check tvalues "again, all memoized" want (costs db weights);
  List.iter2
    (fun w c -> check tvalues ("alone: " ^ w) [ c ] (costs db [ w ]))
    (List.rev weights) (List.rev want)

(* The memo at its own interface: one expression at two cost types keeps
   two vectors, and the bound evicts the least recently used. *)
let test_weight_memo_keys_and_bound () =
  let db = memo_db () in
  ignore (costs db [ "1" ]);
  let idx = Sqlgraph.Db.indices db in
  let key = { Executor.Graph_index.table = "e"; src = [ 0 ]; dst = [ 1 ] } in
  let version =
    Option.value (Storage.Catalog.version (Sqlgraph.Db.catalog db) "e") ~default:0
  in
  let rt, _ = Option.get (Executor.Graph_index.lookup idx key ~version) in
  let int_ty = Storage.Dtype.TInt and float_ty = Storage.Dtype.TFloat in
  let expr k = Relalg.Lplan.const (V.Int k) int_ty in
  let aligned w = Graph.Runtime.align_weights rt w in
  let ints k = aligned (Graph.Runtime.Int_weights [| k; k; k |]) in
  let find k ty =
    Executor.Graph_index.find_weights idx key rt (expr k) ~cost_ty:ty
  in
  let store k ty a =
    Executor.Graph_index.store_weights idx key rt (expr k) ~cost_ty:ty a
  in
  let a_int = ints 1
  and a_float = aligned (Graph.Runtime.Float_weights [| 0.5; 0.5; 0.5 |]) in
  store 1 int_ty a_int;
  store 1 float_ty a_float;
  check tbool "float entry" true (Option.get (find 1 float_ty) == a_float);
  check tbool "int entry is its own" true (Option.get (find 1 int_ty) == a_int);
  (* four more expressions; touching 1 at int cost keeps it recent *)
  List.iter
    (fun k ->
      store k int_ty (ints k);
      ignore (find 1 int_ty))
    [ 2; 3; 4; 5 ];
  check tint "bound" 4 Executor.Graph_index.max_memo_weights;
  check tbool "recently used survives" true (find 1 int_ty <> None);
  check tbool "least recently used evicted" true (find 1 float_ty = None);
  check tbool "oldest distinct expression evicted" true (find 2 int_ty = None);
  check tbool "newest present" true (find 5 int_ty <> None);
  (* a subquery or outer column reads more than the edge row: never kept *)
  List.iter
    (fun (what, node) ->
      let e = { Relalg.Lplan.node; ty = int_ty } in
      Executor.Graph_index.store_weights idx key rt e ~cost_ty:int_ty a_int;
      check tbool (what ^ " not memoized") true
        (Executor.Graph_index.find_weights idx key rt e ~cost_ty:int_ty = None))
    [
      ("subquery", Relalg.Lplan.Subquery Relalg.Lplan.One);
      ("outer column", Relalg.Lplan.Outer_col 0);
    ]

(* ------------------------------------------------------------------ *)
(* Optimizer ablation equivalence                                      *)
(* ------------------------------------------------------------------ *)

let test_graph_join_rewrite_equivalence () =
  let db = paper_db () in
  let sql =
    "SELECT p1.id, p2.id, CHEAPEST SUM(1) AS d FROM persons p1, persons p2 \
     WHERE p1.id REACHES p2.id OVER friends EDGE (src, dst) ORDER BY 1, 2"
  in
  let with_rewrite = rows db sql in
  let without =
    Sqlgraph.Resultset.rows
      (Sqlgraph.Db.query_exn db
         ~optimize:{ Relalg.Rewriter.default_options with form_graph_joins = false }
         sql)
  in
  check tbool "same result either way" true (with_rewrite = without);
  check tint "16 connected pairs" 16 (List.length with_rewrite)

(* ------------------------------------------------------------------ *)
(* Randomised equivalence vs an independent reference                  *)
(* ------------------------------------------------------------------ *)

let reference_bfs_distance ~edges ~src ~dst =
  if src = dst then Some 0
  else begin
    let adj = Hashtbl.create 16 in
    List.iter
      (fun (a, b) ->
        Hashtbl.replace adj a (b :: Option.value (Hashtbl.find_opt adj a) ~default:[]))
      edges;
    let dist = Hashtbl.create 16 in
    Hashtbl.replace dist src 0;
    let queue = Queue.create () in
    Queue.add src queue;
    let result = ref None in
    while !result = None && not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      let du = Hashtbl.find dist u in
      List.iter
        (fun v ->
          if not (Hashtbl.mem dist v) then begin
            Hashtbl.replace dist v (du + 1);
            if v = dst then result := Some (du + 1);
            Queue.add v queue
          end)
        (Option.value (Hashtbl.find_opt adj u) ~default:[])
    done;
    !result
  end

let prop_sql_q13_matches_reference =
  QCheck.Test.make ~name:"SQL CHEAPEST SUM(1) matches a reference BFS"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 3 + Random.State.int rng 10 in
      let m = Random.State.int rng 25 in
      let edges =
        List.init m (fun _ ->
            (Random.State.int rng n, Random.State.int rng n))
      in
      let db = Sqlgraph.Db.create () in
      ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE e (a INTEGER, b INTEGER)");
      List.iter
        (fun (a, b) ->
          ignore
            (Sqlgraph.Db.exec_exn db
               (Printf.sprintf "INSERT INTO e VALUES (%d, %d)" a b)))
        edges;
      let ok = ref true in
      for _ = 1 to 8 do
        let s = Random.State.int rng n and d = Random.State.int rng n in
        let got =
          match
            rows db
              ~params:[| V.Int s; V.Int d |]
              "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (a, b)"
          with
          | [ [ V.Int c ] ] -> Some c
          | [] -> None
          | _ -> Some (-999)
        in
        (* vertices must exist in the edge table to be reachable *)
        let vertex v = List.exists (fun (a, b) -> a = v || b = v) edges in
        let expect =
          if vertex s && vertex d then reference_bfs_distance ~edges ~src:s ~dst:d
          else None
        in
        if got <> expect then ok := false
      done;
      !ok)

(* A statement on a cached graph is charged for its own batches only.
   Sessions share the cached runtime, so another session's batch can run
   while this statement's is in flight; here one runs from inside the
   statement's own traversal (its first "bfs" checkpoint), on the same
   runtime. The statement's stats must equal those of the same statement
   run alone. *)
let test_graph_index_interleaved_batch_stats () =
  let rng = Random.State.make [| 18 |] in
  let vertices = 3000 in
  let vertex () = V.Int (Random.State.int rng vertices) in
  let edge_schema =
    Storage.Schema.of_pairs [ ("a", Storage.Dtype.TInt); ("b", Storage.Dtype.TInt) ]
  in
  let pair_schema =
    Storage.Schema.of_pairs [ ("s", Storage.Dtype.TInt); ("d", Storage.Dtype.TInt) ]
  in
  let db = Sqlgraph.Db.create () in
  Sqlgraph.Db.load_table db ~name:"e"
    (Storage.Table.of_rows edge_schema
       (List.init 20_000 (fun _ -> [ vertex (); vertex () ])));
  let pairs = List.init 64 (fun i -> (V.Int i, vertex ())) in
  Sqlgraph.Db.load_table db ~name:"pairs"
    (Storage.Table.of_rows pair_schema (List.map (fun (s, d) -> [ s; d ]) pairs));
  (match Sqlgraph.Db.create_graph_index db ~table:"e" ~src:"a" ~dst:"b" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "index: %s" (Sqlgraph.Error.to_string e));
  let catalog = Sqlgraph.Db.catalog db and indices = Sqlgraph.Db.indices db in
  ignore (Executor.Graph_index.warm indices ~catalog);
  let rt =
    let key = { Executor.Graph_index.table = "e"; src = [ 0 ]; dst = [ 1 ] } in
    let version = Option.value ~default:0 (Storage.Catalog.version catalog "e") in
    fst (Option.get (Executor.Graph_index.lookup indices key ~version))
  in
  let other = Array.init 64 (fun i -> (V.Int (vertices - 1 - i), vertex ())) in
  let plan =
    match
      Sql.Parser.parse_stmt
        "SELECT s, d, CHEAPEST SUM(1) AS c FROM pairs WHERE s REACHES d OVER e \
         EDGE (a, b)"
    with
    | Sql.Ast.Select q ->
      Relalg.Rewriter.rewrite ~options:Relalg.Rewriter.default_options
        (Relalg.Binder.bind_query ~catalog ~params:[||] q)
    | _ -> Alcotest.fail "expected a SELECT"
  in
  let run ~interleave =
    let pending = ref interleave in
    let interleave_at (p : Graph.Cancel.progress) =
      if !pending && p.Graph.Cancel.c_site = "bfs" then begin
        pending := false;
        ignore
          (Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted
             ~pairs:other ())
      end
    in
    let ctx =
      Executor.Interp.create_ctx ~catalog ~indices ~check:interleave_at ()
    in
    let rows = Storage.Table.nrows (Executor.Interp.run ctx plan) in
    check tbool "the other batch ran" false !pending;
    let s = Executor.Interp.stats ctx in
    Executor.Interp.
      ( rows,
        [
          s.index_hits; s.index_misses; s.graphs_built; s.trav_searches;
          s.trav_settled; s.trav_peak_frontier; s.trav_edges; s.trav_waves;
          s.trav_dir_switches; s.trav_tasks; s.trav_steals; s.trav_splits;
          s.pool_hits; s.pool_misses;
        ] )
  in
  (* the first batch on the fresh runtime allocates its workspace; from
     then on every run reuses one from the pool *)
  ignore (run ~interleave:false);
  let alone = run ~interleave:false in
  let interleaved = run ~interleave:true in
  check
    Alcotest.(pair int (list int))
    "stats with another batch interleaved = stats alone" alone interleaved

let () =
  Alcotest.run "e2e"
    [
      ( "appendix",
        [
          Alcotest.test_case "A.1 Q13 cost" `Quick test_appendix_a1_q13;
          Alcotest.test_case "A.2 vertex properties" `Quick test_appendix_a2_vertex_properties;
          Alcotest.test_case "A.3 reachability over CTE" `Quick test_appendix_a3_reachability;
          Alcotest.test_case "A.4 weighted paths" `Quick test_appendix_a4_weighted_paths;
          Alcotest.test_case "A.4 unnest" `Quick test_appendix_a4_unnest;
          Alcotest.test_case "left outer unnest" `Quick test_left_outer_unnest_keeps_empty_paths;
          Alcotest.test_case "with ordinality" `Quick test_unnest_with_ordinality;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "unreachable filtered" `Quick test_unreachable_pairs_filtered;
          Alcotest.test_case "source = destination" `Quick test_source_equals_destination;
          Alcotest.test_case "float weights" `Quick test_float_weights;
          Alcotest.test_case "weights must be positive" `Quick test_weight_must_be_positive;
          Alcotest.test_case "reachability only" `Quick test_reachability_only_query;
          Alcotest.test_case "direction respected" `Quick test_graph_direction_respected;
          Alcotest.test_case "multiple REACHES" `Quick test_multiple_reaches_predicates;
          Alcotest.test_case "batched pairs" `Quick test_batched_pairs_table;
          Alcotest.test_case "cheapest in expression" `Quick test_cheapest_inside_expression;
          Alcotest.test_case "string vertex keys" `Quick test_edge_table_with_string_keys;
          Alcotest.test_case "null edges skipped" `Quick test_null_edges_are_skipped;
          Alcotest.test_case "subquery edge table" `Quick
            test_reaches_over_subquery_edge_table;
          Alcotest.test_case "derived weight column" `Quick
            test_weight_expression_over_subquery_columns;
          Alcotest.test_case "date arithmetic" `Quick test_date_arithmetic_in_sql;
          Alcotest.test_case "soak vs native bfs (200 pairs)" `Slow
            test_soak_against_native;
          Alcotest.test_case "aggregates over graph output" `Quick
            test_aggregates_over_graph_results;
          Alcotest.test_case "two graphs in one query" `Quick
            test_two_graphs_same_query;
          Alcotest.test_case "interleaved cheapests across ops" `Quick
            test_interleaved_cheapests_across_two_reaches;
          Alcotest.test_case "several paths from one REACHES" `Quick
            test_multiple_paths_same_reaches;
          Alcotest.test_case "ORDER BY cost alias" `Quick test_order_by_cost_alias;
        ] );
      ( "composite-keys",
        [
          Alcotest.test_case "reachability" `Quick test_composite_reachability;
          Alcotest.test_case "cheapest and unnest" `Quick
            test_composite_cheapest_and_path;
          Alcotest.test_case "errors" `Quick test_composite_errors;
        ] );
      ( "graph-index",
        [
          Alcotest.test_case "reuse and invalidation" `Quick test_graph_index_reuse_and_invalidation;
          Alcotest.test_case "unknown table" `Quick test_graph_index_unknown_table;
          Alcotest.test_case "weight memo sees edge DML" `Quick
            test_weight_memo_sees_edge_dml;
          Alcotest.test_case "weight memo skips subqueries" `Quick
            test_weight_memo_skips_subqueries;
          Alcotest.test_case "weight memo never stores invalid" `Quick
            test_weight_memo_never_stores_invalid;
          Alcotest.test_case "weight memo keeps expressions apart" `Quick
            test_weight_memo_keeps_expressions_apart;
          Alcotest.test_case "weight memo keys and bound" `Quick
            test_weight_memo_keys_and_bound;
          Alcotest.test_case "interleaved batch on a shared graph" `Quick
            test_graph_index_interleaved_batch_stats;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "graph-join rewrite equivalence" `Quick
            test_graph_join_rewrite_equivalence;
        ] );
      ( "randomized",
        [ QCheck_alcotest.to_alcotest prop_sql_q13_matches_reference ] );
    ]
