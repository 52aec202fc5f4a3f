(* The standard-SQL baselines of §1 must agree with CHEAPEST SUM(1). *)

module V = Storage.Value

open Testjson.Support

let build_db edges =
  let db = Sqlgraph.Db.create () in
  ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE e (a INTEGER, b INTEGER)");
  List.iter
    (fun (x, y) ->
      ignore
        (Sqlgraph.Db.exec_exn db
           (Printf.sprintf "INSERT INTO e VALUES (%d, %d)" x y)))
    edges;
  db

let extension_distance db s d =
  match
    Sqlgraph.Db.query_exn db
      ~params:[| V.Int s; V.Int d |]
      "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (a, b)"
  with
  | r when Sqlgraph.Resultset.nrows r = 0 -> None
  | r -> (
    match Sqlgraph.Resultset.value r with V.Int c -> Some c | _ -> None)

let line_graph = [ (1, 2); (2, 3); (3, 4); (4, 5) ]
let diamond = [ (1, 2); (1, 3); (2, 4); (3, 4); (4, 5) ]

let test_frontier_known_graphs () =
  let db = build_db line_graph in
  let fd s d =
    Baselines.Sql_bfs.frontier_distance db ~edge_table:"e" ~src_col:"a"
      ~dst_col:"b" ~source:s ~target:d ()
  in
  check tbool "line 1->5" true (fd 1 5 = Some 4);
  check tbool "line 5->1 (directed)" true (fd 5 1 = None);
  check tbool "same node" true (fd 3 3 = Some 0);
  let db2 = build_db diamond in
  let fd2 s d =
    Baselines.Sql_bfs.frontier_distance db2 ~edge_table:"e" ~src_col:"a"
      ~dst_col:"b" ~source:s ~target:d ()
  in
  check tbool "diamond 1->5" true (fd2 1 5 = Some 3)

let test_frontier_respects_max_hops () =
  let db = build_db line_graph in
  check tbool "cut off" true
    (Baselines.Sql_bfs.frontier_distance db ~edge_table:"e" ~src_col:"a"
       ~dst_col:"b" ~source:1 ~target:5 ~max_hops:2 ()
    = None)

let test_frontier_cleans_up_temp_tables () =
  let db = build_db line_graph in
  ignore
    (Baselines.Sql_bfs.frontier_distance db ~edge_table:"e" ~src_col:"a"
       ~dst_col:"b" ~source:1 ~target:5 ());
  (* a second run must not collide with leftovers *)
  ignore
    (Baselines.Sql_bfs.frontier_distance db ~edge_table:"e" ~src_col:"a"
       ~dst_col:"b" ~source:1 ~target:4 ());
  check tbool "only e remains" true
    (Storage.Catalog.names (Sqlgraph.Db.catalog db) = [ "e" ])

let test_join_chain_known_graphs () =
  let db = build_db diamond in
  let jd s d =
    Baselines.Sql_bfs.join_chain_distance db ~edge_table:"e" ~src_col:"a"
      ~dst_col:"b" ~source:s ~target:d ~max_hops:5 ()
  in
  check tbool "1->4 is 2" true (jd 1 4 = Some 2);
  check tbool "1->5 is 3" true (jd 1 5 = Some 3);
  check tbool "unreachable" true (jd 5 1 = None);
  check tbool "self" true (jd 2 2 = Some 0)

let test_recursive_baseline () =
  let db = build_db diamond in
  let rd s d =
    Baselines.Sql_bfs.recursive_distance db ~edge_table:"e" ~src_col:"a"
      ~dst_col:"b" ~source:s ~target:d ~max_hops:6 ()
  in
  check tbool "1->5" true (rd 1 5 = Some 3);
  check tbool "unreachable" true (rd 5 1 = None);
  check tbool "self" true (rd 2 2 = Some 0);
  (* terminates on a cyclic graph thanks to the depth bound *)
  let db2 = build_db [ (1, 2); (2, 3); (3, 1) ] in
  check tbool "cycle" true
    (Baselines.Sql_bfs.recursive_distance db2 ~edge_table:"e" ~src_col:"a"
       ~dst_col:"b" ~source:1 ~target:3 ~max_hops:10 ()
    = Some 2)

let test_native_bfs () =
  let db = build_db diamond in
  let table = Option.get (Storage.Catalog.find (Sqlgraph.Db.catalog db) "e") in
  let g = Baselines.Native_bfs.of_table table ~src_col:"a" ~dst_col:"b" in
  check tbool "vertex count" true (Baselines.Native_bfs.vertex_count g = 5);
  check tbool "1->5" true (Baselines.Native_bfs.distance g ~source:1 ~target:5 = Some 3);
  check tbool "unknown vertex" true
    (Baselines.Native_bfs.distance g ~source:99 ~target:1 = None)

(* All four implementations agree on random graphs. *)
let prop_all_baselines_agree =
  QCheck.Test.make ~name:"extension = frontier = join-chain = native BFS"
    ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 3 + Random.State.int rng 7 in
      let m = Random.State.int rng 14 in
      let edges =
        List.init m (fun _ ->
            (Random.State.int rng n, Random.State.int rng n))
        |> List.filter (fun (a, b) -> a <> b)
        |> List.sort_uniq compare
      in
      if edges = [] then true
      else begin
        let db = build_db edges in
        let table =
          Option.get (Storage.Catalog.find (Sqlgraph.Db.catalog db) "e")
        in
        let native = Baselines.Native_bfs.of_table table ~src_col:"a" ~dst_col:"b" in
        let vertex v = List.exists (fun (a, b) -> a = v || b = v) edges in
        let ok = ref true in
        for _ = 1 to 5 do
          let s = Random.State.int rng n and d = Random.State.int rng n in
          let expected =
            if vertex s && vertex d then
              Baselines.Native_bfs.distance native ~source:s ~target:d
            else None
          in
          let ext = extension_distance db s d in
          let frontier =
            if vertex s && vertex d then
              Baselines.Sql_bfs.frontier_distance db ~edge_table:"e"
                ~src_col:"a" ~dst_col:"b" ~source:s ~target:d ()
            else None
          in
          let chain =
            if vertex s && vertex d then
              Baselines.Sql_bfs.join_chain_distance db ~edge_table:"e"
                ~src_col:"a" ~dst_col:"b" ~source:s ~target:d ~max_hops:8 ()
            else None
          in
          let recursive =
            if vertex s && vertex d then
              Baselines.Sql_bfs.recursive_distance db ~edge_table:"e"
                ~src_col:"a" ~dst_col:"b" ~source:s ~target:d ~max_hops:12 ()
            else None
          in
          (* the extension also reports 0-hop self-paths only for graph
             vertices, like the others *)
          if
            not
              (ext = expected && frontier = expected && chain = expected
             && recursive = expected)
          then ok := false
        done;
        !ok
      end)

let () =
  Alcotest.run "baselines"
    [
      ( "frontier",
        [
          Alcotest.test_case "known graphs" `Quick test_frontier_known_graphs;
          Alcotest.test_case "max hops" `Quick test_frontier_respects_max_hops;
          Alcotest.test_case "temp-table hygiene" `Quick test_frontier_cleans_up_temp_tables;
        ] );
      ( "join-chain",
        [ Alcotest.test_case "known graphs" `Quick test_join_chain_known_graphs ] );
      ( "recursive",
        [ Alcotest.test_case "known graphs" `Quick test_recursive_baseline ] );
      ("native", [ Alcotest.test_case "bfs" `Quick test_native_bfs ]);
      ("equivalence", [ QCheck_alcotest.to_alcotest prop_all_baselines_agree ]);
    ]
