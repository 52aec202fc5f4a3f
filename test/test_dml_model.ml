(* Model-based testing of the DML path: a random sequence of INSERT /
   UPDATE / DELETE statements runs both against the engine and against a
   trivial list model; after every step the table contents must match.

   Also checks an invariant the graph layer depends on: after any DML the
   catalog version has moved, so graph indices can never serve stale
   CSRs. *)

module V = Storage.Value

type op =
  | Insert of int * int  (* a, b *)
  | Insert_null_b of int
  | Update_add of int * int  (* WHERE a = key SET b = b + delta *)
  | Update_all_b of int
  | Delete_eq of int  (* WHERE a = key *)
  | Delete_lt of int  (* WHERE b < threshold *)
  | Update_div  (* SET b = 100 / a WHERE a <> 0: SET sees matched rows only *)
  | Update_shift of int  (* SET a = a + 1, b = a WHERE a = key: b gets the old a *)
  | Delete_b_gt_a  (* WHERE b > a: NULL on a NULL b, which keeps the row *)

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun a b -> Insert (a, b)) (int_range 0 9) (int_range (-20) 20));
        (1, map (fun a -> Insert_null_b a) (int_range 0 9));
        (2, map2 (fun k d -> Update_add (k, d)) (int_range 0 9) (int_range (-5) 5));
        (1, map (fun b -> Update_all_b b) (int_range (-20) 20));
        (2, map (fun k -> Delete_eq k) (int_range 0 9));
        (1, map (fun t -> Delete_lt t) (int_range (-20) 20));
        (1, return Update_div);
        (1, map (fun k -> Update_shift k) (int_range 0 9));
        (1, return Delete_b_gt_a);
      ])

let gen_ops = QCheck.Gen.(list_size (int_range 0 40) gen_op)

(* the reference model: rows as (a, b option) in insertion order *)
let model_apply rows = function
  | Insert (a, b) -> rows @ [ (a, Some b) ]
  | Insert_null_b a -> rows @ [ (a, None) ]
  | Update_add (key, delta) ->
    List.map
      (fun (a, b) ->
        if a = key then (a, Option.map (fun x -> x + delta) b) else (a, b))
      rows
  | Update_all_b v -> List.map (fun (a, _) -> (a, Some v)) rows
  | Delete_eq key -> List.filter (fun (a, _) -> a <> key) rows
  | Delete_lt threshold ->
    (* NULL b never satisfies b < threshold, so those rows survive *)
    List.filter
      (fun (_, b) -> match b with None -> true | Some x -> x >= threshold)
      rows
  | Update_div ->
    List.map (fun (a, b) -> if a <> 0 then (a, Some (100 / a)) else (a, b)) rows
  | Update_shift key ->
    List.map (fun (a, b) -> if a = key then (a + 1, Some a) else (a, b)) rows
  | Delete_b_gt_a ->
    List.filter (fun (a, b) -> match b with None -> true | Some x -> x <= a) rows

let sql_of_op = function
  | Insert (a, b) -> Printf.sprintf "INSERT INTO t VALUES (%d, %d)" a b
  | Insert_null_b a -> Printf.sprintf "INSERT INTO t VALUES (%d, NULL)" a
  | Update_add (k, d) ->
    Printf.sprintf "UPDATE t SET b = b + %d WHERE a = %d" d k
  | Update_all_b v -> Printf.sprintf "UPDATE t SET b = %d" v
  | Delete_eq k -> Printf.sprintf "DELETE FROM t WHERE a = %d" k
  | Delete_lt t -> Printf.sprintf "DELETE FROM t WHERE b < %d" t
  | Update_div -> "UPDATE t SET b = 100 / a WHERE a <> 0"
  | Update_shift k ->
    Printf.sprintf "UPDATE t SET a = a + 1, b = a WHERE a = %d" k
  | Delete_b_gt_a -> "DELETE FROM t WHERE b > a"

let engine_rows db =
  match Sqlgraph.Db.query db "SELECT a, b FROM t" with
  | Ok r ->
    List.map
      (function
        | [ V.Int a; V.Int b ] -> (a, Some b)
        | [ V.Int a; V.Null ] -> (a, None)
        | _ -> Alcotest.fail "unexpected row shape")
      (Sqlgraph.Resultset.rows r)
  | Error e -> Alcotest.failf "query: %s" (Sqlgraph.Error.to_string e)

let prop_dml_matches_model =
  QCheck.Test.make ~name:"random INSERT/UPDATE/DELETE sequences match a list model"
    ~count:200 (QCheck.make gen_ops)
    (fun ops ->
      let db = Sqlgraph.Db.create () in
      ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE t (a INTEGER, b INTEGER)");
      let ok = ref true in
      let model = ref [] in
      let last_version = ref (-1) in
      List.iter
        (fun op ->
          (match Sqlgraph.Db.exec db (sql_of_op op) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s: %s" (sql_of_op op) (Sqlgraph.Error.to_string e));
          model := model_apply !model op;
          if engine_rows db <> !model then ok := false;
          (* DML must always move the catalog version forward *)
          let v =
            Option.value
              (Storage.Catalog.version (Sqlgraph.Db.catalog db) "t")
              ~default:(-1)
          in
          if v <= !last_version then ok := false;
          last_version := v)
        ops;
      !ok)

(* the same sequences, checked through aggregate queries *)
let prop_dml_aggregates_match_model =
  QCheck.Test.make ~name:"aggregates over mutated tables match the model"
    ~count:100 (QCheck.make gen_ops)
    (fun ops ->
      let db = Sqlgraph.Db.create () in
      ignore (Sqlgraph.Db.exec_exn db "CREATE TABLE t (a INTEGER, b INTEGER)");
      List.iter (fun op -> ignore (Sqlgraph.Db.exec_exn db (sql_of_op op))) ops;
      let model = List.fold_left model_apply [] ops in
      let expected_count = List.length model in
      let non_null = List.filter_map snd model in
      let expected_sum =
        if non_null = [] then V.Null
        else V.Int (List.fold_left ( + ) 0 non_null)
      in
      match Sqlgraph.Db.query db "SELECT COUNT(*), SUM(b) FROM t" with
      | Ok r ->
        Sqlgraph.Resultset.rows r = [ [ V.Int expected_count; expected_sum ] ]
      | Error e -> Alcotest.failf "%s" (Sqlgraph.Error.to_string e))

let () =
  Alcotest.run "dml-model"
    [
      ( "model-based",
        [
          QCheck_alcotest.to_alcotest prop_dml_matches_model;
          QCheck_alcotest.to_alcotest prop_dml_aggregates_match_model;
        ] );
    ]
