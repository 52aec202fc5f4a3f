(* Helpers the test executables share. *)

(* A fresh path for a directory [f] creates, removed after. *)
let with_temp_dir f =
  let dir = Filename.temp_file "sqlgraph_test" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> Sqlgraph.Persist.rm_rf dir) (fun () -> f dir)

let open_exn ?fsync ?readonly dir =
  match Sqlgraph.Wal.open_dir ?fsync ?readonly dir with
  | Ok v -> v
  | Error e -> Alcotest.failf "open_dir %s: %s" dir (Sqlgraph.Error.to_string e)

let exec_exn db ?(params = [||]) sql =
  match Sqlgraph.Db.exec db ~params sql with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: %s" sql (Sqlgraph.Error.to_string e)

let count_db db table =
  match Sqlgraph.Db.query db (Printf.sprintf "SELECT COUNT(*) FROM %s" table) with
  | Ok r -> (
    match Sqlgraph.Resultset.rows r with
    | [ [ Storage.Value.Int n ] ] -> n
    | _ -> Alcotest.fail "unexpected COUNT shape")
  | Error e -> Alcotest.failf "count: %s" (Sqlgraph.Error.to_string e)

let q db ?params sql = Sqlgraph.Db.query_exn db ?params sql
let rows db ?params sql = Sqlgraph.Resultset.rows (q db ?params sql)

let int_rows db sql =
  List.map
    (List.map (function
      | Storage.Value.Int i -> i
      | v -> Alcotest.failf "not an int: %s" (Storage.Value.to_display v)))
    (rows db sql)

let contains hay needle = Astring.String.is_infix ~affix:needle hay

(* A client over a socketpair attached to [srv], with its raw fd. *)
let connect srv =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Sqlgraph_server.Server.attach srv a;
  (Sqlgraph_server.Client.of_fd b, b)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string
