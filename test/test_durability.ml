(* Crash-safe durability: the WAL record codec, recovery, checkpoints,
   atomic Persist.save, multi-spec fault injection — and the headline
   crash-recovery fuzzer.

   The fuzzer's invariant (DESIGN.md §11): run a random DML workload
   against a durable session, kill it at a random injected I/O fault,
   reopen the directory, and the recovered database must equal the state
   an in-memory oracle reaches after some prefix of the acknowledged
   statements — possibly extended by the single statement in flight at
   the crash, never missing an acknowledged one.  Uncommitted
   transactions are rolled away on both sides. *)

module V = Storage.Value
module Table = Storage.Table
module Catalog = Storage.Catalog
module Db = Sqlgraph.Db
module Wal = Sqlgraph.Wal
module Fault = Sqlgraph.Fault
module Reg = Telemetry.Registry

open Testjson.Support

(* ------------------------------------------------------------------ *)
(* Helpers *)

(* Full database state as sorted (name, table) pairs.  Tables are
   copied: the catalog hands out live objects that later statements
   mutate in place, and a snapshot must not follow them. *)
let db_state db =
  let cat = Db.catalog db in
  Catalog.names cat
  |> List.sort compare
  |> List.map (fun n ->
         match Catalog.find cat n with
         | Some t -> (n, Table.copy t)
         | None -> Alcotest.failf "catalog lost %s" n)

let states_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n1, t1) (n2, t2) -> String.equal n1 n2 && Table.equal t1 t2)
       a b

let state_summary st =
  String.concat "; "
    (List.map (fun (n, t) -> Printf.sprintf "%s:%d" n (Table.nrows t)) st)

let state_dump st =
  String.concat "\n"
    (List.map
       (fun (n, t) -> Printf.sprintf "-- %s --\n%s" n (Fmt.to_to_string Table.pp t))
       st)

(* ------------------------------------------------------------------ *)
(* CRC32 *)

(* bit-by-bit reference implementation, checked against the table/
   slice-by-8 production code on random inputs *)
let crc32_reference s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF

let test_crc_kat () =
  check tint "check value" 0xCBF43926 (Wal.crc32 "123456789");
  check tint "empty" 0 (Wal.crc32 "");
  check tint "single byte" (crc32_reference "a") (Wal.crc32 "a")

let test_crc_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"wal: crc32 matches bit-by-bit reference"
       ~count:200
       QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 64) QCheck.Gen.char)
       (fun s -> Wal.crc32 s = crc32_reference s))

(* ------------------------------------------------------------------ *)
(* Basic durability *)

let test_basic_recovery () =
  with_temp_dir (fun dir ->
      let store, db, recov = open_exn dir in
      check tint "fresh dir: nothing replayed" 0 recov.Wal.rec_replayed;
      exec_exn db "CREATE TABLE t (a INTEGER, b TEXT)";
      exec_exn db ~params:[| V.Int 1; V.Str "one" |]
        "INSERT INTO t VALUES (?, ?)";
      exec_exn db ~params:[| V.Int 2; V.Null |] "INSERT INTO t VALUES (?, ?)";
      let want = db_state db in
      Wal.close store;
      let store2, db2, recov2 = open_exn dir in
      check tint "replayed all three" 3 recov2.Wal.rec_replayed;
      check tint "nothing truncated" 0 recov2.Wal.rec_truncated_bytes;
      check tbool "state equal" true (states_equal want (db_state db2));
      Wal.close store2)

let test_crash_keeps_acknowledged () =
  with_temp_dir (fun dir ->
      let store, db, _ = open_exn dir in
      exec_exn db "CREATE TABLE t (a INTEGER)";
      for i = 1 to 50 do
        exec_exn db ~params:[| V.Int i |] "INSERT INTO t VALUES (?)"
      done;
      let want = db_state db in
      (* kill -9: no close, no final flush *)
      Wal.crash_for_testing store;
      let store2, db2, recov = open_exn dir in
      check tint "replayed" 51 recov.Wal.rec_replayed;
      check tbool "all acknowledged statements survived" true
        (states_equal want (db_state db2));
      Wal.close store2)

(* Every Value constructor the codec supports must round-trip through
   log-and-replay, including strings that would break naive framing. *)
let test_param_codec_roundtrip () =
  with_temp_dir (fun dir ->
      let stmts =
        [
          ("CREATE TABLE v (i INTEGER, f DOUBLE, s TEXT, b BOOLEAN, d DATE)",
           [||]);
          ( "INSERT INTO v VALUES (?, ?, ?, ?, ?)",
            [| V.Int 42; V.Float 1.5; V.Str "plain"; V.Bool true; V.Date 19000 |]
          );
          ( "INSERT INTO v VALUES (?, ?, ?, ?, ?)",
            [|
              V.Int (-9007199254740993);
              V.Float (-0.0);
              V.Str "comma, \"quoted\"\nnewline; héllo — ∀x";
              V.Bool false;
              V.Date (-1);
            |] );
          ( "INSERT INTO v VALUES (?, ?, ?, ?, ?)",
            [| V.Null; V.Null; V.Str "nul\000byte"; V.Null; V.Null |] );
        ]
      in
      let oracle = Db.create () in
      List.iter (fun (sql, params) -> exec_exn oracle ~params sql) stmts;
      let store, db, _ = open_exn dir in
      List.iter (fun (sql, params) -> exec_exn db ~params sql) stmts;
      Wal.crash_for_testing store;
      let store2, db2, _ = open_exn dir in
      check tbool "replayed values identical" true
        (states_equal (db_state oracle) (db_state db2));
      Wal.close store2)

let test_rollback_not_replayed () =
  with_temp_dir (fun dir ->
      let store, db, _ = open_exn dir in
      exec_exn db "CREATE TABLE t (a INTEGER)";
      exec_exn db "BEGIN";
      exec_exn db ~params:[| V.Int 1 |] "INSERT INTO t VALUES (?)";
      exec_exn db "ROLLBACK";
      exec_exn db "BEGIN";
      exec_exn db ~params:[| V.Int 2 |] "INSERT INTO t VALUES (?)";
      exec_exn db "COMMIT";
      let want = db_state db in
      Wal.crash_for_testing store;
      let store2, db2, recov = open_exn dir in
      (* create + one committed statement + its commit marker *)
      check tint "replayed" 2 recov.Wal.rec_replayed;
      check tbool "only the committed transaction" true
        (states_equal want (db_state db2));
      Wal.close store2)

(* A log that ends in whole 'S' frames with no 'C' marker holds a
   transaction whose COMMIT was never acknowledged: recovery discards
   those statements and reports them as skipped. *)
let test_uncommitted_tail_skipped () =
  with_temp_dir (fun dir ->
      let store, db, _ = open_exn dir in
      exec_exn db "CREATE TABLE t (a INTEGER)";
      exec_exn db ~params:[| V.Int 1 |] "INSERT INTO t VALUES (?)";
      let want = db_state db in
      let path = Wal.wal_path store in
      Wal.crash_for_testing store;
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0 in
      List.iter
        (fun a ->
          let frame =
            Wal.encode_record ~kind:Wal.Txn_stmt ~sql:"INSERT INTO t VALUES (?)"
              ~params:[| V.Int a |]
          in
          ignore (Unix.write_substring fd frame 0 (String.length frame)))
        [ 2; 3 ];
      Unix.close fd;
      let store2, db2, recov = open_exn dir in
      check tint "replayed" 2 recov.Wal.rec_replayed;
      check tint "uncommitted tail skipped" 2 recov.Wal.rec_skipped;
      check tint "whole frames are not torn" 0 recov.Wal.rec_truncated_bytes;
      check tbool "tail not applied" true (states_equal want (db_state db2));
      Wal.close store2)

(* ------------------------------------------------------------------ *)
(* Torn tails *)

let test_torn_tail_truncated () =
  with_temp_dir (fun dir ->
      let store, db, _ = open_exn dir in
      exec_exn db "CREATE TABLE t (a INTEGER)";
      exec_exn db ~params:[| V.Int 1 |] "INSERT INTO t VALUES (?)";
      let oracle = db_state db in
      exec_exn db ~params:[| V.Int 2 |] "INSERT INTO t VALUES (?)";
      let path = Wal.wal_path store in
      Wal.crash_for_testing store;
      (* tear 3 bytes off the last record *)
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (size - 3);
      Unix.close fd;
      let store2, db2, recov = open_exn dir in
      check tbool "tail reported" true (recov.Wal.rec_truncated_bytes > 0);
      check tbool "recovered to the last intact record" true
        (states_equal oracle (db_state db2));
      (* the store keeps working after the repair *)
      exec_exn db2 ~params:[| V.Int 3 |] "INSERT INTO t VALUES (?)";
      let want = db_state db2 in
      Wal.crash_for_testing store2;
      let store3, db3, recov3 = open_exn dir in
      check tint "clean after repair" 0 recov3.Wal.rec_truncated_bytes;
      check tbool "post-repair appends replay" true
        (states_equal want (db_state db3));
      Wal.close store3)

let test_garbage_tail_truncated () =
  with_temp_dir (fun dir ->
      let store, db, _ = open_exn dir in
      exec_exn db "CREATE TABLE t (a INTEGER)";
      exec_exn db ~params:[| V.Int 1 |] "INSERT INTO t VALUES (?)";
      let want = db_state db in
      let path = Wal.wal_path store in
      Wal.crash_for_testing store;
      (* append garbage that cannot possibly checksum *)
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0 in
      let junk = Bytes.of_string "\xff\xff\xff\xff\xde\xad\xbe\xef garbage" in
      ignore (Unix.write fd junk 0 (Bytes.length junk));
      Unix.close fd;
      let store2, db2, recov = open_exn dir in
      check tbool "garbage truncated" true (recov.Wal.rec_truncated_bytes > 0);
      check tbool "intact prefix recovered" true
        (states_equal want (db_state db2));
      Wal.close store2)

(* ------------------------------------------------------------------ *)
(* Checkpoints *)

let test_checkpoint_rotates_and_recovers () =
  with_temp_dir (fun dir ->
      let store, db, _ = open_exn dir in
      exec_exn db "CREATE TABLE t (a INTEGER)";
      exec_exn db ~params:[| V.Int 1 |] "INSERT INTO t VALUES (?)";
      (match Wal.checkpoint store db with
      | Ok () -> ()
      | Error e -> Alcotest.failf "checkpoint: %s" (Sqlgraph.Error.to_string e));
      check tint "generation bumped" 1 (Wal.gen store);
      check tbool "old wal gone" false
        (Sys.file_exists (Filename.concat dir "wal-000000.log"));
      check tbool "checkpoint dir exists" true
        (Sys.file_exists (Filename.concat dir "checkpoint-000001"));
      exec_exn db ~params:[| V.Int 2 |] "INSERT INTO t VALUES (?)";
      let want = db_state db in
      Wal.crash_for_testing store;
      let store2, db2, recov = open_exn dir in
      check tint "opened the new generation" 1 recov.Wal.rec_gen;
      check tint "only the post-checkpoint tail replays" 1
        recov.Wal.rec_replayed;
      check tbool "checkpoint + tail equals the full state" true
        (states_equal want (db_state db2));
      Wal.close store2)

let test_checkpoint_refused_in_txn () =
  with_temp_dir (fun dir ->
      let store, db, _ = open_exn dir in
      exec_exn db "CREATE TABLE t (a INTEGER)";
      exec_exn db "BEGIN";
      (match Wal.checkpoint store db with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "checkpoint inside a transaction must refuse");
      exec_exn db "ROLLBACK";
      (match Wal.checkpoint store db with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "checkpoint after rollback: %s"
          (Sqlgraph.Error.to_string e));
      Wal.close store)

(* a checkpoint that dies at any of its fault sites must leave the old
   generation fully usable *)
let test_checkpoint_crash_atomic () =
  List.iter
    (fun site ->
      with_temp_dir (fun dir ->
          let store, db, _ = open_exn dir in
          exec_exn db "CREATE TABLE t (a INTEGER)";
          exec_exn db ~params:[| V.Int 1 |] "INSERT INTO t VALUES (?)";
          let want = db_state db in
          Fault.set_specs [ Fault.At_site site ];
          (match Wal.checkpoint store db with
          | Error _ -> ()
          | Ok () -> Alcotest.failf "%s: checkpoint should have died" site);
          Fault.clear ();
          Wal.crash_for_testing store;
          let store2, db2, recov = open_exn dir in
          check tint (site ^ ": still on generation 0") 0 recov.Wal.rec_gen;
          check tbool (site ^ ": state survived the failed checkpoint") true
            (states_equal want (db_state db2));
          Wal.close store2))
    [ "persist_write"; "persist_rename"; "checkpoint"; "wal_rotate";
      "current_rename" ]

(* ------------------------------------------------------------------ *)
(* Opening odd directories *)

let test_open_refuses_foreign_dir () =
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let oc = open_out (Filename.concat dir "precious.txt") in
      output_string oc "do not eat";
      close_out oc;
      match Wal.open_dir dir with
      | Error _ ->
        check tbool "foreign file untouched" true
          (Sys.file_exists (Filename.concat dir "precious.txt"))
      | Ok _ -> Alcotest.fail "refused to refuse a non-sqlgraph directory")

let test_registry_counters () =
  with_temp_dir (fun dir ->
      let store, db, _ = open_exn dir in
      exec_exn db "CREATE TABLE t (a INTEGER)";
      for i = 1 to 10 do
        exec_exn db ~params:[| V.Int i |] "INSERT INTO t VALUES (?)"
      done;
      Wal.close store;
      let get name =
        Reg.fold (Db.registry db) ~init:None ~f:(fun acc n ~help:_ m ->
            if String.equal n name then Some m else acc)
      in
      (match get "sqlgraph_wal_records_total" with
      | Some (Reg.Counter n) -> check tbool "records counted" true (n >= 11)
      | _ -> Alcotest.fail "sqlgraph_wal_records_total missing");
      (match get "sqlgraph_wal_bytes_total" with
      | Some (Reg.Counter n) -> check tbool "bytes counted" true (n > 0)
      | _ -> Alcotest.fail "sqlgraph_wal_bytes_total missing");
      match get "sqlgraph_wal_fsyncs_total" with
      | Some (Reg.Counter n) -> check tbool "fsyncs counted" true (n >= 11)
      | _ -> Alcotest.fail "sqlgraph_wal_fsyncs_total missing")

(* ------------------------------------------------------------------ *)
(* Multi-spec fault injection (satellite of this PR) *)

let test_fault_multi_spec_parsing () =
  (match Fault.parse_specs "site=wal_fsync,after=3;site=rename" with
  | [ Fault.At_site_after { site = "wal_fsync"; after = 3 };
      Fault.At_site "rename" ] ->
    ()
  | other ->
    Alcotest.failf "parse_specs: got %d specs" (List.length other));
  (* back-compat: single-segment forms unchanged *)
  (match Fault.parse "after=7" with
  | Some (Fault.After_checks 7) -> ()
  | _ -> Alcotest.fail "after=7");
  check tint "off disarms" 0 (List.length (Fault.parse_specs "off"));
  check tint "empty disarms" 0 (List.length (Fault.parse_specs ""));
  (* malformed segments are dropped, valid ones kept *)
  match Fault.parse_specs "bogus;site=wal_append" with
  | [ Fault.At_site "wal_append" ] -> ()
  | other -> Alcotest.failf "malformed drop: got %d specs" (List.length other)

let test_fault_per_site_counting () =
  Fun.protect ~finally:Fault.clear (fun () ->
      Fault.set_specs
        [ Fault.At_site_after { site = "alpha"; after = 2 } ];
      Fault.hit ~site:"beta";
      (* other sites don't advance a site-scoped counter *)
      Fault.hit ~site:"alpha";
      (match Fault.hit ~site:"alpha" with
      | () -> Alcotest.fail "second alpha hit should raise"
      | exception Fault.Injected { site = "alpha"; _ } -> ());
      (* one-shot: disarmed after firing *)
      Fault.hit ~site:"alpha";
      check tint "disarmed" 0 (List.length (Fault.specs ()));
      (* two specs: firing one leaves the other armed *)
      Fault.set_specs
        [
          Fault.At_site "gamma";
          Fault.At_site_after { site = "delta"; after = 1 };
        ];
      (match Fault.hit ~site:"gamma" with
      | () -> Alcotest.fail "gamma should raise"
      | exception Fault.Injected { site = "gamma"; _ } -> ());
      check tint "delta still armed" 1 (List.length (Fault.specs ()));
      match Fault.hit ~site:"delta" with
      | () -> Alcotest.fail "delta should raise"
      | exception Fault.Injected { site = "delta"; _ } -> ())

(* second-order failure: the fsync fails, then the truncate-on-abort
   repair fails too — the store poisons itself and the un-repaired
   record may legitimately replay (the documented "+1 in flight") *)
let test_second_order_poisoning () =
  with_temp_dir (fun dir ->
      let store, db, _ = open_exn dir in
      exec_exn db "CREATE TABLE t (a INTEGER)";
      exec_exn db ~params:[| V.Int 1 |] "INSERT INTO t VALUES (?)";
      Fun.protect ~finally:Fault.clear (fun () ->
          Fault.set_specs
            [ Fault.At_site "wal_fsync"; Fault.At_site "wal_truncate" ];
          match Db.exec db ~params:[| V.Int 2 |] "INSERT INTO t VALUES (?)" with
          | Ok _ -> Alcotest.fail "fsync fault should surface"
          | Error _ -> ());
      (* the poisoned store refuses further work *)
      (match Db.exec db ~params:[| V.Int 3 |] "INSERT INTO t VALUES (?)" with
      | Ok _ -> Alcotest.fail "poisoned store must refuse appends"
      | Error _ -> ());
      Wal.crash_for_testing store;
      let store2, db2, _ = open_exn dir in
      let n =
        match Catalog.find (Db.catalog db2) "t" with
        | Some t -> Table.nrows t
        | None -> -1
      in
      check tbool "prefix or prefix+in-flight" true (n = 1 || n = 2);
      Wal.close store2)

(* ------------------------------------------------------------------ *)
(* The crash-recovery fuzzer *)

type plan_item = Stmt of string * V.t array | Ckpt

let pp_item = function
  | Ckpt -> "CHECKPOINT"
  | Stmt (sql, params) ->
    if Array.length params = 0 then sql
    else
      Printf.sprintf "%s  [%s]" sql
        (String.concat ", "
           (Array.to_list
              (Array.map
                 (fun v ->
                   match v with
                   | V.Null -> "NULL"
                   | V.Int i -> string_of_int i
                   | V.Str s -> Printf.sprintf "%S" s
                   | _ -> "?")
                 params)))

(* Generate a workload that is valid by construction: a little simulator
   tracks which tables exist (committed or not — the plan is a straight
   line, so statement-order existence is all that matters). *)
let gen_plan rand =
  let open QCheck.Gen in
  let n = int_range 4 30 rand in
  let existing = ref [] in
  let fresh_id = ref 0 in
  let items = ref [] in
  let push i = items := i :: !items in
  let pick_table () =
    let l = !existing in
    List.nth l (int_bound (List.length l - 1) rand)
  in
  let rand_str () =
    match int_bound 4 rand with
    | 0 -> "plain"
    | 1 -> "comma, \"quoted\""
    | 2 -> "line\nbreak"
    | 3 -> "héllo — ∀x"
    | _ -> ""
  in
  let dml () =
    let t = pick_table () in
    match int_bound 5 rand with
    | 0 | 1 ->
      Stmt
        ( Printf.sprintf "INSERT INTO t%d VALUES (?, ?)" t,
          [|
            V.Int (int_range (-1000) 1000 rand);
            (if bool rand then V.Str (rand_str ()) else V.Null);
          |] )
    | 2 ->
      Stmt
        ( Printf.sprintf "UPDATE t%d SET b = ? WHERE a < ?" t,
          [| V.Str (rand_str ()); V.Int (int_range (-100) 100 rand) |] )
    | 3 ->
      Stmt
        ( Printf.sprintf "DELETE FROM t%d WHERE a > ?" t,
          [| V.Int (int_range (-100) 100 rand) |] )
    | _ ->
      let s = pick_table () in
      Stmt
        (Printf.sprintf "INSERT INTO t%d SELECT a + 100, b FROM t%d" t s, [||])
  in
  for _ = 1 to n do
    if !existing = [] then begin
      let id = !fresh_id in
      incr fresh_id;
      existing := id :: !existing;
      push (Stmt (Printf.sprintf "CREATE TABLE t%d (a INTEGER, b TEXT)" id, [||]))
    end
    else
      match int_bound 9 rand with
      | 0 when List.length !existing < 4 ->
        let id = !fresh_id in
        incr fresh_id;
        existing := id :: !existing;
        push
          (Stmt (Printf.sprintf "CREATE TABLE t%d (a INTEGER, b TEXT)" id, [||]))
      | 1 when List.length !existing > 1 ->
        let t = pick_table () in
        existing := List.filter (fun x -> x <> t) !existing;
        push (Stmt (Printf.sprintf "DROP TABLE t%d" t, [||]))
      | 2 ->
        (* a transaction: BEGIN, 1-3 DML, then COMMIT or ROLLBACK *)
        push (Stmt ("BEGIN", [||]));
        for _ = 1 to int_range 1 3 rand do
          push (dml ())
        done;
        push (Stmt ((if int_bound 3 rand = 0 then "ROLLBACK" else "COMMIT"), [||]))
      | 3 -> push Ckpt
      | _ -> push (dml ())
  done;
  List.rev !items

let fault_sites =
  [|
    "wal_append"; "wal_fsync"; "wal_torn"; "wal_truncate"; "checkpoint";
    "wal_rotate"; "current_rename"; "persist_write"; "persist_rename";
  |]

let gen_specs rand =
  let open QCheck.Gen in
  let one () =
    match int_bound 5 rand with
    | 0 -> Fault.After_checks (int_range 1 40 rand)
    | 1 -> Fault.At_site fault_sites.(int_bound (Array.length fault_sites - 1) rand)
    | _ ->
      Fault.At_site_after
        {
          site = fault_sites.(int_bound (Array.length fault_sites - 1) rand);
          after = int_range 1 15 rand;
        }
  in
  match int_bound 9 rand with
  | 0 -> [] (* no fault: plain kill -9 at the end *)
  | 1 | 2 | 3 -> [ one (); one () ] (* second-order pairs *)
  | _ -> [ one () ]

let gen_case rand = (gen_plan rand, gen_specs rand)

let print_case (plan, specs) =
  Printf.sprintf "specs=[%s]\nplan:\n  %s"
    (String.concat "; "
       (List.map
          (function
            | Fault.After_checks n -> Printf.sprintf "after=%d" n
            | Fault.At_site s -> Printf.sprintf "site=%s" s
            | Fault.At_site_after { site; after } ->
              Printf.sprintf "site=%s,after=%d" site after)
          specs))
    (String.concat "\n  " (List.map pp_item plan))

(* The CSV checkpoint format canonicalizes [Str ""] to NULL (the CSV
   layer cannot distinguish them — same caveat as the persist round-trip
   tests), so a state that crossed a checkpoint is compared modulo that
   equivalence.  The WAL param codec itself preserves "" exactly. *)
let norm_cell = function V.Str "" -> V.Null | v -> v

let states_equiv a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n1, t1) (n2, t2) ->
         String.equal n1 n2
         && Table.schema t1 = Table.schema t2
         && List.map (List.map norm_cell) (Table.to_rows t1)
            = List.map (List.map norm_cell) (Table.to_rows t2))
       a b

(* Replay the first [upto] plan items into a fresh in-memory database.
   A transaction left open at the cut is rolled back — exactly what
   recovery does with a commit-markerless tail. *)
let oracle_state items upto =
  let db = Db.create () in
  Array.iteri
    (fun idx item ->
      if idx < upto then
        match item with
        | Ckpt -> ()
        | Stmt (sql, params) -> ignore (Db.exec db ~params sql))
    items;
  if Db.in_transaction db then ignore (Db.exec db "ROLLBACK");
  db_state db

let run_fuzz_case (plan, specs) =
  with_temp_dir (fun dir ->
      let store, db, _ = open_exn dir in
      let items = Array.of_list plan in
      (* run to the injected crash (or the end) *)
      let crash_at = ref (Array.length items) in
      Fun.protect ~finally:Fault.clear (fun () ->
          Fault.set_specs specs;
          (try
             Array.iteri
               (fun idx item ->
                 let ok =
                   match item with
                   | Ckpt -> (
                     match Wal.checkpoint store db with
                     | Ok () -> true
                     | Error _ -> false)
                   | Stmt (sql, params) -> (
                     match Db.exec db ~params sql with
                     | Ok _ -> true
                     | Error _ -> false)
                 in
                 if not ok then begin
                   crash_at := idx;
                   raise Exit
                 end)
               items
           with Exit -> ()));
      Wal.crash_for_testing store;
      (* recover and compare against the oracle at the crash boundary *)
      match Wal.open_dir dir with
      | Error e ->
        QCheck.Test.fail_reportf "reopen failed: %s"
          (Sqlgraph.Error.to_string e)
      | Ok (store2, db2, _) ->
        let got = db_state db2 in
        Wal.close store2;
        let prefix = oracle_state items !crash_at in
        let with_inflight = oracle_state items (!crash_at + 1) in
        if states_equiv got prefix || states_equiv got with_inflight then true
        else
          QCheck.Test.fail_reportf
            "crash at item %d/%d\n\
             recovered  %s\nexpected   %s\nor         %s\n\
             === recovered ===\n%s\n=== expected (prefix) ===\n%s"
            !crash_at (Array.length items) (state_summary got)
            (state_summary prefix)
            (state_summary with_inflight)
            (state_dump got) (state_dump prefix))

let test_crash_recovery_fuzzer =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"wal: crash-recovery fuzzer" ~count:120
       (QCheck.make ~print:print_case gen_case)
       run_fuzz_case)

(* ------------------------------------------------------------------ *)
(* Atomic Persist.save (satellite of this PR) *)

let test_save_refuses_foreign_dir () =
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let oc = open_out (Filename.concat dir "precious.txt") in
      output_string oc "do not eat";
      close_out oc;
      let db = Db.create () in
      ignore (Db.exec_exn db "CREATE TABLE t (a INTEGER)");
      (match Sqlgraph.Persist.save db ~dir with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "save over a foreign directory must refuse");
      check tbool "foreign file untouched" true
        (Sys.file_exists (Filename.concat dir "precious.txt")))

let test_save_crash_leaves_old_state () =
  with_temp_dir (fun dir ->
      let db = Db.create () in
      ignore (Db.exec_exn db "CREATE TABLE t (a INTEGER)");
      ignore (Db.exec_exn db "INSERT INTO t VALUES (1)");
      (match Sqlgraph.Persist.save db ~dir with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save: %s" (Sqlgraph.Error.to_string e));
      ignore (Db.exec_exn db "INSERT INTO t VALUES (2)");
      List.iter
        (fun site ->
          Fun.protect ~finally:Fault.clear (fun () ->
              Fault.set_specs [ Fault.At_site site ];
              match Sqlgraph.Persist.save db ~dir with
              | Ok () -> Alcotest.failf "%s: save should have died" site
              | Error _ -> ());
          (* the old save must still load in full *)
          match Sqlgraph.Persist.load ~dir with
          | Error e ->
            Alcotest.failf "%s: old save unreadable: %s" site
              (Sqlgraph.Error.to_string e)
          | Ok db2 -> (
            match Catalog.find (Db.catalog db2) "t" with
            | Some t -> check tint (site ^ ": old rows intact") 1 (Table.nrows t)
            | None -> Alcotest.failf "%s: table lost" site))
        [ "persist_write"; "persist_rename" ])

(* CSV round-trip for every persistable dtype, NULLs in every column,
   doubles that need all 17 digits, and strings that stress the quoting
   rules (never "": the CSV layer reads an empty field back as NULL) *)
let gen_text rand =
  let open QCheck.Gen in
  match int_bound 9 rand with
  | 0 -> V.Str "a, b"
  | 1 -> V.Str "\"already quoted\""
  | 2 -> V.Str "two\nlines"
  | 3 -> V.Str "héllo — ∀x. ∃y"
  | 4 -> V.Str "cr\rinside"
  | 5 -> V.Str "crlf\r\nline"
  | 6 -> V.Str "\r"
  | 7 -> V.Str "ends in cr\r"
  | _ -> V.Str (string_size ~gen:printable (int_range 1 12) rand)

let rec gen_double rand =
  let open QCheck.Gen in
  match int_bound 7 rand with
  | 0 ->
    V.Float (oneofl [ 0.1; 1. /. 3.; 123456789.5; 0.1234567891; 3.03 ] rand)
  | 1 ->
    V.Float (oneofl [ max_float; -.max_float; min_float; 5e-324; -0. ] rand)
  | 2 -> V.Float (float_of_int (int_range (-1000) 1000 rand))
  | 3 -> V.Float (float_range (-1e6) 1e6 rand)
  | _ ->
    let x = Int64.float_of_bits (ui64 rand) in
    if Float.is_finite x then V.Float x else gen_double rand

let gen_csv_table rand =
  let open QCheck.Gen in
  let cell gen rand = if int_bound 5 rand = 0 then V.Null else gen rand in
  let first = Storage.Date.of_ymd ~year:1 ~month:1 ~day:1 in
  let last = Storage.Date.of_ymd ~year:9999 ~month:12 ~day:31 in
  list_size (int_bound 15)
    (flatten_l
       [
         cell (fun r -> V.Int (oneof [ int_range (-100000) 100000; int ] r));
         cell gen_double;
         cell (fun r -> V.Bool (bool r));
         cell gen_text;
         cell (fun r -> V.Date (int_range first last r));
       ])
    rand

let csv_schema =
  Storage.Schema.of_pairs
    [
      ("i", Storage.Dtype.TInt);
      ("f", Storage.Dtype.TFloat);
      ("b", Storage.Dtype.TBool);
      ("s", Storage.Dtype.TStr);
      ("d", Storage.Dtype.TDate);
    ]

(* [table] through Persist.save and Persist.load *)
let persist_roundtrip table =
  with_temp_dir (fun dir ->
      let db = Db.create () in
      Db.load_table db ~name:"rt" table;
      (match Sqlgraph.Persist.save db ~dir with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save: %s" (Sqlgraph.Error.to_string e));
      match Sqlgraph.Persist.load ~dir with
      | Error e -> Alcotest.failf "load: %s" (Sqlgraph.Error.to_string e)
      | Ok db2 -> Option.get (Catalog.find (Db.catalog db2) "rt"))

(* bit-for-bit, so -0.0 and the last digit count *)
let same_cells a b =
  List.length a = List.length b
  && List.for_all2
       (List.for_all2 (fun x y ->
            match x, y with
            | V.Float x, V.Float y ->
              Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
            | _ -> V.equal x y))
       a b

let test_csv_persist_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"persist: csv round-trip across dtypes" ~count:60
       (QCheck.make gen_csv_table)
       (fun rows ->
         let table = Table.of_rows csv_schema rows in
         let back = persist_roundtrip table in
         Table.equal table back && same_cells rows (Table.to_rows back)))

(* A checkpoint once wrote DOUBLE with "%g": six significant digits. *)
let test_checkpoint_keeps_double_digits () =
  let xs = [ 0.1234567891; 3.14159265358979; 123456789.5; 1. /. 3.; 5e-324 ] in
  let schema = Storage.Schema.of_pairs [ ("w", Storage.Dtype.TFloat) ] in
  let table = Table.of_rows schema (List.map (fun x -> [ V.Float x ]) xs) in
  check tbool "every digit survives" true
    (same_cells (Table.to_rows table)
       (Table.to_rows (persist_roundtrip table)));
  (* text that already read back exactly is written as before *)
  check Alcotest.string "display text kept" "w\n3.03\n2.0\n1e+300\n"
    (Sqlgraph.Resultset.to_csv
       (Sqlgraph.Resultset.of_table
          (Table.of_rows schema
             [ [ V.Float 3.03 ]; [ V.Float 2. ]; [ V.Float 1e300 ] ])))

(* A checkpoint once left a lone CR unquoted, and the reader drops it. *)
let test_checkpoint_keeps_carriage_return () =
  let ss = [ "a\rb"; "x\r\ny"; "\r"; "end\r" ] in
  let schema = Storage.Schema.of_pairs [ ("s", Storage.Dtype.TStr) ] in
  let table = Table.of_rows schema (List.map (fun s -> [ V.Str s ]) ss) in
  check tbool "CR kept" true
    (same_cells (Table.to_rows table)
       (Table.to_rows (persist_roundtrip table)))

(* CTAS already refuses to materialize a path column into the catalog,
   so Persist's own refusal is defense in depth — reach it by loading a
   path-typed table directly *)
type V.nested += Fake_snapshot

let test_path_columns_refuse_to_persist () =
  with_temp_dir (fun dir ->
      let db = Db.create () in
      let table =
        Table.of_rows
          (Storage.Schema.of_pairs
             [ ("n", Storage.Dtype.TInt); ("p", Storage.Dtype.TPath) ])
          [ [ V.Int 1; V.Path { tag = Fake_snapshot; rows = [| 0; 1 |] } ] ]
      in
      Db.load_table db ~name:"paths" table;
      (* the SQL layer refuses too: CTAS cannot store a path column *)
      ignore (Db.exec_exn db "CREATE TABLE e (a INTEGER, b INTEGER)");
      ignore (Db.exec_exn db "INSERT INTO e VALUES (1, 2)");
      (match
         Db.exec db
           "CREATE TABLE nope AS SELECT CHEAPEST SUM(x: 1) AS (c, p) WHERE 1 \
            REACHES 2 OVER e x EDGE (a, b)"
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "CTAS with a path column must refuse");
      match Sqlgraph.Persist.save db ~dir with
      | Error e ->
        let msg = Sqlgraph.Error.to_string e in
        check tbool "explains the refusal" true
          (Astring.String.is_infix ~affix:"paths cannot be permanently stored"
             msg)
      | Ok () -> Alcotest.fail "path-typed column must refuse to persist")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "durability"
    [
      ( "crc",
        [
          Alcotest.test_case "known-answer" `Quick test_crc_kat;
          test_crc_matches_reference;
        ] );
      ( "wal",
        [
          Alcotest.test_case "basic recovery" `Quick test_basic_recovery;
          Alcotest.test_case "kill -9 keeps acknowledged" `Quick
            test_crash_keeps_acknowledged;
          Alcotest.test_case "param codec round-trip" `Quick
            test_param_codec_roundtrip;
          Alcotest.test_case "rolled-back txn not replayed" `Quick
            test_rollback_not_replayed;
          Alcotest.test_case "uncommitted tail counted as skipped" `Quick
            test_uncommitted_tail_skipped;
          Alcotest.test_case "torn tail truncated" `Quick
            test_torn_tail_truncated;
          Alcotest.test_case "garbage tail truncated" `Quick
            test_garbage_tail_truncated;
          Alcotest.test_case "registry counters" `Quick test_registry_counters;
          Alcotest.test_case "open refuses foreign dir" `Quick
            test_open_refuses_foreign_dir;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "rotates and recovers" `Quick
            test_checkpoint_rotates_and_recovers;
          Alcotest.test_case "refused inside txn" `Quick
            test_checkpoint_refused_in_txn;
          Alcotest.test_case "crash at every site is atomic" `Quick
            test_checkpoint_crash_atomic;
        ] );
      ( "fault",
        [
          Alcotest.test_case "multi-spec parsing" `Quick
            test_fault_multi_spec_parsing;
          Alcotest.test_case "per-site hit counting" `Quick
            test_fault_per_site_counting;
          Alcotest.test_case "second-order poisoning" `Quick
            test_second_order_poisoning;
        ] );
      ("fuzzer", [ test_crash_recovery_fuzzer ]);
      ( "persist",
        [
          Alcotest.test_case "save refuses foreign dir" `Quick
            test_save_refuses_foreign_dir;
          Alcotest.test_case "failed save leaves old state" `Quick
            test_save_crash_leaves_old_state;
          test_csv_persist_roundtrip;
          Alcotest.test_case "checkpoint keeps DOUBLE digits" `Quick
            test_checkpoint_keeps_double_digits;
          Alcotest.test_case "checkpoint keeps a carriage return" `Quick
            test_checkpoint_keeps_carriage_return;
          Alcotest.test_case "path columns refuse" `Quick
            test_path_columns_refuse_to_persist;
        ] );
    ]
