(* Tests for the discrete-event workload simulator (lib/sim): event-queue
   ordering, trace determinism, kill-and-recover, the server backend, and
   the cross-engine byte-identity regression on a sim-mutated graph. *)

module EQ = Sim.Event_queue
module Driver = Sim.Driver
module V = Storage.Value

(* ---------------- event queue ---------------- *)

let test_eq_ordering () =
  let q = EQ.create () in
  let rng = Datagen.Splitmix.create ~seed:42 in
  for i = 0 to 999 do
    EQ.push q ~time:(Datagen.Splitmix.float rng) i
  done;
  Alcotest.(check int) "length" 1000 (EQ.length q);
  let last = ref neg_infinity in
  let n = ref 0 in
  let rec drain () =
    match EQ.pop q with
    | None -> ()
    | Some (t, _) ->
      if t < !last then Alcotest.failf "pop went backwards: %f after %f" t !last;
      last := t;
      incr n;
      drain ()
  in
  drain ();
  Alcotest.(check int) "drained all" 1000 !n;
  Alcotest.(check bool) "empty" true (EQ.is_empty q)

let test_eq_fifo_ties () =
  let q = EQ.create () in
  (* equal times must pop in push order — the determinism guarantee *)
  for i = 0 to 99 do
    EQ.push q ~time:1.0 i
  done;
  EQ.push q ~time:0.5 (-1);
  let order =
    List.init 101 (fun _ ->
        match EQ.pop q with Some (_, p) -> p | None -> -2)
  in
  Alcotest.(check (list int))
    "earliest first, then FIFO"
    (-1 :: List.init 100 Fun.id)
    order

let test_eq_interleaved () =
  let q = EQ.create () in
  EQ.push q ~time:3.0 30;
  EQ.push q ~time:1.0 10;
  (match EQ.pop q with
  | Some (t, 10) -> Alcotest.(check (float 1e-9)) "t" 1.0 t
  | _ -> Alcotest.fail "expected payload 10");
  EQ.push q ~time:2.0 20;
  EQ.push q ~time:0.5 5;
  Alcotest.(check int) "size" 3 (EQ.length q);
  let pops =
    List.init 3 (fun _ -> match EQ.pop q with Some (_, p) -> p | None -> -1)
  in
  Alcotest.(check (list int)) "min order" [ 5; 20; 30 ] pops;
  Alcotest.(check bool) "drained" true (EQ.pop q = None)

(* ---------------- driver ---------------- *)

let tiny ?(backend = Driver.Inproc) ?(seed = 11) ?(statements = 1200) ?kill_at
    ?(domains = 1) () =
  {
    Driver.backend;
    seed;
    clients = 3;
    statements;
    persons = 60;
    friendships = 240;
    batch_pairs = 4;
    kv_keys = 32;
    kill_at;
    data_dir = None;
    domains;
  }

let check_clean (r : Driver.report) =
  if r.Driver.violation_count > 0 then
    Alcotest.failf "%d violations, first: %s" r.Driver.violation_count
      (match r.Driver.violations with v :: _ -> v | [] -> "?");
  (* the history judged reads and acked writes: the run was not vacuous *)
  List.iter
    (fun name ->
      match List.assoc_opt name r.Driver.judged with
      | Some n when n > 0 -> ()
      | _ -> Alcotest.failf "the history's %s judged nothing" name)
    [ "acked_lost"; "stale_read"; "conservation" ]

let test_determinism () =
  let cfg = tiny () in
  let a = Driver.run cfg in
  let b = Driver.run cfg in
  check_clean a;
  check_clean b;
  Alcotest.(check int) "trace digest" a.Driver.digest b.Driver.digest;
  Alcotest.(check int) "outcome digest" a.Driver.outcome_digest
    b.Driver.outcome_digest;
  Alcotest.(check int) "statements" a.Driver.statements b.Driver.statements;
  let c = Driver.run (tiny ~seed:12 ()) in
  check_clean c;
  if c.Driver.digest = a.Driver.digest then
    Alcotest.fail "different seed produced the same trace digest"

(* Traversal parallelism must not leak into observable results: the same
   workload at domains=4 yields byte-for-byte the digests of domains=1. *)
let test_domains_digest_stable () =
  let a = Driver.run (tiny ()) in
  let d4 = Driver.run (tiny ~domains:4 ()) in
  check_clean a;
  check_clean d4;
  Alcotest.(check int) "trace digest" a.Driver.digest d4.Driver.digest;
  Alcotest.(check int)
    "outcome digest" a.Driver.outcome_digest d4.Driver.outcome_digest;
  Alcotest.(check int) "statements" a.Driver.statements d4.Driver.statements

let test_kill_and_recover () =
  let r = Driver.run (tiny ~statements:2000 ~kill_at:900 ()) in
  check_clean r;
  Alcotest.(check int) "one recovery" 1 r.Driver.recoveries;
  if r.Driver.statements < 2000 then
    Alcotest.failf "run stopped early: %d" r.Driver.statements

let test_server_backend () =
  let r = Driver.run (tiny ~backend:Driver.Server_sessions ()) in
  check_clean r;
  if r.Driver.statements < 1200 then
    Alcotest.failf "run stopped early: %d" r.Driver.statements;
  (* the mix's reconnect events all ran through close+reattach *)
  if r.Driver.reconnects = 0 then Alcotest.fail "no reconnect events fired"

let test_latencies_reported () =
  let r = Driver.run (tiny ~statements:800 ()) in
  check_clean r;
  let find c =
    List.find_opt (fun s -> s.Driver.cls = c) r.Driver.classes
  in
  (match find "insert_kv" with
  | None -> Alcotest.fail "no insert_kv stats"
  | Some s ->
    if s.Driver.count = 0 then Alcotest.fail "empty insert_kv histogram";
    if not (s.Driver.p50 > 0. && s.Driver.p99 >= s.Driver.p50) then
      Alcotest.failf "bad percentiles p50=%f p99=%f" s.Driver.p50 s.Driver.p99);
  match find "point" with
  | None -> Alcotest.fail "no point stats"
  | Some s -> if s.Driver.p99 <= 0. then Alcotest.fail "zero p99 for point"

(* ---------------- the history checker ---------------- *)

(* Hand-built histories that each break exactly one invariant: the
   checker must report that one, once, and a clean history nothing. *)

module H = Sim.History
module Protocol = Sqlgraph_server.Protocol

let ins k v = H.Insert { table = "t"; key = k; value = v }

let violations h = H.describe (H.check h)

let expect_only inv h =
  match (H.check h).H.violations with
  | [ (i, _) ] when i = inv -> ()
  | _ ->
    Alcotest.failf "expected exactly one %s, got [%s]" (H.invariant_name inv)
      (String.concat "; " (violations h))

(* session 1 acks (1,10) at v1 and (1,11) at v2, reads at v2, rolls
   (1,99) back and leaves a two-row transaction ambiguous; a standby
   session reads two prefixes *)
let clean_history () =
  let h = H.create () in
  H.seen h ~session:1 0;
  H.acked h ~session:1 ~version:1 ~count:1 [ ins 1 10 ];
  H.acked h ~session:1 ~version:2 ~count:1 [ ins 1 11 ];
  H.read h ~session:1 (H.At 2) ~table:"t" (H.Rows [ (1, 10); (1, 11) ]);
  H.read h ~session:1 (H.At 2) ~table:"t" (H.Count 2);
  H.refused h [ ins 1 99 ];
  H.ambiguous h ~session:1 [ ins 2 20; ins 2 21 ];
  H.read h ~session:2 H.Prefix ~table:"t" (H.Count 1);
  H.read h ~session:2 H.Prefix ~table:"t" (H.Count 4);
  h

let read_at ?(session = 5) at result h = H.read h ~session at ~table:"t" result
let final rows = read_at ~session:3 H.Final (H.Rows rows)

let test_history_clean () =
  List.iter
    (fun rows ->
      let h = clean_history () in
      final rows h;
      Alcotest.(check (list string)) "no violation" [] (violations h);
      List.iter
        (fun (inv, n) ->
          if n = 0 then Alcotest.failf "%s judged nothing" (H.invariant_name inv))
        (H.check h).H.judged)
    (* the ambiguous transaction landed whole, or not at all *)
    [ [ (1, 10); (1, 11); (2, 20); (2, 21) ]; [ (1, 10); (1, 11) ] ]

(* The second greeting reports an older snapshot than the last OK. *)
let test_history_snapshot_regressed () =
  let h = H.create () in
  H.seen_reply h ~session:4 [ Protocol.hello ~sid:1 ~snapshot:2 ];
  H.seen_reply h ~session:4
    (Protocol.ok_outcome ~snapshot:5 (Sqlgraph.Db.Inserted 1));
  H.seen_reply h ~session:4 [ Protocol.hello ~sid:2 ~snapshot:3 ];
  expect_only H.Snapshot_regressed h

let broken_histories =
  H.
    [
      ("lost ack", Acked_lost, [ final [ (1, 10); (2, 20); (2, 21) ] ]);
      ("refused row survived", Refused_survived, [ final [ (1, 10); (1, 11); (1, 99) ] ]);
      ("partial transaction", Partial_txn, [ final [ (1, 10); (1, 11); (2, 21) ] ]);
      ("fabricated row", Fabricated, [ final [ (1, 10); (1, 11); (7, 7) ] ]);
      ("stale read", Stale_read, [ read_at (At 2) (Rows [ (1, 10) ]) ]);
      ("stale count", Stale_read, [ read_at (At 2) (Count 1) ]);
      ("standby read below its last prefix", Stale_read, [ read_at ~session:2 Prefix (Count 1) ]);
      ( "an ambiguous row the session saw, gone",
        Stale_read,
        [
          read_at ~session:6 (At 3) (Count 4);
          (fun h -> H.acked h ~session:1 ~version:4 ~count:1 [ ins 1 12 ]);
          read_at ~session:6 (At 4) (Count 3);
        ] );
      ("future read", Future_read, [ read_at (At 1) (Rows [ (1, 10); (1, 11) ]) ]);
      (* session 1 had seen v2 when it sent the transaction *)
      ("a write sent after the version read", Future_read, [ read_at (At 2) (Count 3) ]);
      ( "row count not conserved",
        Conservation,
        [ (fun h -> H.acked h ~session:1 ~version:3 ~count:1 [ Delete { table = "t"; key = 1 } ]) ] );
    ]

(* ---------------- byte-identity on a sim-mutated graph ---------------- *)

(* The pairs benchmark asserts Scalar ≡ Batched ≡ Batched(domains=4) on a
   pristine generated graph; this pins the same identity after the
   simulator's DML burst has mutated the edge table through the SQL
   layer — inserts, deletes, duplicate edges and all. *)
let test_engines_agree_after_mutation () =
  let g = Datagen.Snb.generate_custom ~persons:200 ~friendships:800 ~seed:3 () in
  let db = Sqlgraph.Db.create () in
  Sqlgraph.Db.load_table db ~name:"friends" g.Datagen.Snb.friends;
  let ids = Datagen.Snb.person_ids g in
  Driver.mutate_graph db ~ids ~seed:5 ~statements:300;
  let friends =
    match Storage.Catalog.find (Sqlgraph.Db.catalog db) "friends" with
    | Some t -> t
    | None -> Alcotest.fail "friends table vanished"
  in
  let src = Option.get (Storage.Table.column_by_name friends "src") in
  let dst = Option.get (Storage.Table.column_by_name friends "dst") in
  let rt = Graph.Runtime.build ~src ~dst in
  let pairs =
    Array.map
      (fun (a, b) -> (V.Int a, V.Int b))
      (Datagen.Workload.random_pairs ~seed:7 ~ids 64)
  in
  let run ?domains engine =
    Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted ?domains
      ~engine ~pairs ()
  in
  let scalar = run `Scalar in
  let batched = run `Batched in
  let batched4 = run ~domains:4 `Batched in
  let same a b =
    Array.for_all2
      (fun x y ->
        match (x, y) with
        | Graph.Runtime.Unreachable, Graph.Runtime.Unreachable -> true
        | ( Graph.Runtime.Reached { cost = c1; edge_rows = r1 },
            Graph.Runtime.Reached { cost = c2; edge_rows = r2 } ) ->
          c1 = c2 && r1 = r2
        | _ -> false)
      a b
  in
  Alcotest.(check bool) "scalar = batched" true (same scalar batched);
  Alcotest.(check bool) "scalar = batched domains=4" true (same scalar batched4)

(* Packed and plain CSR representations must be observationally
   identical on the same mutated edge list. *)
let test_compact_csr_equivalent () =
  let g = Datagen.Snb.generate_custom ~persons:150 ~friendships:600 ~seed:9 () in
  let db = Sqlgraph.Db.create () in
  Sqlgraph.Db.load_table db ~name:"friends" g.Datagen.Snb.friends;
  Driver.mutate_graph db ~ids:(Datagen.Snb.person_ids g) ~seed:21
    ~statements:200;
  let friends =
    Option.get (Storage.Catalog.find (Sqlgraph.Db.catalog db) "friends")
  in
  let col name =
    let c = Option.get (Storage.Table.column_by_name friends name) in
    Array.init (Storage.Column.length c) (fun i ->
        match Storage.Column.get c i with
        | V.Int v -> v
        | _ -> Alcotest.fail "non-int endpoint")
  in
  let src = col "src" and dst = col "dst" in
  let vertex_count = 1 + Array.fold_left max 0 (Array.append src dst) in
  let plain = Graph.Csr.build_repr ~compact:false ~vertex_count ~src ~dst in
  let packed = Graph.Csr.build_repr ~compact:true ~vertex_count ~src ~dst in
  Alcotest.(check bool) "plain is words" false (Graph.Csr.compacted plain);
  Alcotest.(check bool) "packed is packed" true (Graph.Csr.compacted packed);
  if Graph.Csr.memory_words packed >= Graph.Csr.memory_words plain then
    Alcotest.fail "packed representation is not smaller";
  for v = 0 to vertex_count - 1 do
    let adj t =
      let acc = ref [] in
      Graph.Csr.iter_out t v (fun ~slot ~target ->
          acc := (slot, target) :: !acc);
      List.rev !acc
    in
    if adj plain <> adj packed then
      Alcotest.failf "adjacency of vertex %d differs between representations"
        v
  done

let () =
  Alcotest.run "sim"
    [
      ( "event-queue",
        [
          Alcotest.test_case "time ordering" `Quick test_eq_ordering;
          Alcotest.test_case "FIFO tie-break" `Quick test_eq_fifo_ties;
          Alcotest.test_case "interleaved push/pop" `Quick test_eq_interleaved;
        ] );
      ( "driver",
        [
          Alcotest.test_case "same seed, same digest" `Quick test_determinism;
          Alcotest.test_case "digest stable at domains=4" `Quick
            test_domains_digest_stable;
          Alcotest.test_case "kill-and-recover" `Quick test_kill_and_recover;
          Alcotest.test_case "server backend" `Quick test_server_backend;
          Alcotest.test_case "latency percentiles" `Quick
            test_latencies_reported;
        ] );
      ( "history",
        Alcotest.test_case "clean history" `Quick test_history_clean
        :: Alcotest.test_case "snapshot regressed across a reconnect" `Quick
             test_history_snapshot_regressed
        :: List.map
             (fun (name, inv, steps) ->
               Alcotest.test_case name `Quick (fun () ->
                   let h = clean_history () in
                   List.iter (fun step -> step h) steps;
                   expect_only inv h))
             broken_histories );
      ( "regression",
        [
          Alcotest.test_case "engines agree on mutated graph" `Quick
            test_engines_agree_after_mutation;
          Alcotest.test_case "compact CSR equivalent" `Quick
            test_compact_csr_equivalent;
        ] );
    ]
