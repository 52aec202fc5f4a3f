(* Property-based graph oracle suite: random small digraphs checked
   against independent reference implementations.

   - CHEAPEST SUM(1) and CHEAPEST SUM(x: w) through the full SQL stack
     vs an in-test Bellman-Ford oracle (and Baselines.Native_bfs for the
     unweighted case);
   - Dijkstra radix-heap vs binary-heap equivalence on the graph runtime;
   - run_pairs parallel-domains determinism, including under an armed
     fault;
   - EXPLAIN ANALYZE timing consistency (wall-clock phases sum to at
     most the enclosing measurements). *)

module V = Storage.Value

(* ------------------------------------------------------------------ *)
(* Random digraphs                                                     *)
(* ------------------------------------------------------------------ *)

(* Vertices are labelled 1..8; queries probe 0..9 so endpoints outside
   the graph's vertex set (the paper's semi-join against V) are hit. *)
type edge = { src : int; dst : int; w : int }

let gen_edge =
  QCheck.Gen.(
    map3
      (fun src dst w -> { src; dst; w })
      (int_range 1 8) (int_range 1 8) (int_range 1 9))

let gen_edges = QCheck.Gen.(list_size (int_range 1 20) gen_edge)

let gen_query_pairs =
  QCheck.Gen.(
    list_size (int_range 1 8) (pair (int_range 0 9) (int_range 0 9)))

let gen_graph_and_pairs = QCheck.Gen.pair gen_edges gen_query_pairs

let edge_schema =
  Storage.Schema.of_pairs
    [
      ("a", Storage.Dtype.TInt); ("b", Storage.Dtype.TInt);
      ("w", Storage.Dtype.TInt);
    ]

let edge_table edges =
  Storage.Table.of_rows edge_schema
    (List.map (fun e -> [ V.Int e.src; V.Int e.dst; V.Int e.w ]) edges)

let load_graph edges =
  let db = Sqlgraph.Db.create () in
  Sqlgraph.Db.load_table db ~name:"e" (edge_table edges);
  db

(* ------------------------------------------------------------------ *)
(* The oracle: Bellman-Ford over the raw edge list                     *)
(* ------------------------------------------------------------------ *)

(* Distance from [src] to [dst] summing [weight e] per edge, or None when
   unreachable. Endpoints must appear in the graph's vertex set (source
   or destination column of some edge) — REACHES is defined over V, so a
   pair like (3, 3) with 3 absent from the table is *not* reachable. *)
let oracle_distance edges ~weight ~src ~dst =
  let vertices =
    List.concat_map (fun e -> [ e.src; e.dst ]) edges |> List.sort_uniq compare
  in
  if not (List.mem src vertices && List.mem dst vertices) then None
  else begin
    let dist = Hashtbl.create 16 in
    Hashtbl.replace dist src 0;
    (* |V| - 1 relaxation rounds suffice; weights are positive *)
    for _ = 1 to List.length vertices - 1 do
      List.iter
        (fun e ->
          match Hashtbl.find_opt dist e.src with
          | None -> ()
          | Some d ->
            let cand = d + weight e in
            (match Hashtbl.find_opt dist e.dst with
            | Some d' when d' <= cand -> ()
            | _ -> Hashtbl.replace dist e.dst cand))
        edges
    done;
    Hashtbl.find_opt dist dst
  end

(* ------------------------------------------------------------------ *)
(* SQL vs oracle                                                       *)
(* ------------------------------------------------------------------ *)

let sql_cheapest db sql ~src ~dst =
  match Sqlgraph.Db.query db ~params:[| V.Int src; V.Int dst |] sql with
  | Ok r -> (
    match Sqlgraph.Resultset.rows r with
    | [] -> None
    | [ [ V.Int c ] ] -> Some c
    | rows ->
      Alcotest.failf "unexpected result shape (%d rows)" (List.length rows))
  | Error e -> Alcotest.failf "engine failed: %s" (Sqlgraph.Error.to_string e)

let prop_unweighted_matches_oracle =
  QCheck.Test.make
    ~name:"CHEAPEST SUM(1) = BFS oracle = native BFS on random digraphs"
    ~count:150
    (QCheck.make gen_graph_and_pairs)
    (fun (edges, pairs) ->
      let db = load_graph edges in
      let native =
        Baselines.Native_bfs.of_table (edge_table edges) ~src_col:"a"
          ~dst_col:"b"
      in
      List.for_all
        (fun (src, dst) ->
          let got =
            sql_cheapest db
              "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (a, b)"
              ~src ~dst
          in
          let want = oracle_distance edges ~weight:(fun _ -> 1) ~src ~dst in
          let native_want =
            Baselines.Native_bfs.distance native ~source:src ~target:dst
          in
          got = want && got = native_want)
        pairs)

let prop_weighted_matches_oracle =
  QCheck.Test.make
    ~name:"CHEAPEST SUM(x: w) = Bellman-Ford oracle on random digraphs"
    ~count:150
    (QCheck.make gen_graph_and_pairs)
    (fun (edges, pairs) ->
      let db = load_graph edges in
      List.for_all
        (fun (src, dst) ->
          let got =
            sql_cheapest db
              "SELECT CHEAPEST SUM(x: w) WHERE ? REACHES ? OVER e x EDGE (a, b)"
              ~src ~dst
          in
          got = oracle_distance edges ~weight:(fun e -> e.w) ~src ~dst)
        pairs)

(* ------------------------------------------------------------------ *)
(* Radix heap vs binary heap on the runtime                            *)
(* ------------------------------------------------------------------ *)

let build_runtime edges =
  let t = edge_table edges in
  Graph.Runtime.build
    ~src:(Option.get (Storage.Table.column_by_name t "a"))
    ~dst:(Option.get (Storage.Table.column_by_name t "b"))

let value_pairs pairs =
  Array.of_list (List.map (fun (s, d) -> (V.Int s, V.Int d)) pairs)

let outcome_cost = function
  | Graph.Runtime.Unreachable -> None
  | Graph.Runtime.Reached { cost; _ } -> Some cost

(* A returned path must be a genuine src->dst walk whose weights sum to
   the reported cost; radix and binary heaps may pick different
   equally-cheap paths, but never different costs. *)
let path_ok edges (e : edge array) outcome ~src ~dst =
  match outcome with
  | Graph.Runtime.Unreachable -> true
  | Graph.Runtime.Reached { cost; edge_rows } ->
    ignore edges;
    let ok_chain =
      Array.length edge_rows = 0
      || (e.(edge_rows.(0)).src = src
         && e.(edge_rows.(Array.length edge_rows - 1)).dst = dst
         && Array.for_all
              (fun i -> 0 <= i && i < Array.length e)
              edge_rows
         && (let linked = ref true in
             for i = 0 to Array.length edge_rows - 2 do
               if e.(edge_rows.(i)).dst <> e.(edge_rows.(i + 1)).src then
                 linked := false
             done;
             !linked))
    in
    let sum =
      Array.fold_left (fun acc i -> acc + e.(i).w) 0 edge_rows
    in
    let cost_matches =
      match cost with
      | V.Int c -> c = sum && (Array.length edge_rows > 0 || c = 0)
      | _ -> false
    in
    (* a zero-length path only arises for src = dst *)
    (Array.length edge_rows > 0 || src = dst) && ok_chain && cost_matches

let prop_radix_equals_binary =
  QCheck.Test.make
    ~name:"Dijkstra radix heap = binary heap (costs; both paths valid)"
    ~count:150
    (QCheck.make gen_graph_and_pairs)
    (fun (edges, pairs) ->
      let rt = build_runtime edges in
      let e = Array.of_list edges in
      let weights =
        Graph.Runtime.Int_weights (Array.map (fun x -> x.w) e)
      in
      let vp = value_pairs pairs in
      let run heap = Graph.Runtime.run_pairs rt ~weights ~heap ~pairs:vp () in
      let radix = run Graph.Dijkstra.Radix in
      let binary = run Graph.Dijkstra.Binary in
      List.for_all
        (fun i ->
          let src, dst = List.nth pairs i in
          outcome_cost radix.(i) = outcome_cost binary.(i)
          && path_ok edges e radix.(i) ~src ~dst
          && path_ok edges e binary.(i) ~src ~dst)
        (List.init (Array.length vp) Fun.id))

(* ------------------------------------------------------------------ *)
(* Parallel-domain determinism                                         *)
(* ------------------------------------------------------------------ *)

let outcomes_agree a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> outcome_cost x = outcome_cost y) a b

let prop_domains_deterministic =
  QCheck.Test.make
    ~name:"run_pairs domains=1 = domains=4 (costs and reachability)"
    ~count:120
    (QCheck.make gen_graph_and_pairs)
    (fun (edges, pairs) ->
      let rt = build_runtime edges in
      let vp = value_pairs pairs in
      let run domains =
        Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted ~domains
          ~pairs:vp ()
      in
      outcomes_agree (run 1) (run 4))

(* An armed fault must abort the parallel batch cleanly (every domain
   joined, the injection surfaced), and the next batch — fault disarmed,
   it is one-shot — must match a serial run exactly. *)
let prop_domains_fault_then_recover =
  QCheck.Test.make
    ~name:"run_pairs under domains=4 with an armed fault: abort then recover"
    ~count:100
    (QCheck.make gen_edges)
    (fun edges ->
      let rt = build_runtime edges in
      (* sources drawn from real edges so at least one search runs and
         the "bfs" site is guaranteed to fire *)
      let vp =
        value_pairs (List.map (fun e -> (e.src, e.dst)) edges)
      in
      let check = Sqlgraph.Governor.(checkpoint (start no_limits)) in
      Sqlgraph.Fault.set (Some (Sqlgraph.Fault.At_site "bfs"));
      let aborted =
        match
          Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted
            ~domains:4 ~check ~pairs:vp ()
        with
        | _ -> false
        | exception Sqlgraph.Fault.Injected _ -> true
      in
      Sqlgraph.Fault.clear ();
      let serial =
        Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted ~pairs:vp
          ()
      in
      let parallel =
        Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted
          ~domains:4 ~check ~pairs:vp ()
      in
      aborted && outcomes_agree serial parallel)

(* SET parallelism must not change any result byte through the SQL stack. *)
let prop_sql_parallelism_identical =
  QCheck.Test.make
    ~name:"SET parallelism = 4: byte-identical batch results" ~count:100
    (QCheck.make gen_graph_and_pairs)
    (fun (edges, pairs) ->
      let pairs_table =
        Storage.Table.of_rows
          (Storage.Schema.of_pairs
             [ ("s", Storage.Dtype.TInt); ("d", Storage.Dtype.TInt) ])
          (List.map (fun (s, d) -> [ V.Int s; V.Int d ]) pairs)
      in
      let sql =
        "SELECT s, d, CHEAPEST SUM(1) AS c FROM pairs \
         WHERE s REACHES d OVER e EDGE (a, b)"
      in
      let run parallelism =
        let db = load_graph edges in
        Sqlgraph.Db.load_table db ~name:"pairs" pairs_table;
        Sqlgraph.Db.set_parallelism db parallelism;
        match Sqlgraph.Db.query db sql with
        | Ok r -> Sqlgraph.Resultset.rows r
        | Error e -> Alcotest.failf "%s" (Sqlgraph.Error.to_string e)
      in
      run 1 = run 4)

(* ------------------------------------------------------------------ *)
(* Batched traversal engines                                           *)
(* ------------------------------------------------------------------ *)

(* Byte-identity, not just cost-identity: every engine must settle the
   same canonical shortest-path tree, so costs AND extracted edge rows
   have to match exactly. *)
let outcome_identical a b =
  match a, b with
  | Graph.Runtime.Unreachable, Graph.Runtime.Unreachable -> true
  | ( Graph.Runtime.Reached { cost = c1; edge_rows = r1 },
      Graph.Runtime.Reached { cost = c2; edge_rows = r2 } ) ->
    V.equal c1 c2 && r1 = r2
  | _ -> false

let outcomes_identical a b =
  Array.length a = Array.length b && Array.for_all2 outcome_identical a b

let prop_batched_equals_scalar =
  QCheck.Test.make
    ~name:
      "MS-BFS engine = scalar BFS byte-identically (with/without bidir, \
       domains=4)"
    ~count:200
    (QCheck.make gen_graph_and_pairs)
    (fun (edges, pairs) ->
      let rt = build_runtime edges in
      let vp = value_pairs pairs in
      let run ?domains engine =
        Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted ?domains
          ~engine ~pairs:vp ()
      in
      let scalar = run `Scalar in
      let ok_batched = outcomes_identical scalar (run `Batched) in
      Graph.Runtime.prepare_bidir rt;
      (* ... and again with the reverse CSR enabling direction switches *)
      let ok_bidir = outcomes_identical scalar (run `Batched) in
      let ok_scalar_bidir = outcomes_identical scalar (run `Scalar) in
      let ok_par = outcomes_identical scalar (run ~domains:4 `Batched) in
      ok_batched && ok_bidir && ok_scalar_bidir && ok_par)

(* Same recovery contract as the scalar engines: an armed fault aborts the
   parallel batched run cleanly, and the next batch is byte-identical to a
   serial scalar run. *)
let prop_batched_fault_then_recover =
  QCheck.Test.make
    ~name:"batched engine under domains=4 with an armed fault: abort, recover"
    ~count:80
    (QCheck.make gen_edges)
    (fun edges ->
      let rt = build_runtime edges in
      Graph.Runtime.prepare_bidir rt;
      let vp = value_pairs (List.map (fun e -> (e.src, e.dst)) edges) in
      (* a self-loop-only edge list never enters a traversal loop, so the
         "bfs" site cannot fire; require a real hop for the abort leg *)
      let has_hop = List.exists (fun e -> e.src <> e.dst) edges in
      let check = Sqlgraph.Governor.(checkpoint (start no_limits)) in
      Sqlgraph.Fault.set (Some (Sqlgraph.Fault.At_site "bfs"));
      let aborted =
        match
          Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted
            ~domains:4 ~check ~engine:`Batched ~pairs:vp ()
        with
        | _ -> false
        | exception Sqlgraph.Fault.Injected _ -> true
      in
      Sqlgraph.Fault.clear ();
      let scalar =
        Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted
          ~engine:`Scalar ~pairs:vp ()
      in
      let batched =
        Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted
          ~domains:4 ~check ~engine:`Batched ~pairs:vp ()
      in
      (aborted || not has_hop) && outcomes_identical scalar batched)

(* Every batch routes through the work-stealing scheduler (one worker
   runs inline), and it must reproduce a serial scalar run byte-for-byte
   for every worker count. The wave partition is fixed by the batch
   alone, so the traversal counters must not move with the worker count
   either — domains=1 included, with a reverse CSR so lanes retire and
   switch direction. [oversubscribe] lifts the hardware clamp, so real
   multi-worker stealing is exercised even on a single-core host. *)
let prop_sched_identical_all_domains =
  QCheck.Test.make
    ~name:
      "work-stealing scheduler = serial byte-identically, same counters \
       (domains 1/2/4/8)"
    ~count:120
    (QCheck.make gen_graph_and_pairs)
    (fun (edges, pairs) ->
      let rt = build_runtime edges in
      Graph.Runtime.prepare_bidir rt;
      let vp = value_pairs pairs in
      let serial =
        Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted
          ~engine:`Scalar ~pairs:vp ()
      in
      let run domains =
        let counts = Graph.Runtime.fresh_counts () in
        let out =
          Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted
            ~engine:`Batched ~domains ~oversubscribe:true ~counts ~pairs:vp ()
        in
        let a = counts.Graph.Runtime.trav in
        ( out,
          Graph.Workspace.
            (a.searches, a.settled, a.edges_scanned, a.waves, a.dir_switches) )
      in
      let out1, counters1 = run 1 in
      outcomes_identical serial out1
      && List.for_all
           (fun domains ->
             let out, counters = run domains in
             outcomes_identical serial out && counters = counters1)
           [ 2; 4; 8 ])

(* Armed faults and mid-run cancellation must unwind the scheduler cleanly
   (all workers joined, pooled workspaces released) and leave the runtime
   able to produce byte-identical results on the next batch. *)
let prop_sched_fault_and_cancel =
  QCheck.Test.make
    ~name:"scheduler under fault and cancellation: abort, then recover"
    ~count:60
    (QCheck.make gen_edges)
    (fun edges ->
      let rt = build_runtime edges in
      Graph.Runtime.prepare_bidir rt;
      let vp = value_pairs (List.map (fun e -> (e.src, e.dst)) edges) in
      let has_hop = List.exists (fun e -> e.src <> e.dst) edges in
      let run ?check ~domains () =
        Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted ~domains
          ~oversubscribe:true ?check ~engine:`Batched ~pairs:vp ()
      in
      let scalar =
        Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted
          ~engine:`Scalar ~pairs:vp ()
      in
      (* leg 1: a one-shot fault at the "bfs" site aborts the whole batch *)
      let check = Sqlgraph.Governor.(checkpoint (start no_limits)) in
      Sqlgraph.Fault.set (Some (Sqlgraph.Fault.At_site "bfs"));
      let aborted =
        match run ~check ~domains:4 () with
        | _ -> false
        | exception Sqlgraph.Fault.Injected _ -> true
      in
      Sqlgraph.Fault.clear ();
      (* leg 2: a 1-step budget cancels mid-run on any graph big enough to
         report steps; tiny graphs may finish first, which must then be a
         byte-identical answer (never a wrong one) *)
      let tight =
        Sqlgraph.Governor.(checkpoint (start (budget ~max_steps:1 ())))
      in
      let cancelled_or_finished =
        match run ~check:tight ~domains:8 () with
        | out -> outcomes_identical scalar out
        | exception Sqlgraph.Governor.Resource_error _ -> true
      in
      (* leg 3: recovery — the very next batch is byte-identical *)
      (aborted || not has_hop)
      && cancelled_or_finished
      && outcomes_identical scalar (run ~check ~domains:4 ()))

(* Kernel-level: forced bottom-up traversal settles the same distances,
   canonical parents and paths as plain top-down. *)
let build_csr edges =
  let e = Array.of_list edges in
  Graph.Csr.build ~vertex_count:9
    ~src:(Array.map (fun x -> x.src) e)
    ~dst:(Array.map (fun x -> x.dst) e)

let prop_dir_opt_equals_topdown =
  QCheck.Test.make
    ~name:"forced bottom-up BFS = top-down BFS (dist, parents, paths)"
    ~count:200
    (QCheck.make gen_graph_and_pairs)
    (fun (edges, pairs) ->
      let csr = build_csr edges in
      let rev = Graph.Csr.reverse csr in
      let ws1 = Graph.Workspace.create 9 in
      let ws2 = Graph.Workspace.create 9 in
      List.for_all
        (fun (s, _) ->
          s < 1 || s > 8
          || begin
               Graph.Bfs.run ws1 csr ~source:s ~targets:[||];
               (* huge alpha switches bottom-up at the first level; huge
                  beta keeps it there for the rest of the traversal *)
               Graph.Bfs.run ~rev ~alpha:1_000_000 ~beta:1_000_000 ws2 csr
                 ~source:s ~targets:[||];
               List.for_all
                 (fun v ->
                   let a = Graph.Workspace.visited ws1 v
                   and b = Graph.Workspace.visited ws2 v in
                   a = b
                   && ((not a)
                      || ws1.Graph.Workspace.dist_int.(v)
                           = ws2.Graph.Workspace.dist_int.(v)
                         && ws1.Graph.Workspace.parent_slot.(v)
                            = ws2.Graph.Workspace.parent_slot.(v)
                         && Graph.Path_tree.edge_rows ws1 csr ~source:s ~dst:v
                            = Graph.Path_tree.edge_rows ws2 csr ~source:s
                                ~dst:v))
                 (List.init 9 Fun.id)
             end)
        pairs)

(* The bidirectional distance kernel against a one-sided sweep, over
   every ordered pair (source = destination included) of random graphs
   on up to 24 vertices. Sparse random edges give disconnected parts,
   sinks, and sources without in-edges; the generator adds self-loops
   and parallel edges on purpose. Plain and packed CSRs both. *)
let gen_bidir_graph =
  QCheck.Gen.(
    int_range 1 24 >>= fun n ->
    let v = int_range 0 (n - 1) in
    let edge = pair v v in
    map3
      (fun random loops dups ->
        let loops = List.map (fun u -> (u, u)) loops in
        let dups = List.filteri (fun i _ -> List.mem i dups) random in
        (n, random @ loops @ dups))
      (list_size (int_range 0 (2 * n)) edge)
      (list_size (int_range 0 3) v)
      (list_size (int_range 0 3) (int_range 0 (2 * n))))

let prop_bidir_distance_equals_bfs =
  QCheck.Test.make
    ~name:"Bfs.distance = Bfs.run (dist, reachability), plain and packed CSR"
    ~count:200
    (QCheck.make
       ~print:(fun (n, es) ->
         Printf.sprintf "n=%d edges=[%s]" n
           (String.concat "; "
              (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) es)))
       gen_bidir_graph)
    (fun (n, es) ->
      let src = Array.of_list (List.map fst es)
      and dst = Array.of_list (List.map snd es) in
      List.for_all
        (fun compact ->
          let csr = Graph.Csr.build_repr ~compact ~vertex_count:n ~src ~dst in
          let rev = Graph.Csr.reverse csr in
          let one_sided = Graph.Workspace.create n in
          (* one workspace for every pair: the epoch stamps must isolate
             consecutive searches *)
          let ws = Graph.Workspace.create n in
          List.for_all
            (fun s ->
              Graph.Bfs.run one_sided csr ~source:s ~targets:[||];
              List.for_all
                (fun d ->
                  let want =
                    if Graph.Workspace.visited one_sided d then
                      Some one_sided.Graph.Workspace.dist_int.(d)
                    else None
                  in
                  Graph.Bfs.distance ws csr ~rev ~source:s ~dest:d = want)
                (List.init n Fun.id))
            (List.init n Fun.id))
        [ false; true ])

(* Every in-edge of the reverse CSR must mirror exactly one forward edge,
   carry its forward slot as payload, and the per-vertex in-edge lists
   must ascend by forward slot (the canonical-parent invariant the
   bottom-up kernels rely on). *)
let prop_reverse_mirrors_forward =
  QCheck.Test.make ~name:"reverse CSR mirrors forward edges exactly"
    ~count:300
    (QCheck.make gen_edges)
    (fun edges ->
      let csr = build_csr edges in
      let rev = Graph.Csr.reverse csr in
      let n = 9 in
      let nedges = Graph.Ivec.length csr.Graph.Csr.targets in
      let slot_src = Array.make (max nedges 1) (-1) in
      for v = 0 to n - 1 do
        for s = csr.Graph.Csr.offsets.(v) to csr.Graph.Csr.offsets.(v + 1) - 1
        do
          slot_src.(s) <- v
        done
      done;
      let ok = ref (Graph.Ivec.length rev.Graph.Csr.targets = nedges) in
      for v = 0 to n - 1 do
        let last = ref (-1) in
        for k = rev.Graph.Csr.offsets.(v) to rev.Graph.Csr.offsets.(v + 1) - 1
        do
          let u = Graph.Ivec.get rev.Graph.Csr.targets k in
          let slot = Graph.Ivec.get rev.Graph.Csr.edge_rows k in
          if
            not
              (slot > !last
              && slot_src.(slot) = u
              && Graph.Ivec.get csr.Graph.Csr.targets slot = v)
          then ok := false;
          last := slot
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE timing consistency                                  *)
(* ------------------------------------------------------------------ *)

(* The wall-clock fix: build phases are measured inside build_multi and
   re-surfaced by the executor; with one shared clock they can never sum
   past the enclosing build measurement (up to scheduling noise). Under
   the old CPU-clock stats this failed structurally on any query with
   measurable build time. *)
let test_phase_times_sum () =
  let edges =
    List.init 200 (fun i -> { src = (i mod 50) + 1; dst = ((i + 7) mod 50) + 1; w = 1 })
  in
  let db = load_graph edges in
  (match
     Sqlgraph.Db.exec_exn db
       "EXPLAIN ANALYZE SELECT CHEAPEST SUM(1) WHERE 1 REACHES 3 OVER e EDGE \
        (a, b)"
   with
  | Sqlgraph.Db.Explained out ->
    Alcotest.(check bool)
      "annotated tree has build detail" true
      (Astring.String.is_infix ~affix:"dict=" out
      && Astring.String.is_infix ~affix:"traverse=" out)
  | _ -> Alcotest.fail "expected Explained");
  match Sqlgraph.Db.last_stats db with
  | None -> Alcotest.fail "no stats after EXPLAIN ANALYZE"
  | Some s ->
    let phases =
      s.Executor.Interp.build_dict_seconds
      +. s.Executor.Interp.build_encode_seconds
      +. s.Executor.Interp.build_csr_seconds
    in
    let eps = 0.005 in
    Alcotest.(check bool)
      "phases sum to at most the build time" true
      (phases <= s.Executor.Interp.graph_build_seconds +. eps);
    Alcotest.(check bool)
      "build and traverse times are non-negative wall-clock" true
      (s.Executor.Interp.graph_build_seconds >= 0.
      && s.Executor.Interp.graph_traverse_seconds >= 0.
      && s.Executor.Interp.trav_searches >= 1
      && s.Executor.Interp.trav_settled >= 1);
    (* on a cached graph the weights are evaluated once, then memoized *)
    (match Sqlgraph.Db.create_graph_index db ~table:"e" ~src:"a" ~dst:"b" with
    | Ok () -> ()
    | Error e -> Alcotest.failf "index: %s" (Sqlgraph.Error.to_string e));
    let weighted () =
      match
        Sqlgraph.Db.exec_exn db
          "EXPLAIN ANALYZE SELECT CHEAPEST SUM(x: w * 2) WHERE 1 REACHES 3 \
           OVER e x EDGE (a, b)"
      with
      | Sqlgraph.Db.Explained out -> out
      | _ -> Alcotest.fail "expected Explained"
    in
    (* cost-only Q13 on the cached graph meets in the middle; asking
       for the path keeps the one-sided, parent-tracking BFS *)
    let explain sql =
      match Sqlgraph.Db.exec_exn db ("EXPLAIN ANALYZE " ^ sql) with
      | Sqlgraph.Db.Explained out -> out
      | _ -> Alcotest.fail "expected Explained"
    in
    Alcotest.(check bool)
      "cost-only Q13 runs the bidirectional search" true
      (Astring.String.is_infix ~affix:"search=bidir"
         (explain "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 3 OVER e EDGE (a, b)"));
    Alcotest.(check bool)
      "(cost, path) does not" false
      (Astring.String.is_infix ~affix:"search=bidir"
         (explain
            "SELECT CHEAPEST SUM(1) AS (c, p) WHERE 1 REACHES 3 OVER e EDGE \
             (a, b)"));
    let first = weighted () in
    Alcotest.(check bool)
      "first weighted run evaluates" true
      (Astring.String.is_infix ~affix:"weights=eval" first
      && Astring.String.is_infix ~affix:"weights_ms=" first);
    let second = weighted () in
    Alcotest.(check bool)
      "second weighted run reads the memo" true
      (Astring.String.is_infix ~affix:"weights=memo" second
      && not (Astring.String.is_infix ~affix:"weights_ms=" second))

(* ------------------------------------------------------------------ *)
(* Weight memo vs a fresh database                                     *)
(* ------------------------------------------------------------------ *)

(* Random edge DML between queries on an indexed edge table. *)
type dml_step =
  | Query of int * int * int  (** source, destination, query kind *)
  | Insert of edge
  | Reweight of int * int  (** row selector, new weight *)
  | Delete of int  (** row selector *)

let gen_dml_step kinds =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map3
            (fun s d k -> Query (s, d, k))
            (int_range 1 8) (int_range 1 8)
            (int_range 0 (kinds - 1)) );
        (1, map (fun e -> Insert e) gen_edge);
        (1, map2 (fun r w -> Reweight (r, w)) nat (int_range 1 9));
        (1, map (fun r -> Delete r) nat);
      ])

(* [edges] as table e(id, a, b, w) with a graph index on (a, b); returns
   the database and a function applying one DML step to it (queries are
   the caller's). *)
let indexed_edge_db edges =
  let schema =
    Storage.Schema.of_pairs
      [
        ("id", Storage.Dtype.TInt); ("a", Storage.Dtype.TInt);
        ("b", Storage.Dtype.TInt); ("w", Storage.Dtype.TInt);
      ]
  in
  let table =
    Storage.Table.of_rows schema
      (List.mapi
         (fun i e -> [ V.Int i; V.Int e.src; V.Int e.dst; V.Int e.w ])
         edges)
  in
  let db = Sqlgraph.Db.create () in
  Sqlgraph.Db.load_table db ~name:"e" table;
  (match Sqlgraph.Db.create_graph_index db ~table:"e" ~src:"a" ~dst:"b" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "index: %s" (Sqlgraph.Error.to_string e));
  let next_id = ref (List.length edges) in
  let exec sql = ignore (Sqlgraph.Db.exec_exn db sql) in
  (* an existing id (or none when the table is empty) *)
  let pick r =
    match
      Sqlgraph.Resultset.rows
        (Sqlgraph.Db.query_exn db "SELECT id FROM e ORDER BY id")
    with
    | [] -> -1
    | ids -> (
      match List.nth ids (r mod List.length ids) with
      | [ V.Int id ] -> id
      | _ -> -1)
  in
  let apply = function
    | Query _ -> ()
    | Insert e ->
      exec
        (Printf.sprintf "INSERT INTO e VALUES (%d, %d, %d, %d)" !next_id e.src
           e.dst e.w);
      incr next_id
    | Reweight (r, w) ->
      exec (Printf.sprintf "UPDATE e SET w = %d WHERE id = %d" w (pick r))
    | Delete r -> exec (Printf.sprintf "DELETE FROM e WHERE id = %d" (pick r))
  in
  (db, apply)

(* Every (cost, path) read through the cached graph — evaluated, then
   memoized on a repeat — must be byte-identical to the same query on a
   fresh database holding the same rows and no index. *)
let memo_weights =
  [|
    "x.w"; "x.w * 2 + 1"; "CAST(x.w AS FLOAT) * 0.5";
    "CASE WHEN x.w > 4 THEN x.w ELSE 5 END";
  |]

let prop_weight_memo_matches_fresh_db =
  QCheck.Test.make
    ~name:"weight memo: (cost, path) = fresh database, across edge DML"
    ~count:100
    (QCheck.make
       QCheck.Gen.(
         pair gen_edges
           (list_size (int_range 1 12)
              (gen_dml_step (Array.length memo_weights)))))
    (fun (edges, steps) ->
      let db, apply_dml = indexed_edge_db edges in
      let run db sql ~src ~dst =
        match Sqlgraph.Db.query db ~params:[| V.Int src; V.Int dst |] sql with
        | Ok r -> Sqlgraph.Resultset.rows r
        | Error e -> Alcotest.failf "%s: %s" sql (Sqlgraph.Error.to_string e)
      in
      List.for_all
        (function
          | Query (src, dst, k) ->
            let sql =
              Printf.sprintf
                "SELECT T.c, R.id, R.ordinality FROM (SELECT CHEAPEST SUM(x: \
                 %s) AS (c, p) WHERE ? REACHES ? OVER e x EDGE (a, b)) T LEFT \
                 JOIN UNNEST(T.p) WITH ORDINALITY AS R ON TRUE"
                memo_weights.(k)
            in
            let fresh = Sqlgraph.Db.create () in
            Sqlgraph.Db.load_table fresh ~name:"e"
              (Storage.Table.copy
                 (Option.get
                    (Storage.Catalog.find (Sqlgraph.Db.catalog db) "e")));
            let want = run fresh sql ~src ~dst in
            run db sql ~src ~dst = want && run db sql ~src ~dst = want
          | step ->
            apply_dml step;
            true)
        steps)

(* ------------------------------------------------------------------ *)
(* Graph index extended across edge INSERTs                             *)
(* ------------------------------------------------------------------ *)

(* INSERT-only edge DML over an initial graph on keys 1..8. Appended
   endpoints range over 1..10, so they mix known keys, new ones and keys
   so far seen only as a destination; [None] is a NULL endpoint. *)
type insert_step =
  | Read of int * int
  | Append of int option * int option * int  (** a, b, weight *)

let gen_insert_step =
  QCheck.Gen.(
    let key =
      frequency [ (1, return None); (6, map Option.some (int_range 1 10)) ]
    in
    frequency
      [
        (2, map2 (fun s d -> Read (s, d)) (int_range 1 10) (int_range 1 10));
        (3, map3 (fun a b w -> Append (a, b, w)) key key (int_range 1 9));
      ])

(* Every (cost, path) read after INSERTs equals a fresh database's, and
   EXPLAIN ANALYZE shows cache=extend exactly when the dictionary keeps
   its ids: every appended source key was already a source of the graph
   last made, every appended destination key already one of its
   vertices (DESIGN.md §6). *)
let prop_insert_extension_matches_fresh_db =
  QCheck.Test.make
    ~name:"edge INSERTs: (cost, path) = fresh database, cache=extend iff ids kept"
    ~count:150
    (QCheck.make
       QCheck.Gen.(pair gen_edges (list_size (int_range 1 16) gen_insert_step)))
    (fun (edges, steps) ->
      let db, _ = indexed_edge_db edges in
      let rows = ref (List.map (fun e -> (Some e.src, Some e.dst)) edges) in
      let next_id = ref (List.length edges) in
      (* (sources, vertices) of the graph last made; rows appended since *)
      let made = ref None and pending = ref [] in
      let present f = List.filter_map f !rows in
      let sql src dst =
        Printf.sprintf
          "SELECT T.c, R.id, R.ordinality FROM (SELECT CHEAPEST SUM(x: x.w) AS \
           (c, p) WHERE %d REACHES %d OVER e x EDGE (a, b)) T LEFT JOIN \
           UNNEST(T.p) WITH ORDINALITY AS R ON TRUE"
          src dst
      in
      let key = function None -> "NULL" | Some k -> string_of_int k in
      List.for_all
        (function
          | Append (a, b, w) ->
            ignore
              (Sqlgraph.Db.exec_exn db
                 (Printf.sprintf "INSERT INTO e VALUES (%d, %s, %s, %d)" !next_id
                    (key a) (key b) w));
            incr next_id;
            rows := !rows @ [ (a, b) ];
            pending := (a, b) :: !pending;
            true
          | Read (src, dst) ->
            let known set = function None -> true | Some k -> List.mem k set in
            let want =
              match !made with
              | None -> "miss"
              | Some _ when !pending = [] -> "hit"
              | Some (srcs, vertices) ->
                if
                  List.for_all
                    (fun (a, b) -> known srcs a && known vertices b)
                    !pending
                then "extend"
                else "miss"
            in
            let srcs = present fst in
            made := Some (srcs, srcs @ present snd);
            pending := [];
            let explained =
              match Sqlgraph.Db.exec_exn db ("EXPLAIN ANALYZE " ^ sql src dst) with
              | Sqlgraph.Db.Explained out -> out
              | _ -> Alcotest.fail "expected Explained"
            in
            let fresh = Sqlgraph.Db.create () in
            Sqlgraph.Db.load_table fresh ~name:"e"
              (Storage.Table.copy
                 (Option.get (Storage.Catalog.find (Sqlgraph.Db.catalog db) "e")));
            let run db =
              Sqlgraph.Resultset.rows (Sqlgraph.Db.query_exn db (sql src dst))
            in
            Astring.String.is_infix ~affix:("cache=" ^ want) explained
            && run db = run fresh)
        steps)

(* Cost-only Q13 and bare REACHES on an indexed edge table — a single
   pair each, so the cached graph answers them with the bidirectional
   kernel — must equal Baselines.Native_bfs on the current rows, across
   random edge DML between queries. Query kind 0 is Q13, 1 is REACHES. *)
let prop_bidir_sql_matches_native =
  QCheck.Test.make
    ~name:"indexed cost-only Q13 / bare REACHES = native BFS, across edge DML"
    ~count:100
    (QCheck.make
       QCheck.Gen.(
         pair gen_edges (list_size (int_range 1 12) (gen_dml_step 2))))
    (fun (edges, steps) ->
      let db, apply_dml = indexed_edge_db edges in
      List.for_all
        (function
          | Query (src, dst, k) ->
            let native =
              Baselines.Native_bfs.of_table
                (Option.get (Storage.Catalog.find (Sqlgraph.Db.catalog db) "e"))
                ~src_col:"a" ~dst_col:"b"
            in
            let want = Baselines.Native_bfs.distance native ~source:src ~target:dst in
            if k = 0 then
              sql_cheapest db
                "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (a, b)"
                ~src ~dst
              = want
            else
              let rows =
                Sqlgraph.Db.query_exn db ~params:[| V.Int src; V.Int dst |]
                  "SELECT 1 WHERE ? REACHES ? OVER e EDGE (a, b)"
              in
              List.length (Sqlgraph.Resultset.rows rows)
              = if want = None then 0 else 1
          | step ->
            apply_dml step;
            true)
        steps)

(* Every batch but the bidirectional single pair runs the scheduler,
   serial ones as one inline worker, so EXPLAIN ANALYZE shows its notes
   at parallelism 1 too; the bidirectional pair runs no scheduler. *)
let test_serial_scheduler_notes () =
  let edges =
    List.init 60 (fun i ->
        { src = (i mod 20) + 1; dst = ((i + 3) mod 20) + 1; w = 1 })
  in
  let db = load_graph edges in
  Sqlgraph.Db.load_table db ~name:"pairs"
    (Storage.Table.of_rows
       (Storage.Schema.of_pairs
          [ ("s", Storage.Dtype.TInt); ("d", Storage.Dtype.TInt) ])
       [ [ V.Int 1; V.Int 9 ]; [ V.Int 2; V.Int 7 ]; [ V.Int 5; V.Int 4 ] ]);
  Sqlgraph.Db.set_parallelism db 1;
  let explain sql =
    match Sqlgraph.Db.exec_exn db ("EXPLAIN ANALYZE " ^ sql) with
    | Sqlgraph.Db.Explained out -> out
    | _ -> Alcotest.fail "expected Explained"
  in
  let has affix out = Astring.String.is_infix ~affix out in
  let multi =
    explain
      "SELECT s, d, CHEAPEST SUM(1) AS c FROM pairs WHERE s REACHES d OVER e \
       EDGE (a, b)"
  in
  Alcotest.(check bool)
    "multi-source batch at parallelism 1 ran the scheduler" true
    (has "tasks=" multi && has "workers=1" multi && has "batched_waves=" multi);
  (match Sqlgraph.Db.create_graph_index db ~table:"e" ~src:"a" ~dst:"b" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "index: %s" (Sqlgraph.Error.to_string e));
  let single =
    explain "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 9 OVER e EDGE (a, b)"
  in
  Alcotest.(check bool)
    "cost-only single pair meets in the middle, no scheduler" true
    (has "search=bidir" single && not (has "tasks=" single))


(* ------------------------------------------------------------------ *)
(* One counter declaration, every surface                              *)
(* ------------------------------------------------------------------ *)

module Reg = Telemetry.Registry
module Interp = Executor.Interp

let registry_snapshot db =
  Reg.fold (Sqlgraph.Db.registry db) ~init:[] ~f:(fun acc name ~help:_ m ->
      (name, m) :: acc)

(* fingerprint -> (column name -> value) of sqlgraph_stat_statements *)
let stat_statements db =
  let r = Sqlgraph.Db.query_exn db "SELECT * FROM sqlgraph_stat_statements" in
  let names = Sqlgraph.Resultset.column_names r in
  List.map
    (fun row ->
      match row with
      | V.Str fp :: _ -> (fp, List.combine names row)
      | _ -> Alcotest.fail "stat_statements row without a fingerprint")
    (Sqlgraph.Resultset.rows r)

(* key -> values of every EXPLAIN ANALYZE operator note, all operators *)
let explain_notes out =
  let analyzed =
    match Astring.String.cut ~sep:"-- analyze --" out with
    | Some (_, a) -> a
    | None -> Alcotest.fail "no analyze section"
  in
  List.concat_map
    (fun line ->
      let line = String.trim line in
      let n = String.length line in
      if n >= 2 && line.[0] = '[' && line.[n - 1] = ']' then
        List.filter_map
          (fun kv -> Astring.String.cut ~sep:"=" kv)
          (Astring.String.cuts ~sep:", " (String.sub line 1 (n - 2)))
      else [])
    (String.split_on_char '\n' analyzed)

(* Run [sql] and check that every declared counter reads the same in
   Db.last_stats, Metrics.stats_json (through its JSON text), the session
   registry's delta and the statement's sqlgraph_stat_statements delta;
   with [explain], also in the sum (max, for a peak) of its operator
   notes. *)
let counters_agree db ~explain sql =
  let sql = if explain then "EXPLAIN ANALYZE " ^ sql else sql in
  let stat_before = stat_statements db in
  let reg_before = registry_snapshot db in
  let out =
    match Sqlgraph.Db.exec_exn db sql with
    | Sqlgraph.Db.Explained out -> out
    | _ -> ""
  in
  let s = Option.get (Sqlgraph.Db.last_stats db) in
  let reg_after = registry_snapshot db in
  let fp =
    let q = Option.get (Sqlgraph.Db.last_query_id db) in
    String.sub q 0 (String.index q ':')
  in
  let json =
    Testjson.Json_support.parse
      (Sqlgraph.Metrics.to_string (Sqlgraph.Metrics.stats_json s))
  in
  let stat_after = stat_statements db in
  let notes = if explain then explain_notes out else [] in
  let column col =
    let read rows =
      match List.assoc_opt fp rows with
      | Some cols -> (
        match List.assoc col cols with V.Int n -> n | _ -> -1)
      | None -> 0
    in
    read stat_after - read stat_before
  in
  let reg name snapshot = List.assoc_opt name snapshot in
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs a) in
  List.for_all
    (fun (c : Interp.counter) ->
      let v = c.get s in
      let in_json =
        match
          List.fold_left
            (fun j k -> Option.bind j (Testjson.Json_support.member k))
            (Some json) c.json, v
        with
        | Some (Sqlgraph.Metrics.Int a), Interp.Int b -> a = b
        | Some (Sqlgraph.Metrics.Float a), Interp.Float b -> a = b
        | Some Sqlgraph.Metrics.Null, Interp.Float b -> Float.is_nan b
        | _ -> false
      in
      let in_registry =
        match c.registry, v with
        | None, _ -> true
        | Some (Interp.Total name), Interp.Int n -> (
          match reg name reg_after, reg name reg_before with
          | Some (Reg.Counter a), Some (Reg.Counter b) -> a - b = n
          | Some (Reg.Counter a), None -> a = n
          | _ -> false)
        | Some (Interp.Histogram (name, guard)), Interp.Float f -> (
          let count_sum = function
            | Some (Reg.Histogram p) -> (p.Reg.count, p.Reg.sum)
            | _ -> (0, 0.)
          in
          let ca, sa = count_sum (reg name reg_after)
          and cb, sb = count_sum (reg name reg_before) in
          if guard s then ca - cb = 1 && close (sa -. sb) f else ca = cb)
        | _ -> false
      in
      let in_column =
        match c.column, v with
        | None, _ -> true
        | Some col, Interp.Int n -> column col = n
        | Some _, Interp.Float _ -> false
      in
      let in_notes =
        match c.note, v with
        | Some key, _ when explain -> (
          let values =
            List.filter_map (fun (k, x) -> if k = key then Some x else None) notes
          in
          match c.kind, v with
          | Interp.Count, Interp.Int n ->
            List.fold_left (fun acc x -> acc + int_of_string x) 0 values = n
          | Interp.Peak, Interp.Int n ->
            List.fold_left (fun acc x -> max acc (int_of_string x)) 0 values = n
          | Interp.Seconds, Interp.Float f ->
            let ms x = float_of_string (String.sub x 0 (String.length x - 2)) in
            Float.abs (List.fold_left (fun acc x -> acc +. ms x) 0. values -. (f *. 1000.))
            <= 0.0006 *. float_of_int (List.length values)
          | _ -> false)
        | _ -> true
      in
      if not (in_json && in_registry && in_column && in_notes) then
        QCheck.Test.fail_reportf "%s: %s (json %b, registry %b, column %b, notes %b)"
          sql (String.concat "." c.json) in_json in_registry in_column in_notes;
      true)
    Interp.counters

let prop_counters_agree_across_surfaces =
  QCheck.Test.make
    ~name:
      "every declared counter reads the same in last_stats, JSON, registry, \
       stat_statements and EXPLAIN ANALYZE (domains 1/2)"
    ~count:40
    (QCheck.make gen_graph_and_pairs)
    (fun (edges, pairs) ->
      let db = load_graph edges in
      Sqlgraph.Db.load_table db ~name:"f" (edge_table edges);
      Sqlgraph.Db.load_table db ~name:"p"
        (Storage.Table.of_rows
           (Storage.Schema.of_pairs
              [ ("s", Storage.Dtype.TInt); ("d", Storage.Dtype.TInt) ])
           (List.map (fun (s, d) -> [ V.Int s; V.Int d ]) pairs));
      (match Sqlgraph.Db.create_graph_index db ~table:"e" ~src:"a" ~dst:"b" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "index: %s" (Sqlgraph.Error.to_string e));
      let s0, d0 = List.hd pairs in
      let statements =
        List.concat_map
          (fun g ->
            [
              Printf.sprintf
                "SELECT s, d, CHEAPEST SUM(1) AS c FROM p WHERE s REACHES d \
                 OVER %s EDGE (a, b)"
                g;
              Printf.sprintf
                "SELECT s, d, CHEAPEST SUM(x: x.w) AS (c, path) FROM p WHERE s \
                 REACHES d OVER %s x EDGE (a, b)"
                g;
              Printf.sprintf
                "SELECT CHEAPEST SUM(1) WHERE %d REACHES %d OVER %s EDGE (a, b)"
                s0 d0 g;
              Printf.sprintf
                "SELECT s, d FROM p WHERE s REACHES d OVER %s EDGE (a, b)" g;
            ])
          [ "e"; "f" ]
      in
      List.for_all
        (fun domains ->
          Sqlgraph.Db.set_parallelism db domains;
          List.for_all
            (fun sql ->
              counters_agree db ~explain:false sql
              && counters_agree db ~explain:true sql)
            statements)
        [ 1; 2 ])

let () =
  Alcotest.run "properties"
    [
      ( "sql-vs-oracle",
        [
          QCheck_alcotest.to_alcotest prop_unweighted_matches_oracle;
          QCheck_alcotest.to_alcotest prop_weighted_matches_oracle;
        ] );
      ( "heaps",
        [ QCheck_alcotest.to_alcotest prop_radix_equals_binary ] );
      ( "parallelism",
        [
          QCheck_alcotest.to_alcotest prop_domains_deterministic;
          QCheck_alcotest.to_alcotest prop_domains_fault_then_recover;
          QCheck_alcotest.to_alcotest prop_sql_parallelism_identical;
        ] );
      ( "batched-traversal",
        [
          QCheck_alcotest.to_alcotest prop_batched_equals_scalar;
          QCheck_alcotest.to_alcotest prop_batched_fault_then_recover;
          QCheck_alcotest.to_alcotest prop_sched_identical_all_domains;
          QCheck_alcotest.to_alcotest prop_sched_fault_and_cancel;
          QCheck_alcotest.to_alcotest prop_dir_opt_equals_topdown;
          QCheck_alcotest.to_alcotest prop_reverse_mirrors_forward;
          QCheck_alcotest.to_alcotest prop_bidir_distance_equals_bfs;
          QCheck_alcotest.to_alcotest prop_bidir_sql_matches_native;
        ] );
      ( "graph-index",
        [ QCheck_alcotest.to_alcotest prop_insert_extension_matches_fresh_db ] );
      ( "explain-analyze",
        [
          Alcotest.test_case "phase times" `Quick test_phase_times_sum;
          Alcotest.test_case "serial scheduler notes" `Quick
            test_serial_scheduler_notes;
        ] );
      ( "weight-memo",
        [ QCheck_alcotest.to_alcotest prop_weight_memo_matches_fresh_db ] );
      ( "counters",
        [ QCheck_alcotest.to_alcotest prop_counters_agree_across_surfaces ] );
    ]
