(* Benchmark harness reproducing the paper's evaluation (§4).

   One sub-command per artefact:
     table1           Table 1 (graph sizes per scale factor)
     fig1a            Figure 1a (Q13 vs Q14-variant latency per SF)
     fig1b            Figure 1b (Q13 latency per pair vs batch size)
     ablation-build   §4's "construction dominates" claim, measured
     ablation-heap    radix vs binary heap Dijkstra
     ablation-rewrite graph-join rewrite on/off
     ablation-csr     CSR build phase decomposition
     ablation-index   graph index (DESIGN.md §6) on/off
     ablation-dict    specialized vs generic vertex dictionary
     ablation-parallel batched traversal over 1..8 domains (§6)
     ablation-vectorized column-at-a-time vs row-at-a-time evaluation
     baselines        extension vs §1's standard-SQL techniques vs native BFS
     pairs            scalar per-source BFS vs batched MS-BFS on one batch
     micro            Bechamel micro-benchmarks of the kernels
     all              everything, with the given settings

   Scale factors above 10 are heavy; the default runs SF 1 and 3 at full
   size. Absolute numbers differ from the paper's MonetDB/Xeon setup; the
   *shapes* are what EXPERIMENTS.md compares. *)

module V = Storage.Value

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Workload setup                                                      *)
(* ------------------------------------------------------------------ *)

type setup = {
  sf : int;
  db : Sqlgraph.Db.t;
  ids : int array;
  graph : Datagen.Snb.t;
}

let make_setup ~sf ~ratio ~seed =
  let graph = Datagen.Snb.generate ~scale_factor:sf ~ratio ~seed () in
  let db = Sqlgraph.Db.create () in
  Sqlgraph.Db.load_table db ~name:"persons" graph.Datagen.Snb.persons;
  Sqlgraph.Db.load_table db ~name:"friends" graph.Datagen.Snb.friends;
  { sf; db; ids = Datagen.Snb.person_ids graph; graph }

let q13_sql =
  "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)"

(* The paper's Q14 variant: one weighted shortest path (cost and path)
   using the precomputed affinities; cast to integers so the radix queue
   applies, as in appendix A.4. *)
let q14_sql =
  "SELECT CHEAPEST SUM(e: CAST(weight * 100 AS INTEGER)) AS (cost, path) \
   WHERE ? REACHES ? OVER friends e EDGE (src, dst)"

let batch_sql =
  "SELECT s, d, CHEAPEST SUM(1) AS c FROM pairs \
   WHERE s REACHES d OVER friends EDGE (src, dst)"

let run_single ?optimize setup sql (s, d) =
  match
    Sqlgraph.Db.query setup.db ?optimize ~params:[| V.Int s; V.Int d |] sql
  with
  | Ok r -> Sqlgraph.Resultset.nrows r
  | Error e -> failwith (Sqlgraph.Error.to_string e)

(* Average wall-clock latency of [f] over [reps] runs. *)
let avg_latency reps f =
  let total = ref 0. in
  for _ = 1 to reps do
    let _, dt = time f in
    total := !total +. dt
  done;
  !total /. float_of_int reps

let print_header title = Printf.printf "\n# %s\n%!" title

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 ~ratio ~sfs ~seed =
  print_header
    (Printf.sprintf
       "Table 1: size of the graph at different scale factors (ratio %.3f)"
       ratio);
  Printf.printf "%-12s %15s %15s %18s %18s\n" "scale_factor" "vertices"
    "edges" "paper_vertices" "paper_edges";
  List.iter
    (fun sf ->
      let paper_v, paper_e = List.assoc sf Datagen.Snb.paper_sizes in
      let g = Datagen.Snb.generate ~scale_factor:sf ~ratio ~seed () in
      Printf.printf "%-12d %15d %15d %18d %18d\n%!" sf g.Datagen.Snb.n_persons
        g.Datagen.Snb.n_directed_edges paper_v paper_e)
    sfs

(* ------------------------------------------------------------------ *)
(* Figure 1a                                                           *)
(* ------------------------------------------------------------------ *)

let fig1a ~ratio ~sfs ~reps ~seed =
  print_header
    (Printf.sprintf
       "Figure 1a: average latency per query, seconds (reps=%d, ratio=%.3f)"
       reps ratio);
  Printf.printf "%-6s %18s %18s %12s\n" "sf" "q13_unweighted" "q14_weighted"
    "weighted/bfs";
  List.iter
    (fun sf ->
      let setup = make_setup ~sf ~ratio ~seed in
      let pairs =
        Datagen.Workload.random_pairs ~seed:(seed + 1) ~ids:setup.ids reps
      in
      let cursor = ref 0 in
      let next () =
        let p = pairs.(!cursor mod Array.length pairs) in
        incr cursor;
        p
      in
      (* warm up the allocator/caches once *)
      ignore (run_single setup q13_sql pairs.(0));
      let t13 =
        avg_latency reps (fun () -> ignore (run_single setup q13_sql (next ())))
      in
      cursor := 0;
      let t14 =
        avg_latency reps (fun () -> ignore (run_single setup q14_sql (next ())))
      in
      Printf.printf "%-6d %18.6f %18.6f %12.3f\n%!" sf t13 t14 (t14 /. t13))
    sfs

(* ------------------------------------------------------------------ *)
(* Figure 1b                                                           *)
(* ------------------------------------------------------------------ *)

let fig1b ~ratio ~sfs ~batches ~reps ~seed =
  print_header
    (Printf.sprintf
       "Figure 1b: Q13 latency per pair vs batch size, seconds (reps=%d, ratio=%.3f)"
       reps ratio);
  Printf.printf "%-6s" "sf";
  List.iter (fun b -> Printf.printf " %12s" (Printf.sprintf "batch=%d" b)) batches;
  print_newline ();
  List.iter
    (fun sf ->
      let setup = make_setup ~sf ~ratio ~seed in
      Printf.printf "%-6d" sf;
      List.iter
        (fun batch ->
          let per_pair_latencies =
            List.init reps (fun rep ->
                let pairs =
                  Datagen.Workload.random_pairs
                    ~seed:(seed + (97 * rep) + batch)
                    ~ids:setup.ids batch
                in
                Sqlgraph.Db.load_table setup.db ~name:"pairs"
                  (Datagen.Workload.pairs_table pairs);
                let _, dt =
                  time (fun () ->
                      match Sqlgraph.Db.query setup.db batch_sql with
                      | Ok r -> ignore (Sqlgraph.Resultset.nrows r)
                      | Error e -> failwith (Sqlgraph.Error.to_string e))
                in
                dt /. float_of_int batch)
          in
          let avg =
            List.fold_left ( +. ) 0. per_pair_latencies
            /. float_of_int (List.length per_pair_latencies)
          in
          Printf.printf " %12.6f%!" avg)
        batches;
      print_newline ())
    sfs

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

(* A1: the §4 claim — graph construction dominates a single-pair query. *)
let ablation_build ~ratio ~sfs ~reps ~seed =
  print_header
    "Ablation A1: graph build vs traversal per single-pair Q13 (seconds)";
  Printf.printf "%-6s %14s %14s %14s %10s\n" "sf" "total" "graph_build"
    "traversal" "build%";
  List.iter
    (fun sf ->
      let setup = make_setup ~sf ~ratio ~seed in
      let pairs =
        Datagen.Workload.random_pairs ~seed:(seed + 2) ~ids:setup.ids reps
      in
      let total = ref 0. and build = ref 0. and trav = ref 0. in
      Array.iter
        (fun p ->
          let _, dt = time (fun () -> ignore (run_single setup q13_sql p)) in
          total := !total +. dt;
          match Sqlgraph.Db.last_stats setup.db with
          | Some s ->
            build := !build +. s.Executor.Interp.graph_build_seconds;
            trav := !trav +. s.Executor.Interp.graph_traverse_seconds
          | None -> ())
        pairs;
      let n = float_of_int reps in
      Printf.printf "%-6d %14.6f %14.6f %14.6f %9.1f%%\n%!" sf (!total /. n)
        (!build /. n) (!trav /. n)
        (100. *. !build /. !total))
    sfs

(* A2: radix vs binary heap, measured directly on the graph runtime. *)
let ablation_heap ~ratio ~sfs ~reps ~seed =
  print_header "Ablation A2: Dijkstra radix vs binary heap (traversal seconds)";
  Printf.printf "%-6s %14s %14s %10s\n" "sf" "radix" "binary" "radix/bin";
  List.iter
    (fun sf ->
      let setup = make_setup ~sf ~ratio ~seed in
      let friends = setup.graph.Datagen.Snb.friends in
      let src = Option.get (Storage.Table.column_by_name friends "src") in
      let dst = Option.get (Storage.Table.column_by_name friends "dst") in
      let weight_col =
        Option.get (Storage.Table.column_by_name friends "weight")
      in
      let rt = Graph.Runtime.build ~src ~dst in
      let n_edges = Storage.Table.nrows friends in
      let weights =
        Array.init n_edges (fun i ->
            max 1 (int_of_float (Storage.Column.float_at weight_col i *. 100.)))
      in
      let pairs =
        Array.map
          (fun (a, b) -> (V.Int a, V.Int b))
          (Datagen.Workload.random_pairs ~seed:(seed + 3) ~ids:setup.ids reps)
      in
      let run heap =
        snd
          (time (fun () ->
               ignore
                 (Graph.Runtime.run_pairs rt
                    ~weights:(Graph.Runtime.Int_weights weights) ~heap ~pairs
                    ())))
      in
      let tr = run Graph.Dijkstra.Radix in
      let tb = run Graph.Dijkstra.Binary in
      Printf.printf "%-6d %14.6f %14.6f %10.3f\n%!" sf tr tb (tr /. tb))
    sfs

(* A3: the paper's graph-join rewrite, on vs off, on the two-sided form. *)
let ablation_rewrite ~ratio ~sfs ~reps ~seed =
  print_header
    "Ablation A3: graph-join rewrite on/off (join-form Q13, seconds)";
  let sql =
    "SELECT p1.id, p2.id, CHEAPEST SUM(1) AS d FROM persons p1, persons p2 \
     WHERE p1.id = ? AND p2.id = ? \
       AND p1.id REACHES p2.id OVER friends EDGE (src, dst)"
  in
  Printf.printf "%-6s %16s %16s %10s\n" "sf" "with_rewrite" "without" "speedup";
  List.iter
    (fun sf ->
      let setup = make_setup ~sf ~ratio ~seed in
      let pairs =
        Datagen.Workload.random_pairs ~seed:(seed + 4) ~ids:setup.ids reps
      in
      let run optimize =
        let total = ref 0. in
        Array.iter
          (fun p ->
            let _, dt =
              time (fun () -> ignore (run_single ?optimize setup sql p))
            in
            total := !total +. dt)
          pairs;
        !total /. float_of_int reps
      in
      let t_on = run None in
      let t_off =
        run
          (Some
             { Relalg.Rewriter.default_options with form_graph_joins = false })
      in
      Printf.printf "%-6d %16.6f %16.6f %10.3f\n%!" sf t_on t_off
        (t_off /. t_on))
    sfs

(* A4: where the CSR build time goes. *)
let ablation_csr ~ratio ~sfs ~seed =
  print_header "Ablation A4: CSR construction phase decomposition (seconds)";
  Printf.printf "%-6s %12s %12s %12s %12s %12s %12s\n" "sf" "dict" "encode"
    "count" "prefix" "scatter" "total";
  List.iter
    (fun sf ->
      let g = Datagen.Snb.generate ~scale_factor:sf ~ratio ~seed () in
      let friends = g.Datagen.Snb.friends in
      let src = Option.get (Storage.Table.column_by_name friends "src") in
      let dst = Option.get (Storage.Table.column_by_name friends "dst") in
      let t0 = now () in
      let dict = Graph.Vertex_dict.build [ src; dst ] in
      let t1 = now () in
      let src_ids = Graph.Vertex_dict.encode_column dict src in
      let dst_ids = Graph.Vertex_dict.encode_column dict dst in
      let t2 = now () in
      let _, csr_t =
        Graph.Csr.build_timed
          ~vertex_count:(Graph.Vertex_dict.cardinality dict)
          ~src:src_ids ~dst:dst_ids
      in
      let t3 = now () in
      Printf.printf "%-6d %12.6f %12.6f %12.6f %12.6f %12.6f %12.6f\n%!" sf
        (t1 -. t0) (t2 -. t1) csr_t.Graph.Csr.count_phase
        csr_t.Graph.Csr.prefix_phase csr_t.Graph.Csr.scatter_phase (t3 -. t0))
    sfs

(* A5 (extension): the §6 graph index, killing the dominating build. *)
let ablation_index ~ratio ~sfs ~reps ~seed =
  print_header
    "Ablation A5: graph index on/off, single-pair Q13 (seconds per query); \
     after one INSERT the index extends (edge between known persons) or \
     rebuilds (new key)";
  Printf.printf "%-6s %16s %16s %10s %16s %16s\n" "sf" "no_index" "with_index"
    "speedup" "insert_extend" "insert_rebuild";
  List.iter
    (fun sf ->
      let setup = make_setup ~sf ~ratio ~seed in
      let pairs =
        Datagen.Workload.random_pairs ~seed:(seed + 5) ~ids:setup.ids reps
      in
      let cursor = ref 0 in
      let next () =
        let p = pairs.(!cursor mod Array.length pairs) in
        incr cursor;
        p
      in
      let t_off =
        avg_latency reps (fun () -> ignore (run_single setup q13_sql (next ())))
      in
      (match
         Sqlgraph.Db.create_graph_index setup.db ~table:"friends" ~src:"src"
           ~dst:"dst"
       with
      | Ok () -> ()
      | Error e -> failwith (Sqlgraph.Error.to_string e));
      (* the first indexed query builds and caches *)
      ignore (run_single setup q13_sql pairs.(0));
      cursor := 0;
      let t_on =
        avg_latency reps (fun () -> ignore (run_single setup q13_sql (next ())))
      in
      (* the first query after one appended edge: between two persons
         already a source and a vertex, the cached graph is extended; to
         a key no row holds yet, it is rebuilt *)
      let friends = setup.graph.Datagen.Snb.friends in
      let key col row =
        match Storage.Table.get friends ~row ~col with
        | V.Int k -> k
        | _ -> failwith "friends: non-integer key"
      in
      let rows = Storage.Table.nrows friends in
      let fresh = ref (Array.fold_left max 0 setup.ids) in
      let after_insert edge =
        avg_latency reps (fun () ->
            let s, d = edge () in
            (match
               Sqlgraph.Db.exec setup.db
                 (Printf.sprintf "INSERT INTO friends (src, dst) VALUES (%d, %d)" s d)
             with
            | Ok _ -> ()
            | Error e -> failwith (Sqlgraph.Error.to_string e));
            ignore (run_single setup q13_sql (next ())))
      in
      let t_extend =
        after_insert (fun () ->
            (key 0 (!cursor * 7919 mod rows), key 1 (!cursor mod rows)))
      in
      let t_rebuild =
        after_insert (fun () ->
            incr fresh;
            (key 0 (!cursor mod rows), !fresh))
      in
      Printf.printf "%-6d %16.6f %16.6f %10.1f %16.6f %16.6f\n%!" sf t_off t_on
        (t_off /. t_on) t_extend t_rebuild)
    sfs

(* A6: the dictionary fast path — the hot loop identified by A4. *)
let ablation_dict ~ratio ~sfs ~seed =
  print_header
    "Ablation A6: vertex dictionary, specialized int path vs generic \
     (build+encode seconds)";
  Printf.printf "%-6s %14s %14s %10s\n" "sf" "specialized" "generic" "speedup";
  List.iter
    (fun sf ->
      let g = Datagen.Snb.generate ~scale_factor:sf ~ratio ~seed () in
      let friends = g.Datagen.Snb.friends in
      let src = Option.get (Storage.Table.column_by_name friends "src") in
      let dst = Option.get (Storage.Table.column_by_name friends "dst") in
      let run specialize =
        snd
          (time (fun () ->
               let dict = Graph.Vertex_dict.build ~specialize [ src; dst ] in
               ignore (Graph.Vertex_dict.encode_column dict src);
               ignore (Graph.Vertex_dict.encode_column dict dst)))
      in
      let t_spec = run true in
      let t_gen = run false in
      Printf.printf "%-6d %14.6f %14.6f %10.2f\n%!" sf t_spec t_gen
        (t_gen /. t_spec))
    sfs

(* A7: §6's "rendering it parallel" — batched traversal over domains. *)
let ablation_parallel ~ratio ~sfs ~seed =
  print_header
    "Ablation A7: parallel batched traversal (256-pair Q13 batch, \
     traversal seconds; build excluded)";
  let domain_counts = [ 1; 2; 4; 8 ] in
  Printf.printf "%-6s" "sf";
  List.iter (fun d -> Printf.printf " %14s" (Printf.sprintf "domains=%d" d)) domain_counts;
  print_newline ();
  List.iter
    (fun sf ->
      let setup = make_setup ~sf ~ratio ~seed in
      let friends = setup.graph.Datagen.Snb.friends in
      let src = Option.get (Storage.Table.column_by_name friends "src") in
      let dst = Option.get (Storage.Table.column_by_name friends "dst") in
      let rt = Graph.Runtime.build ~src ~dst in
      let pairs =
        Array.map
          (fun (a, b) -> (V.Int a, V.Int b))
          (Datagen.Workload.random_pairs ~seed:(seed + 9) ~ids:setup.ids 256)
      in
      Printf.printf "%-6d" sf;
      List.iter
        (fun d ->
          let _, dt =
            time (fun () ->
                ignore
                  (Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted
                     ~domains:d ~pairs ()))
          in
          Printf.printf " %14.6f%!" dt)
        domain_counts;
      print_newline ())
    sfs

(* A8: column-at-a-time vs row-at-a-time expression evaluation — the
   MonetDB execution style vs a tuple interpreter, over a scan-heavy
   relational query on the persons/friends tables. *)
let ablation_vectorized ~ratio ~sfs ~seed =
  print_header
    "Ablation A8: vectorized vs row-at-a-time evaluation (relational \
     filter+project over the friends table, seconds)";
  let sql =
    "SELECT src + dst, CAST(weight * 100 AS INTEGER) FROM friends \
     WHERE src < dst AND weight > 1.0"
  in
  Printf.printf "%-6s %16s %16s %10s\n" "sf" "vectorized" "row_at_a_time"
    "speedup";
  List.iter
    (fun sf ->
      let setup = make_setup ~sf ~ratio ~seed in
      let run vectorize =
        let plan =
          Relalg.Rewriter.rewrite
            (Relalg.Binder.bind_query
               ~catalog:(Sqlgraph.Db.catalog setup.db)
               ~params:[||] (Sql.Parser.parse_query sql))
        in
        let ctx =
          Executor.Interp.create_ctx
            ~catalog:(Sqlgraph.Db.catalog setup.db)
            ~vectorize ()
        in
        (* warm once, then measure three runs *)
        ignore (Executor.Interp.run ctx plan);
        let _, dt =
          time (fun () ->
              for _ = 1 to 3 do
                ignore (Executor.Interp.run ctx plan)
              done)
        in
        dt /. 3.
      in
      let fast = run true in
      let slow = run false in
      Printf.printf "%-6d %16.6f %16.6f %10.2f\n%!" sf fast slow (slow /. fast))
    sfs

(* B1 (the paper's §1 motivation): the extension vs what standard SQL
   offers — a procedural frontier loop (PSM/recursion style), explicit
   join chains, and a native graph-framework BFS. *)
let baselines_bench ~ratio ~sfs ~reps ~seed =
  print_header
    "Baselines B1: CHEAPEST SUM vs standard-SQL techniques vs native BFS \
     (seconds per single-pair query)";
  Printf.printf "%-6s %14s %14s %14s %16s %16s\n" "sf" "extension"
    "frontier_sql" "native_bfs" "join_chain(<=2)" "recursive(<=6)";
  List.iter
    (fun sf ->
      let setup = make_setup ~sf ~ratio ~seed in
      let pairs =
        Datagen.Workload.random_pairs ~seed:(seed + 8) ~ids:setup.ids reps
      in
      let avg f =
        let total = ref 0. in
        Array.iter
          (fun p ->
            let _, dt = time (fun () -> f p) in
            total := !total +. dt)
          pairs;
        !total /. float_of_int reps
      in
      let t_ext = avg (fun p -> ignore (run_single setup q13_sql p)) in
      let t_frontier =
        avg (fun (s, d) ->
            ignore
              (Baselines.Sql_bfs.frontier_distance setup.db
                 ~edge_table:"friends" ~src_col:"src" ~dst_col:"dst" ~source:s
                 ~target:d ()))
      in
      let friends = setup.graph.Datagen.Snb.friends in
      let native =
        Baselines.Native_bfs.of_table friends ~src_col:"src" ~dst_col:"dst"
      in
      let t_native =
        avg (fun (s, d) ->
            ignore (Baselines.Native_bfs.distance native ~source:s ~target:d))
      in
      (* join chains enumerate paths: cap the depth hard, and accept that
         unreachable/distant pairs simply report the cap *)
      let t_chain =
        avg (fun (s, d) ->
            ignore
              (Baselines.Sql_bfs.join_chain_distance setup.db
                 ~edge_table:"friends" ~src_col:"src" ~dst_col:"dst" ~source:s
                 ~target:d ~max_hops:2 ()))
      in
      let t_recursive =
        avg (fun (s, d) ->
            ignore
              (Baselines.Sql_bfs.recursive_distance setup.db
                 ~edge_table:"friends" ~src_col:"src" ~dst_col:"dst" ~source:s
                 ~target:d ~max_hops:6 ()))
      in
      Printf.printf "%-6d %14.6f %14.6f %14.6f %16.6f %16.6f\n%!" sf t_ext
        t_frontier t_native t_chain t_recursive)
    sfs

(* ------------------------------------------------------------------ *)
(* Pairs: scalar vs batched multi-source traversal                     *)
(* ------------------------------------------------------------------ *)

(* P1: the batched traversal engine. One graph, many sources — the §4
   batch workload — answered per-source (one BFS per distinct source)
   vs bit-parallel MS-BFS (63 sources per wave), with byte-identity of
   every outcome asserted before any number is reported. *)
let pairs_bench ?json ~ratio ~sources ~seed () =
  print_header
    (Printf.sprintf
       "Pairs P1: scalar per-source BFS vs batched MS-BFS (%d sources, \
        ratio %.3f)"
       sources ratio);
  let setup = make_setup ~sf:1 ~ratio ~seed in
  let friends = setup.graph.Datagen.Snb.friends in
  let src = Option.get (Storage.Table.column_by_name friends "src") in
  let dst = Option.get (Storage.Table.column_by_name friends "dst") in
  let rt = Graph.Runtime.build ~src ~dst in
  Graph.Runtime.prepare_bidir rt;
  let pairs =
    Array.map
      (fun (a, b) -> (V.Int a, V.Int b))
      (Datagen.Workload.random_pairs ~seed:(seed + 11) ~ids:setup.ids sources)
  in
  let run ?domains engine =
    Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted ?domains
      ~engine ~pairs ()
  in
  (* Warm every configuration once — workspace pool, batch scratch and
     allocator — so no timed run pays first-use allocation. *)
  ignore (run `Scalar);
  ignore (run `Batched);
  ignore (run ~domains:2 `Batched);
  ignore (run ~domains:4 `Batched);
  let scalar, t_scalar = time (fun () -> run `Scalar) in
  let scalar_workers =
    (Graph.Runtime.sched_counters rt).Graph.Runtime.sc_workers
  in
  (* One batched measurement per domain count: counter deltas from the
     first run (scheduling-independent, so any run would do), time as
     the min of three — symmetric across configurations so the scaling
     ratios compare floors, not noise. [workers] is what the scheduler
     actually ran: [domains] clamped to the host's cores. *)
  let measure ?domains () =
    let cb = Graph.Runtime.traversal_counters rt in
    let sb = Graph.Runtime.sched_counters rt in
    let outs, t1 = time (fun () -> run ?domains `Batched) in
    let ca = Graph.Runtime.traversal_counters rt in
    let sa = Graph.Runtime.sched_counters rt in
    let _, t2 = time (fun () -> ignore (run ?domains `Batched)) in
    let _, t3 = time (fun () -> ignore (run ?domains `Batched)) in
    ( outs,
      Float.min t1 (Float.min t2 t3),
      ( ca.Graph.Workspace.waves - cb.Graph.Workspace.waves,
        ca.Graph.Workspace.dir_switches - cb.Graph.Workspace.dir_switches,
        sa.Graph.Runtime.sc_steals - sb.Graph.Runtime.sc_steals,
        sa.Graph.Runtime.sc_tasks - sb.Graph.Runtime.sc_tasks ),
      sa.Graph.Runtime.sc_workers )
  in
  let batched, t_batched, counters1, workers1 = measure () in
  let batched2, t_batched2, counters2, workers2 = measure ~domains:2 () in
  let batched4, t_batched4, counters4, workers4 = measure ~domains:4 () in
  let outcomes_equal a b =
    Array.for_all2
      (fun a b ->
        match a, b with
        | Graph.Runtime.Unreachable, Graph.Runtime.Unreachable -> true
        | ( Graph.Runtime.Reached { cost = c1; edge_rows = r1 },
            Graph.Runtime.Reached { cost = c2; edge_rows = r2 } ) ->
          V.equal c1 c2 && r1 = r2
        | _ -> false)
      a b
  in
  let identical =
    outcomes_equal scalar batched
    && outcomes_equal scalar batched2
    && outcomes_equal scalar batched4
  in
  if not identical then
    failwith "pairs: engine outcomes differ (scalar vs batched/domains)";
  (* Telemetry overhead on this scenario.  The span hooks are always
     compiled in; with tracing off each reduces to one atomic load, so
     the honest in-binary bound on "tracing-off overhead" is the
     repeat-run delta of two identical tracing-off passes (min-of-5 each
     — minima of the same distribution converge to the same floor).
     check.sh asserts it stays under the 2%-of-noise line.  The
     tracing-on cost is measured against the faster off pass and is
     informational. *)
  let min_time n f =
    let best = ref infinity in
    for _ = 1 to n do
      let _, dt = time f in
      if dt < !best then best := dt
    done;
    !best
  in
  Telemetry.Trace.set_enabled false;
  let t_off_a = min_time 5 (fun () -> ignore (run `Batched)) in
  let t_off_b = min_time 5 (fun () -> ignore (run `Batched)) in
  Telemetry.Trace.configure ~capacity:65536;
  Telemetry.Trace.set_enabled true;
  let t_on = min_time 5 (fun () -> ignore (run `Batched)) in
  Telemetry.Trace.set_enabled false;
  let t_off = Float.min t_off_a t_off_b in
  let trace_off_overhead_pct =
    Float.max 0. (100. *. (t_off_b -. t_off_a) /. t_off_a)
  in
  let trace_on_overhead_pct = 100. *. (t_on -. t_off) /. t_off in
  Printf.printf
    "tracing overhead: off=%.2f%% (repeat-run delta), on=%.2f%%\n%!"
    trace_off_overhead_pct trace_on_overhead_pct;
  let n_edges = Graph.Runtime.edge_count rt in
  Printf.printf
    "graph: %d vertices, %d edges; %d pairs (byte-identical outcomes)\n"
    (Graph.Runtime.vertex_count rt)
    n_edges sources;
  Printf.printf "%-28s %14s\n" "engine" "seconds";
  Printf.printf "%-28s %14.6f\n" "scalar per-source" t_scalar;
  let print_row name t (waves, switches, steals, tasks) workers =
    Printf.printf
      "%-28s %14.6f   (%d workers, %d waves, %d dir switches, %d tasks, %d \
       steals)\n"
      name t workers waves switches tasks steals
  in
  print_row "batched ms-bfs" t_batched counters1 workers1;
  print_row "batched ms-bfs, domains=2" t_batched2 counters2 workers2;
  print_row "batched ms-bfs, domains=4" t_batched4 counters4 workers4;
  Printf.printf "speedup (batched vs scalar, domains=1): %.2fx\n"
    (t_scalar /. t_batched);
  Printf.printf "speedup (domains=4 vs domains=1): %.2fx\n%!"
    (t_batched /. t_batched4);
  match json with
  | None -> ()
  | Some path ->
    (* [counters] is None for the scalar per-source baseline: it runs no
       batched waves and the sweep's counters describe the batched
       engine only, so those fields are null — not 0, which would read
       as "measured, and it was zero" (json_lint enforces the
       distinction). Every entry records the workers that ran. *)
    let entry ~name ~seconds ~domains ~workers ~counters =
      let c pick =
        match counters with
        | None -> Sqlgraph.Metrics.Null
        | Some cs -> Sqlgraph.Metrics.Int (pick cs)
      in
      Sqlgraph.Metrics.Obj
        [
          ("name", Sqlgraph.Metrics.String name);
          ("seconds", Sqlgraph.Metrics.num seconds);
          ("domains", Sqlgraph.Metrics.Int domains);
          ("workers", Sqlgraph.Metrics.Int workers);
          ("waves", c (fun (w, _, _, _) -> w));
          ("dir_switches", c (fun (_, s, _, _) -> s));
          ("steals", c (fun (_, _, s, _) -> s));
          ("tasks", c (fun (_, _, _, t) -> t));
        ]
    in
    Sqlgraph.Metrics.write_file ~path
      (Sqlgraph.Metrics.Obj
         [
           ("schema", Sqlgraph.Metrics.String "sqlgraph-bench-v1");
           ("suite", Sqlgraph.Metrics.String "pairs");
           ("ratio", Sqlgraph.Metrics.num ratio);
           ("seed", Sqlgraph.Metrics.Int seed);
           ("vertices", Sqlgraph.Metrics.Int (Graph.Runtime.vertex_count rt));
           ("edges", Sqlgraph.Metrics.Int n_edges);
           ("sources", Sqlgraph.Metrics.Int sources);
           ("identical", Sqlgraph.Metrics.Bool identical);
           ( "host_cores",
             Sqlgraph.Metrics.Int (Domain.recommended_domain_count ()) );
           ( "results",
             Sqlgraph.Metrics.List
               [
                 entry ~name:"pairs/scalar-per-source" ~seconds:t_scalar
                   ~domains:1 ~workers:scalar_workers ~counters:None;
                 entry ~name:"pairs/batched-msbfs" ~seconds:t_batched
                   ~domains:1 ~workers:workers1 ~counters:(Some counters1);
                 entry ~name:"pairs/batched-msbfs-domains2"
                   ~seconds:t_batched2 ~domains:2 ~workers:workers2
                   ~counters:(Some counters2);
                 entry ~name:"pairs/batched-msbfs-domains4"
                   ~seconds:t_batched4 ~domains:4 ~workers:workers4
                   ~counters:(Some counters4);
               ] );
           ( "speedup_batched_vs_scalar",
             Sqlgraph.Metrics.num (t_scalar /. t_batched) );
           (* Flat copies of the sweep for shell gates (check.sh parses
              these with sed; the per-entry fields above are the full
              record). *)
           ("domains1_seconds", Sqlgraph.Metrics.num t_batched);
           ("domains2_seconds", Sqlgraph.Metrics.num t_batched2);
           ("domains4_seconds", Sqlgraph.Metrics.num t_batched4);
           ( "speedup_domains4_vs_domains1",
             Sqlgraph.Metrics.num (t_batched /. t_batched4) );
           ( "trace_off_overhead_pct",
             Sqlgraph.Metrics.num trace_off_overhead_pct );
           ("trace_on_overhead_pct", Sqlgraph.Metrics.num trace_on_overhead_pct);
         ]);
    Printf.printf "wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* WAL overhead: single-row INSERT throughput, in-memory vs durable     *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  let path = Filename.temp_file "sqlgraph-bench-wal" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

(* The durability acceptance bar: write-ahead logging without fsync must
   stay within a few percent of a plain in-memory session (the log write
   is one buffered append per statement), while the fsync'd mode shows
   the true price of "this statement survives power loss".  Each mode
   runs [rows] single-row INSERTs through the full statement path;
   in-memory and no-fsync report min-of-3 (fsync'd runs once — its cost
   is the disk's, not the scheduler's). *)
let wal_bench ?json ~rows () =
  print_header "WAL overhead (single-row INSERT throughput)";
  let workload db n =
    for i = 1 to n do
      match
        Sqlgraph.Db.exec db ~params:[| Storage.Value.Int i |]
          "INSERT INTO t VALUES (?)"
      with
      | Ok _ -> ()
      | Error e -> failwith (Sqlgraph.Error.to_string e)
    done
  in
  let run_memory n =
    let db = Sqlgraph.Db.create () in
    Sqlgraph.Db.exec_exn db "CREATE TABLE t (a INTEGER)" |> ignore;
    Gc.compact ();
    let _, dt = time (fun () -> workload db n) in
    dt
  in
  let run_durable ~fsync n =
    with_temp_dir (fun dir ->
        match Sqlgraph.Wal.open_dir ~fsync dir with
        | Error e -> failwith (Sqlgraph.Error.to_string e)
        | Ok (store, db, _) ->
          Fun.protect
            ~finally:(fun () -> Sqlgraph.Wal.close store)
            (fun () ->
              Sqlgraph.Db.exec_exn db "CREATE TABLE t (a INTEGER)" |> ignore;
              Gc.compact ();
              let _, dt = time (fun () -> workload db n) in
              dt))
  in
  (* untimed warmup, then a paired design: each iteration times the two
     modes back-to-back (so they see the same background load) and the
     reported overhead comes from the median per-iteration ratio — a
     load spike during either half of an iteration shifts that pair to
     an extreme and the median discards it. Gc.compact before each
     timed window keeps major collections from landing in one mode's
     measurement but not the other's. *)
  ignore (run_memory rows);
  ignore (run_durable ~fsync:false rows);
  let samples =
    List.init 7 (fun _ ->
        let m = run_memory rows in
        let d = run_durable ~fsync:false rows in
        (d /. m, m, d))
  in
  let sorted =
    List.sort (fun (r1, _, _) (r2, _, _) -> compare r1 r2) samples
  in
  let _, t_mem, t_nofsync = List.nth sorted (List.length sorted / 2) in
  let fsync_rows = max 50 (rows / 20) in
  let t_fsync = run_durable ~fsync:true fsync_rows in
  let rate n dt = float_of_int n /. dt in
  let r_mem = rate rows t_mem in
  let r_nofsync = rate rows t_nofsync in
  let r_fsync = rate fsync_rows t_fsync in
  let overhead_pct = 100. *. (r_mem -. r_nofsync) /. r_mem in
  Printf.printf "%-28s %14s %14s\n" "mode" "stmts/sec" "seconds";
  Printf.printf "%-28s %14.0f %14.6f\n" "in-memory" r_mem t_mem;
  Printf.printf "%-28s %14.0f %14.6f\n" "wal --no-fsync" r_nofsync t_nofsync;
  Printf.printf "%-28s %14.0f %14.6f   (%d rows)\n" "wal fsync-per-commit"
    r_fsync t_fsync fsync_rows;
  Printf.printf "no-fsync overhead vs in-memory: %.2f%%\n%!" overhead_pct;
  match json with
  | None -> ()
  | Some path ->
    Sqlgraph.Metrics.write_file ~path
      (Sqlgraph.Metrics.Obj
         [
           ("schema", Sqlgraph.Metrics.String "sqlgraph-bench-v1");
           ("suite", Sqlgraph.Metrics.String "wal");
           ("rows", Sqlgraph.Metrics.Int rows);
           ("fsync_rows", Sqlgraph.Metrics.Int fsync_rows);
           ( "results",
             Sqlgraph.Metrics.List
               [
                 Sqlgraph.Metrics.Obj
                   [
                     ("name", Sqlgraph.Metrics.String "wal/in-memory");
                     ("stmts_per_sec", Sqlgraph.Metrics.num r_mem);
                     ("seconds", Sqlgraph.Metrics.num t_mem);
                   ];
                 Sqlgraph.Metrics.Obj
                   [
                     ("name", Sqlgraph.Metrics.String "wal/no-fsync");
                     ("stmts_per_sec", Sqlgraph.Metrics.num r_nofsync);
                     ("seconds", Sqlgraph.Metrics.num t_nofsync);
                   ];
                 Sqlgraph.Metrics.Obj
                   [
                     ("name", Sqlgraph.Metrics.String "wal/fsync");
                     ("stmts_per_sec", Sqlgraph.Metrics.num r_fsync);
                     ("seconds", Sqlgraph.Metrics.num t_fsync);
                   ];
               ] );
           ("nofsync_vs_memory_pct", Sqlgraph.Metrics.num overhead_pct);
         ]);
    Printf.printf "wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Server: group commit vs single-session fsync                        *)
(* ------------------------------------------------------------------ *)

(* The multi-session server's acceptance bar: durable commit throughput
   with many concurrent sessions must beat a single session by the
   group-commit factor — one shared fsync acknowledges a whole batch of
   COMMITs instead of one fsync each.  Both measurements run the same
   code path (in-process server over socketpairs, fsync'd WAL, every
   INSERT acknowledged only after its covering fsync lands); only the
   client count differs, so the ratio isolates the batching win. *)
let server_bench ?json ~commits ~clients () =
  print_header "Multi-session server (durable commit throughput)";
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let module Server = Sqlgraph_server.Server in
  let module Client = Sqlgraph_server.Client in
  let run_at c total =
    with_temp_dir (fun dir ->
        match Sqlgraph.Wal.open_dir ~fsync:true dir with
        | Error e -> failwith (Sqlgraph.Error.to_string e)
        | Ok (store, db, _) ->
          Sqlgraph.Db.exec_exn db "CREATE TABLE t (client INTEGER, v INTEGER)"
          |> ignore;
          let config =
            {
              Sqlgraph_server.Scheduler.default_config with
              max_sessions = max c 32;
              write_high_water = max c 32;
            }
          in
          let srv = Server.create ~config ~db ~store:(Some store) () in
          Fun.protect
            ~finally:(fun () ->
              Server.shutdown srv;
              try Sqlgraph.Wal.close store with _ -> ())
            (fun () ->
              let clients =
                Array.init c (fun _ ->
                    let a, b =
                      Unix.socketpair ~cloexec:true Unix.PF_UNIX
                        Unix.SOCK_STREAM 0
                    in
                    Server.attach srv a;
                    (Client.of_fd b, b))
              in
              let insert i k =
                Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i k
              in
              (* warmup: greet every session and prime the write path *)
              Array.iteri
                (fun i (cl, _) -> ignore (Client.request cl (insert i 0)))
                clients;
              let per = total / c in
              (* group mode: each client keeps a small window of
                 statements in flight so the measurement is the server's
                 durable commit throughput, not the client's socket
                 round-trip latency.  The baseline is the classic
                 single-session discipline — one commit in flight,
                 fsync'd and acknowledged before the next is issued. *)
              let window = if c = 1 then 1 else 16 in
              (* the clients share the process (and the OCaml runtime
                 lock) with the server, so the timed loop keeps them as
                 thin as possible: requests are precomputed, responses
                 are acknowledged by counting newlines, and an ERR
                 anywhere in the stream fails the run *)
              let run_client i fd =
                let reqs =
                  Array.init per (fun k -> insert i (k + 1) ^ "\n")
                in
                let offsets = Array.make (per + 1) 0 in
                for k = 0 to per - 1 do
                  offsets.(k + 1) <- offsets.(k) + String.length reqs.(k)
                done;
                let payload = String.concat "" (Array.to_list reqs) in
                let chunk = Bytes.create 65536 in
                let sent = ref 0 and acked = ref 0 in
                let tail = ref "" in
                while !acked < per do
                  let burst = min window (per - !sent) in
                  if burst > 0 && !sent - !acked < window then begin
                    let off = offsets.(!sent) in
                    let len = offsets.(!sent + burst) - off in
                    let rec push o l =
                      if l > 0 then begin
                        let n = Unix.write_substring fd payload o l in
                        push (o + n) (l - n)
                      end
                    in
                    push off len;
                    sent := !sent + burst
                  end;
                  let n = Unix.read fd chunk 0 (Bytes.length chunk) in
                  if n = 0 then failwith "server closed mid-run";
                  let fresh = Bytes.sub_string chunk 0 n in
                  (* the carry only guards ERR detection across read
                     boundaries; newlines are counted in [fresh] alone *)
                  (match Astring.String.find_sub ~sub:"ERR" (!tail ^ fresh) with
                  | Some _ ->
                    failwith ("commit not acknowledged: " ^ fresh)
                  | None -> ());
                  String.iter (fun ch -> if ch = '\n' then incr acked) fresh;
                  tail :=
                    String.sub fresh
                      (max 0 (n - 2))
                      (min 2 n)
                done
              in
              Gc.compact ();
              let t0 = Unix.gettimeofday () in
              let threads =
                Array.mapi
                  (fun i (_, fd) -> Thread.create (fun () -> run_client i fd) ())
                  clients
              in
              Array.iter Thread.join threads;
              let dt = Unix.gettimeofday () -. t0 in
              Array.iter (fun (cl, _) -> Client.close cl) clients;
              let mean_group =
                match
                  Telemetry.Registry.percentiles
                    (Sqlgraph_server.Scheduler.metrics (Server.scheduler srv))
                    "sqlgraph_server_group_commit_size"
                with
                | Some p when p.Telemetry.Registry.count > 0 ->
                  p.Telemetry.Registry.sum /. float_of_int p.Telemetry.Registry.count
                | _ -> 1.
              in
              (float_of_int (c * per) /. dt, dt, c * per, mean_group)))
  in
  let r_single, t_single, n_single, _ = run_at 1 commits in
  let nclients = clients in
  let r_group, t_group, n_group, mean_group = run_at nclients commits in
  let ratio = r_group /. r_single in
  Printf.printf "%-28s %14s %14s\n" "mode" "commits/sec" "seconds";
  Printf.printf "%-28s %14.0f %14.6f   (%d commits)\n" "1 session, fsync each"
    r_single t_single n_single;
  Printf.printf "%-28s %14.0f %14.6f   (%d commits)\n"
    (Printf.sprintf "%d sessions, group commit" nclients)
    r_group t_group n_group;
  Printf.printf "group-commit speedup: %.2fx (mean batch %.1f commits/fsync)\n%!"
    ratio mean_group;
  match json with
  | None -> ()
  | Some path ->
    Sqlgraph.Metrics.write_file ~path
      (Sqlgraph.Metrics.Obj
         [
           ("schema", Sqlgraph.Metrics.String "sqlgraph-bench-v1");
           ("suite", Sqlgraph.Metrics.String "server");
           ("commits", Sqlgraph.Metrics.Int commits);
           ("clients", Sqlgraph.Metrics.Int nclients);
           ( "results",
             Sqlgraph.Metrics.List
               [
                 Sqlgraph.Metrics.Obj
                   [
                     ("name", Sqlgraph.Metrics.String "server/single-fsync");
                     ("commits_per_sec", Sqlgraph.Metrics.num r_single);
                     ("seconds", Sqlgraph.Metrics.num t_single);
                   ];
                 Sqlgraph.Metrics.Obj
                   [
                     ("name", Sqlgraph.Metrics.String "server/group-commit");
                     ("commits_per_sec", Sqlgraph.Metrics.num r_group);
                     ("seconds", Sqlgraph.Metrics.num t_group);
                   ];
               ] );
           ("mean_group_size", Sqlgraph.Metrics.num mean_group);
           ("group_vs_single_x", Sqlgraph.Metrics.num ratio);
         ]);
    Printf.printf "wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Replication: catch-up bandwidth and steady-state lag                *)
(* ------------------------------------------------------------------ *)

(* The hot standby's acceptance bar (DESIGN.md §15): a fresh replica
   catches an existing WAL up over the wire at bulk-transfer speed
   (reported MB/s), and in steady state — every batch shipped between
   its fsync and its acks — the apply lag stays bounded (bytes, sampled
   after each acknowledged commit) and drains to zero once the writer
   stops. *)
let repl_bench ?json ~rows ~commits () =
  print_header "Replication (catch-up bandwidth, steady-state lag)";
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let module Server = Sqlgraph_server.Server in
  let module Client = Sqlgraph_server.Client in
  let module Repl = Sqlgraph_server.Replication in
  with_temp_dir (fun pdir ->
      with_temp_dir (fun rdir ->
          let psock = Filename.concat pdir "primary.sock" in
          match Sqlgraph.Wal.open_dir ~fsync:false pdir with
          | Error e -> failwith (Sqlgraph.Error.to_string e)
          | Ok (store, db, _) ->
            (* a pre-existing WAL for the catch-up phase: logged rows
               with a payload wide enough that bandwidth, not per-frame
               overhead, dominates *)
            Sqlgraph.Db.exec_exn db
              "CREATE TABLE t (client INTEGER, v INTEGER, pad VARCHAR)"
            |> ignore;
            let pad = String.make 120 'x' in
            for k = 1 to rows do
              Sqlgraph.Db.exec_exn db
                (Printf.sprintf "INSERT INTO t VALUES (0, %d, '%s')" k pad)
              |> ignore
            done;
            let srv = Server.create ~db ~store:(Some store) () in
            let hub =
              Repl.Hub.create ~sched:(Server.scheduler srv) ~store ~db ()
            in
            Server.listen_unix srv psock;
            match Sqlgraph.Wal.open_replica ~fsync:false rdir with
            | Error e -> failwith (Sqlgraph.Error.to_string e)
            | Ok (rstore, rdb, _) ->
              let rsrv = Server.create ~db:rdb ~store:(Some rstore) () in
              let target = Sqlgraph.Wal.logical_end store in
              let t0 = Unix.gettimeofday () in
              let standby =
                Repl.Standby.create
                  ~sched:(Server.scheduler rsrv)
                  ~store:rstore ~db:rdb
                  ~primary:(Client.Unix_ep psock) ()
              in
              Fun.protect
                ~finally:(fun () ->
                  Repl.Standby.stop standby;
                  Repl.Hub.stop hub;
                  Server.shutdown rsrv;
                  Server.shutdown srv;
                  (try Sqlgraph.Wal.close rstore with _ -> ());
                  try Sqlgraph.Wal.close store with _ -> ())
                (fun () ->
                  let deadline = t0 +. 120. in
                  while
                    Repl.Standby.applied_offset standby < target
                    && Unix.gettimeofday () < deadline
                  do
                    Thread.yield ()
                  done;
                  let catchup_s = Unix.gettimeofday () -. t0 in
                  if Repl.Standby.applied_offset standby < target then
                    failwith "replica failed to catch up within 120s";
                  let catchup_bytes = target in
                  let mbps =
                    float_of_int catchup_bytes /. catchup_s /. 1.0e6
                  in
                  (* steady state: acked commits through the server's
                     write path, lag sampled after every ack *)
                  let cl = Client.connect_unix psock in
                  let lag_sum = ref 0 and lag_max = ref 0 in
                  let t1 = Unix.gettimeofday () in
                  for k = 1 to commits do
                    let lines =
                      Client.request cl
                        (Printf.sprintf
                           "INSERT INTO t VALUES (1, %d, '%s')" k pad)
                    in
                    if not (Client.is_ok lines) then
                      failwith ("commit refused: " ^ Client.terminal lines);
                    let lag = Repl.Standby.lag standby in
                    lag_sum := !lag_sum + lag;
                    lag_max := max !lag_max lag
                  done;
                  let steady_s = Unix.gettimeofday () -. t1 in
                  Client.close cl;
                  (* quiesce: the lag must drain to zero *)
                  let upto = Sqlgraph.Wal.logical_end store in
                  let t2 = Unix.gettimeofday () in
                  while
                    Repl.Standby.applied_offset standby < upto
                    && Unix.gettimeofday () < t2 +. 30.
                  do
                    Thread.yield ()
                  done;
                  let drain_s = Unix.gettimeofday () -. t2 in
                  if Repl.Standby.applied_offset standby < upto then
                    failwith "steady-state lag failed to drain within 30s";
                  let lag_mean =
                    float_of_int !lag_sum /. float_of_int (max 1 commits)
                  in
                  let steady_rate = float_of_int commits /. steady_s in
                  Printf.printf "%-28s %14.2f MB/s   (%d bytes in %.3fs)\n"
                    "catch-up" mbps catchup_bytes catchup_s;
                  Printf.printf
                    "%-28s %14.0f commits/sec   (lag mean %.0f B, max %d B, \
                     drain %.3fs)\n\
                     %!"
                    "steady state" steady_rate lag_mean !lag_max drain_s;
                  match json with
                  | None -> ()
                  | Some path ->
                    Sqlgraph.Metrics.write_file ~path
                      (Sqlgraph.Metrics.Obj
                         [
                           ( "schema",
                             Sqlgraph.Metrics.String "sqlgraph-bench-v1" );
                           ("suite", Sqlgraph.Metrics.String "repl");
                           ("rows", Sqlgraph.Metrics.Int rows);
                           ("commits", Sqlgraph.Metrics.Int commits);
                           ( "catchup_bytes",
                             Sqlgraph.Metrics.Int catchup_bytes );
                           ("catchup_seconds", Sqlgraph.Metrics.num catchup_s);
                           ("catchup_mb_per_sec", Sqlgraph.Metrics.num mbps);
                           ( "steady_commits_per_sec",
                             Sqlgraph.Metrics.num steady_rate );
                           ( "steady_lag_bytes_mean",
                             Sqlgraph.Metrics.num lag_mean );
                           ( "steady_lag_bytes_max",
                             Sqlgraph.Metrics.Int !lag_max );
                           ("drain_seconds", Sqlgraph.Metrics.num drain_s);
                         ]);
                    Printf.printf "wrote %s\n%!" path)))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro ?json ?trace_out ~ratio ~seed () =
  if trace_out <> None then Telemetry.Trace.set_enabled true;
  print_header "Bechamel micro-benchmarks (one kernel per experiment)";
  let setup = make_setup ~sf:1 ~ratio ~seed in
  let friends = setup.graph.Datagen.Snb.friends in
  let src = Option.get (Storage.Table.column_by_name friends "src") in
  let dst = Option.get (Storage.Table.column_by_name friends "dst") in
  let rt = Graph.Runtime.build ~src ~dst in
  let pair_pool =
    Datagen.Workload.random_pairs ~seed:(seed + 6) ~ids:setup.ids 64
  in
  let pick =
    let i = ref 0 in
    fun () ->
      let p = pair_pool.(!i mod 64) in
      incr i;
      p
  in
  let batch_pairs =
    Array.map
      (fun (a, b) -> (V.Int a, V.Int b))
      (Datagen.Workload.random_pairs ~seed:(seed + 7) ~ids:setup.ids 16)
  in
  let open Bechamel in
  let tests =
    [
      (* T1 kernel: graph generation *)
      Test.make ~name:"table1/generate-sf1@0.05"
        (Staged.stage (fun () ->
             ignore (Datagen.Snb.generate ~scale_factor:1 ~ratio:0.05 ~seed ())));
      (* F1a kernels: single-pair Q13 / Q14 through the full SQL stack *)
      Test.make ~name:"fig1a/q13-single-pair"
        (Staged.stage (fun () -> ignore (run_single setup q13_sql (pick ()))));
      Test.make ~name:"fig1a/q14-single-pair"
        (Staged.stage (fun () -> ignore (run_single setup q14_sql (pick ()))));
      (* F1b kernel: a 16-pair batch on a prebuilt graph *)
      Test.make ~name:"fig1b/batch16-on-built-graph"
        (Staged.stage (fun () ->
             ignore
               (Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted
                  ~pairs:batch_pairs ())));
      (* A1 kernel: the dominating build step alone *)
      Test.make ~name:"ablation-build/dict+csr"
        (Staged.stage (fun () -> ignore (Graph.Runtime.build ~src ~dst)));
      (* compiler kernel: SQL front-end alone *)
      Test.make ~name:"compiler/parse+bind-q13"
        (Staged.stage (fun () ->
             ignore
               (Relalg.Binder.bind_query
                  ~catalog:(Sqlgraph.Db.catalog setup.db)
                  ~params:[| V.Int 7; V.Int 20 |]
                  (Sql.Parser.parse_query q13_sql))));
    ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  Printf.printf "%-36s %18s\n" "benchmark" "ns/run";
  let measured = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            measured := (name, est) :: !measured;
            Printf.printf "%-36s %18.1f\n%!" name est
          | _ -> Printf.printf "%-36s %18s\n%!" name "n/a")
        analyzed)
    tests;
  (match trace_out with
  | None -> ()
  | Some path ->
    (* A deterministic closing exercise so the dump always carries every
       span family — parse (full SQL stack), graph_build/dict/encode/csr
       (direct build), waves on >= 2 spawned-domain tracks — regardless
       of what the benchmark loops evicted from the ring. *)
    ignore (run_single setup q13_sql (pick ()));
    ignore (Graph.Runtime.build ~src ~dst);
    (* [oversubscribe] so two scheduler workers (and their tracks) exist
       even when this machine exposes a single core; a dedicated chain
       graph because the batch needs > 63 *distinct* sources to split
       into two wave tasks, and the benchmark graph can be smaller than
       that at smoke ratios. *)
    let closing_rt =
      let n = 200 in
      Graph.Runtime.build
        ~src:(Storage.Column.of_int_array (Array.init (n - 1) Fun.id))
        ~dst:(Storage.Column.of_int_array (Array.init (n - 1) (fun i -> i + 1)))
    in
    let closing_pairs =
      Array.init 128 (fun i -> (V.Int i, V.Int (i + 1)))
    in
    ignore
      (Graph.Runtime.run_pairs closing_rt ~weights:Graph.Runtime.Unweighted
         ~engine:`Batched ~domains:2 ~oversubscribe:true ~pairs:closing_pairs
         ());
    Telemetry.Trace.write_catapult ~path;
    Telemetry.Trace.set_enabled false;
    Printf.printf "wrote %s\n%!" path);
  match json with
  | None -> ()
  | Some path ->
    (* BENCH_*.json: the machine-readable perf trajectory (schema
       sqlgraph-bench-v1; one result object per kernel, ns per run) *)
    Sqlgraph.Metrics.write_file ~path
      (Sqlgraph.Metrics.Obj
         [
           ("schema", Sqlgraph.Metrics.String "sqlgraph-bench-v1");
           ("suite", Sqlgraph.Metrics.String "micro");
           ("ratio", Sqlgraph.Metrics.num ratio);
           ("seed", Sqlgraph.Metrics.Int seed);
           ( "results",
             Sqlgraph.Metrics.List
               (List.rev_map
                  (fun (name, ns) ->
                    Sqlgraph.Metrics.Obj
                      [
                        ("name", Sqlgraph.Metrics.String name);
                        ("ns_per_run", Sqlgraph.Metrics.num ns);
                      ])
                  !measured) );
         ]);
    Printf.printf "wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let ratio_arg =
  let doc =
    "Scale every scale factor's node and edge counts by this ratio \
     (1.0 = the paper's sizes)."
  in
  Arg.(value & opt float 1.0 & info [ "ratio" ] ~doc)

let sfs_arg =
  let doc = "Scale factors to run (known: 1 3 10 30 100 300)." in
  Arg.(value & opt (list int) [ 1; 3 ] & info [ "sf" ] ~doc)

let reps_arg =
  let doc = "Repetitions per measured point (the paper used 1000)." in
  Arg.(value & opt int 5 & info [ "reps" ] ~doc)

let seed_arg =
  let doc = "Deterministic seed for data and workload generation." in
  Arg.(value & opt int 20170519 & info [ "seed" ] ~doc)

let batches_arg =
  let doc = "Batch sizes for Figure 1b." in
  Arg.(
    value
    & opt (list int) [ 1; 2; 4; 8; 16; 32; 64; 128 ]
    & info [ "batches" ] ~doc)

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let table1_cmd =
  cmd "table1" "Reproduce Table 1 (graph sizes)."
    Term.(
      const (fun ratio sfs seed -> table1 ~ratio ~sfs ~seed)
      $ ratio_arg $ sfs_arg $ seed_arg)

let fig1a_cmd =
  cmd "fig1a" "Reproduce Figure 1a (Q13 vs Q14-variant latency)."
    Term.(
      const (fun ratio sfs reps seed -> fig1a ~ratio ~sfs ~reps ~seed)
      $ ratio_arg $ sfs_arg $ reps_arg $ seed_arg)

let fig1b_cmd =
  cmd "fig1b" "Reproduce Figure 1b (latency per pair vs batch size)."
    Term.(
      const (fun ratio sfs batches reps seed ->
          fig1b ~ratio ~sfs ~batches ~reps ~seed)
      $ ratio_arg $ sfs_arg $ batches_arg $ reps_arg $ seed_arg)

let ablation_build_cmd =
  cmd "ablation-build" "Graph build vs traversal split (A1)."
    Term.(
      const (fun ratio sfs reps seed -> ablation_build ~ratio ~sfs ~reps ~seed)
      $ ratio_arg $ sfs_arg $ reps_arg $ seed_arg)

let ablation_heap_cmd =
  cmd "ablation-heap" "Radix vs binary heap Dijkstra (A2)."
    Term.(
      const (fun ratio sfs reps seed -> ablation_heap ~ratio ~sfs ~reps ~seed)
      $ ratio_arg $ sfs_arg $ reps_arg $ seed_arg)

let ablation_rewrite_cmd =
  cmd "ablation-rewrite" "Graph-join rewrite on/off (A3)."
    Term.(
      const (fun ratio sfs reps seed ->
          ablation_rewrite ~ratio ~sfs ~reps ~seed)
      $ ratio_arg $ sfs_arg $ reps_arg $ seed_arg)

let ablation_csr_cmd =
  cmd "ablation-csr" "CSR construction phases (A4)."
    Term.(
      const (fun ratio sfs seed -> ablation_csr ~ratio ~sfs ~seed)
      $ ratio_arg $ sfs_arg $ seed_arg)

let ablation_index_cmd =
  cmd "ablation-index" "Graph index on/off (A5, the paper's §6 idea)."
    Term.(
      const (fun ratio sfs reps seed -> ablation_index ~ratio ~sfs ~reps ~seed)
      $ ratio_arg $ sfs_arg $ reps_arg $ seed_arg)

let ablation_parallel_cmd =
  cmd "ablation-parallel" "Parallel batched traversal over domains (A7, the paper's §6)."
    Term.(
      const (fun ratio sfs seed -> ablation_parallel ~ratio ~sfs ~seed)
      $ ratio_arg $ sfs_arg $ seed_arg)

let ablation_dict_cmd =
  cmd "ablation-dict" "Specialized vs generic vertex dictionary (A6)."
    Term.(
      const (fun ratio sfs seed -> ablation_dict ~ratio ~sfs ~seed)
      $ ratio_arg $ sfs_arg $ seed_arg)

let ablation_vectorized_cmd =
  cmd "ablation-vectorized"
    "Column-at-a-time vs row-at-a-time evaluation (A8)."
    Term.(
      const (fun ratio sfs seed -> ablation_vectorized ~ratio ~sfs ~seed)
      $ ratio_arg $ sfs_arg $ seed_arg)

let baselines_cmd =
  cmd "baselines"
    "Extension vs standard-SQL baselines vs native BFS (B1, the paper's \
     motivation)."
    Term.(
      const (fun ratio sfs reps seed -> baselines_bench ~ratio ~sfs ~reps ~seed)
      $ ratio_arg $ sfs_arg $ reps_arg $ seed_arg)

let json_arg =
  let doc =
    "Write the micro-benchmark results to this file as JSON (schema \
     sqlgraph-bench-v1), e.g. BENCH_micro.json."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Enable span tracing and dump the ring buffer to this file as Chrome \
     trace-event JSON (chrome://tracing, Perfetto), e.g. TRACE_micro.json."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let micro_cmd =
  cmd "micro" "Bechamel micro-benchmarks."
    Term.(
      const (fun ratio seed json trace_out ->
          micro ?json ?trace_out ~ratio ~seed ())
      $ ratio_arg $ seed_arg $ json_arg $ trace_out_arg)

let sources_arg =
  let doc = "Number of ⟨source, destination⟩ pairs for the pairs scenario." in
  Arg.(value & opt int 512 & info [ "sources" ] ~doc)

let pairs_json_arg =
  let doc =
    "Write the pairs results to this file as JSON (schema \
     sqlgraph-bench-v1), e.g. BENCH_pairs.json."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let pairs_cmd =
  cmd "pairs"
    "Scalar per-source BFS vs batched MS-BFS on one multi-source batch (P1)."
    Term.(
      const (fun ratio sources seed json ->
          pairs_bench ?json ~ratio ~sources ~seed ())
      $ ratio_arg $ sources_arg $ seed_arg $ pairs_json_arg)

let wal_rows_arg =
  let doc = "Single-row INSERT statements per mode for the WAL scenario." in
  Arg.(value & opt int 25000 & info [ "rows" ] ~doc)

let wal_json_arg =
  let doc =
    "Write the WAL results to this file as JSON (schema sqlgraph-bench-v1), \
     e.g. BENCH_wal.json."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let wal_cmd =
  cmd "wal"
    "Write-ahead-log overhead: INSERT throughput in-memory vs --no-fsync vs \
     fsync'd."
    Term.(
      const (fun rows json -> wal_bench ?json ~rows ())
      $ wal_rows_arg $ wal_json_arg)

let server_commits_arg =
  let doc = "Total durable single-row INSERTs per concurrency level." in
  Arg.(value & opt int 800 & info [ "commits" ] ~doc)

let server_json_arg =
  let doc =
    "Write the server results to this file as JSON (schema \
     sqlgraph-bench-v1), e.g. BENCH_server.json."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let server_clients_arg =
  let doc = "Concurrent sessions for the group-commit measurement." in
  Arg.(value & opt int 16 & info [ "clients" ] ~doc)

let server_cmd =
  cmd "server"
    "Multi-session server: group-commit durable throughput vs a single \
     fsync'd session."
    Term.(
      const (fun commits clients json -> server_bench ?json ~commits ~clients ())
      $ server_commits_arg $ server_clients_arg $ server_json_arg)

let repl_rows_arg =
  let doc = "Rows in the pre-existing WAL the replica catches up on." in
  Arg.(value & opt int 5000 & info [ "rows" ] ~doc)

let repl_commits_arg =
  let doc = "Acknowledged commits in the steady-state phase." in
  Arg.(value & opt int 400 & info [ "commits" ] ~doc)

let repl_json_arg =
  let doc =
    "Write the replication results to this file as JSON (schema \
     sqlgraph-bench-v1), e.g. BENCH_repl.json."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let repl_cmd =
  cmd "repl"
    "Replication: replica catch-up bandwidth and steady-state apply lag."
    Term.(
      const (fun rows commits json -> repl_bench ?json ~rows ~commits ())
      $ repl_rows_arg $ repl_commits_arg $ repl_json_arg)

(* ------------------------------------------------------------------ *)
(* sim: the discrete-event workload simulator (stress tier) *)

let sim_bench ?json ~tier ~backend ~seed ~statements ~clients ~domains () =
  let cfg = Sim.Driver.config_of_tier ~backend ~seed ~domains tier in
  let cfg =
    {
      cfg with
      Sim.Driver.statements =
        (match statements with Some n -> n | None -> cfg.Sim.Driver.statements);
      clients =
        (match clients with Some n -> n | None -> cfg.Sim.Driver.clients);
    }
  in
  Printf.printf
    "== sim: %d clients, %d statements over %d persons / %d friendships \
     (seed %d, %s backend, domains %d) ==\n%!"
    cfg.Sim.Driver.clients cfg.Sim.Driver.statements cfg.Sim.Driver.persons
    cfg.Sim.Driver.friendships cfg.Sim.Driver.seed
    (match backend with
    | Sim.Driver.Inproc -> "inproc"
    | Sim.Driver.Server_sessions -> "server")
    cfg.Sim.Driver.domains;
  let report = Sim.Driver.run cfg in
  Sim.Driver.print_report report;
  Option.iter
    (fun path ->
      Sqlgraph.Metrics.write_file ~path (Sim.Driver.json_report cfg report);
      Printf.printf "wrote %s\n%!" path)
    json;
  if report.Sim.Driver.violation_count > 0 then exit 3

let sim_tier_arg =
  let doc = "Workload tier: small (~50k statements), medium (1M), large \
             (2M over an SF100-class graph)." in
  let tier =
    Arg.enum
      [
        ("small", Sim.Driver.Small);
        ("medium", Sim.Driver.Medium);
        ("large", Sim.Driver.Large);
      ]
  in
  Arg.(value & opt tier Sim.Driver.Small & info [ "tier" ] ~doc)

let sim_backend_arg =
  let doc = "Backend: inproc (WAL-backed Db, supports kill-and-recover) or \
             server (multi-session server over socketpairs)." in
  let backend =
    Arg.enum
      [
        ("inproc", Sim.Driver.Inproc); ("server", Sim.Driver.Server_sessions);
      ]
  in
  Arg.(value & opt backend Sim.Driver.Inproc & info [ "backend" ] ~doc)

let sim_statements_arg =
  let doc = "Override the tier's statement count." in
  Arg.(value & opt (some int) None & info [ "statements" ] ~doc)

let sim_clients_arg =
  let doc = "Override the tier's simulated client count." in
  Arg.(value & opt (some int) None & info [ "clients" ] ~doc)

let sim_domains_arg =
  let doc =
    "Traversal parallelism: SET parallelism applied to every backend db \
     (re-applied after kill-and-recover)."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~doc)

let sim_json_arg =
  let doc =
    "Write the sim report to this file as JSON (schema sqlgraph-bench-v1), \
     e.g. BENCH_sim.json."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let sim_cmd =
  cmd "sim"
    "Deterministic discrete-event workload simulator: seeded statement \
     mixes, invariant checks, kill-and-recover, per-class latency \
     percentiles."
    Term.(
      const (fun tier backend seed statements clients domains json ->
          sim_bench ?json ~tier ~backend ~seed ~statements ~clients ~domains ())
      $ sim_tier_arg $ sim_backend_arg $ seed_arg $ sim_statements_arg
      $ sim_clients_arg $ sim_domains_arg $ sim_json_arg)

let run_everything ratio sfs batches reps seed =
  table1 ~ratio ~sfs ~seed;
  fig1a ~ratio ~sfs ~reps ~seed;
  fig1b ~ratio ~sfs ~batches ~reps ~seed;
  ablation_build ~ratio ~sfs ~reps ~seed;
  ablation_heap ~ratio ~sfs ~reps ~seed;
  ablation_rewrite ~ratio ~sfs ~reps ~seed;
  ablation_csr ~ratio ~sfs ~seed;
  ablation_index ~ratio ~sfs ~reps ~seed;
  ablation_dict ~ratio ~sfs ~seed;
  ablation_parallel ~ratio ~sfs ~seed;
  ablation_vectorized ~ratio ~sfs ~seed;
  baselines_bench ~ratio ~sfs ~reps ~seed;
  pairs_bench ~ratio ~sources:512 ~seed ();
  wal_bench ~rows:25000 ();
  server_bench ~commits:800 ~clients:16 ();
  micro ~ratio ~seed ()

let all_cmd =
  cmd "all" "Run every table, figure and ablation with the given settings."
    Term.(
      const run_everything $ ratio_arg $ sfs_arg $ batches_arg $ reps_arg
      $ seed_arg)

let () =
  let default =
    Term.(
      const run_everything $ ratio_arg $ sfs_arg $ batches_arg $ reps_arg
      $ seed_arg)
  in
  let info =
    Cmd.info "sqlgraph-bench"
      ~doc:
        "Reproduce the evaluation of 'Extending SQL for Computing Shortest \
         Paths' (GRADES'17)."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            table1_cmd; fig1a_cmd; fig1b_cmd; ablation_build_cmd;
            ablation_heap_cmd; ablation_rewrite_cmd; ablation_csr_cmd;
            ablation_index_cmd; ablation_dict_cmd; ablation_parallel_cmd;
            ablation_vectorized_cmd; baselines_cmd; pairs_cmd; wal_cmd;
            server_cmd; repl_cmd; sim_cmd; micro_cmd; all_cmd;
          ]))
