exception Weight_error of string

(* Monotonic-enough wall clock shared with [\timing]/Db (PR 1 moved those
   off [Sys.time]); build stats must use the same source or EXPLAIN
   ANALYZE phase times cannot be compared against operator times. *)
let now = Unix.gettimeofday

module Tr = Telemetry.Trace

type build_stats = {
  dict_seconds : float;
  encode_seconds : float;
  csr_seconds : float;
  total_seconds : float;
  vertex_count : int;
  edge_count : int;
}

type t = {
  dict : Vertex_dict.t;
  csr : Csr.t;
  totals : Workspace.t;
      (* counters only: every batch runs on pooled workspaces and folds
         their counters in here when it releases them *)
  mu : Mutex.t;  (* guards [pool], [totals] and the sched_* counters *)
  stats : build_stats;
  src_keys : int;
      (* ids the dictionary handed out while scanning the source column:
         1 + the largest encoded source id *)
  mutable rev : Csr.t option;  (* reverse CSR, built on demand, kept *)
  mutable pool : Workspace.t list;  (* spare search workspaces *)
  mutable pool_hits : int;
  mutable pool_misses : int;
  (* Work-stealing scheduler observability (every scheduled batch):
     tasks/steals/splits accumulate across batches; workers and
     imbalance describe the most recent one. *)
  mutable sched_tasks : int;
  mutable sched_steals : int;
  mutable sched_splits : int;
  mutable sched_workers : int;
  mutable sched_imbalance : int;
}

let make ~dict ~csr ~src_keys ~dict_s ~encode_s ~csr_s =
  {
    dict;
    csr;
    totals = Workspace.create 0;
    mu = Mutex.create ();
    stats =
      {
        dict_seconds = dict_s;
        encode_seconds = encode_s;
        csr_seconds = csr_s;
        total_seconds = dict_s +. encode_s +. csr_s;
        vertex_count = Vertex_dict.cardinality dict;
        edge_count = Csr.edge_count csr;
      };
    src_keys;
    rev = None;
    pool = [];
    pool_hits = 0;
    pool_misses = 0;
    sched_tasks = 0;
    sched_steals = 0;
    sched_splits = 0;
    sched_workers = 0;
    sched_imbalance = 0;
  }

let build_multi ~src ~dst =
  (match src, dst with
  | [], _ | _, [] -> invalid_arg "Runtime.build_multi: empty key"
  | s :: _, d :: _ ->
    if Storage.Column.length s <> Storage.Column.length d then
      invalid_arg "Runtime.build: src/dst column length mismatch");
  Tr.span "graph_build" @@ fun () ->
  let t0 = now () in
  let dict = Tr.span "dict" (fun () -> Vertex_dict.build_groups [ src; dst ]) in
  let t1 = now () in
  let src_ids, dst_ids =
    Tr.span "encode" (fun () ->
        ( Vertex_dict.encode_columns dict src,
          Vertex_dict.encode_columns dict dst ))
  in
  let t2 = now () in
  let vertex_count = Vertex_dict.cardinality dict in
  let csr =
    Tr.span "csr" (fun () -> Csr.build ~vertex_count ~src:src_ids ~dst:dst_ids)
  in
  let t3 = now () in
  make ~dict ~csr
    ~src_keys:(Array.fold_left max (-1) src_ids + 1)
    ~dict_s:(t1 -. t0) ~encode_s:(t2 -. t1) ~csr_s:(t3 -. t2)

let build ~src ~dst = build_multi ~src:[ src ] ~dst:[ dst ]

(* The dictionary hands out ids to the source column first, then to the
   destination column, so a fresh build keeps every id exactly when each
   appended source key is among the first [src_keys] ids and each
   appended destination key has an id (DESIGN.md §6). *)
let extend t ~src ~dst ~from =
  if Storage.Column.length src <> Storage.Column.length dst then
    invalid_arg "Runtime.extend: src/dst column length mismatch";
  Tr.span "graph_build" @@ fun () ->
  let t0 = now () in
  let src_ids, dst_ids =
    Tr.span "encode" (fun () ->
        ( Vertex_dict.encode_column ~from t.dict src,
          Vertex_dict.encode_column ~from t.dict dst ))
  in
  let known col ids ~below =
    let rec ok i =
      i >= Array.length ids
      || (Storage.Column.is_null col (from + i)
         || (ids.(i) >= 0 && ids.(i) < below))
         && ok (i + 1)
    in
    ok 0
  in
  if
    not
      (known src src_ids ~below:t.src_keys
      && known dst dst_ids ~below:t.stats.vertex_count)
  then None
  else
    let t1 = now () in
    let csr =
      Tr.span "csr" (fun () ->
          Csr.extend t.csr ~src:src_ids ~dst:dst_ids ~first_row:from)
    in
    let t2 = now () in
    Some
      (make ~dict:t.dict ~csr ~src_keys:t.src_keys ~dict_s:0.
         ~encode_s:(t1 -. t0) ~csr_s:(t2 -. t1))

let stats t = t.stats
let vertex_count t = t.stats.vertex_count
let edge_count t = t.stats.edge_count
let dict t = t.dict

let prepare_bidir t =
  match t.rev with None -> t.rev <- Some (Csr.reverse t.csr) | Some _ -> ()

let has_bidir t = t.rev <> None
let pool_stats t = Mutex.protect t.mu (fun () -> (t.pool_hits, t.pool_misses))

(* Workspace pool. A runtime cached in the graph index is shared by every
   session thread, so no search may run on a workspace another batch can
   see: each batch takes private workspaces (one per worker) from the
   pool and hands them back when it ends. Acquire/release happen on the
   batch's coordinating thread — before Domain.spawn and after
   Domain.join, whose happens-before edge makes reading the domain's
   counter writes safe — under [t.mu] against concurrent batches.
   Released workspaces first fold their counters into [t.totals], then
   reset, so a pooled workspace always starts clean. *)
let acquire_ws t =
  Mutex.protect t.mu (fun () ->
      match t.pool with
      | ws :: rest ->
        t.pool <- rest;
        t.pool_hits <- t.pool_hits + 1;
        ws
      | [] ->
        t.pool_misses <- t.pool_misses + 1;
        Workspace.create t.stats.vertex_count)

let release_ws t ws =
  Mutex.protect t.mu (fun () ->
      Workspace.absorb_counters ~into:t.totals ws;
      Workspace.reset_counters ws;
      t.pool <- ws :: t.pool)

(* Cumulative traversal counters live in [t.totals]; every batch absorbs
   its workspaces back into it, so a snapshot before/after any batch
   yields a per-batch delta. *)
let traversal_counters t =
  Mutex.protect t.mu (fun () -> Workspace.snapshot_counters t.totals)

type sched_counters = {
  sc_tasks : int;
  sc_steals : int;
  sc_splits : int;
  sc_workers : int;
  sc_imbalance_pct : int;
}

let sched_counters t =
  Mutex.protect t.mu (fun () ->
      {
        sc_tasks = t.sched_tasks;
        sc_steals = t.sched_steals;
        sc_splits = t.sched_splits;
        sc_workers = t.sched_workers;
        sc_imbalance_pct = t.sched_imbalance;
      })

type slot_weights = [ `None | `Int of int array | `Float of float array ]

(* [owner] is the CSR whose slot order [slot_w] follows. *)
type aligned = { owner : Csr.t; slot_w : slot_weights }

type weights =
  | Unweighted
  | Int_weights of int array
  | Float_weights of float array
  | Aligned of aligned

type engine = [ `Auto | `Scalar | `Batched ]

type outcome =
  | Unreachable
  | Reached of { cost : Storage.Value.t; edge_rows : int array }

(* Re-align per-row weights to CSR slots and enforce strict positivity over
   every edge that made it into the graph. *)
let slot_weights_int t per_row =
  let rows = t.csr.Csr.edge_rows in
  Array.init (Ivec.length rows) (fun slot ->
      let w = per_row.(Ivec.get rows slot) in
      if w <= 0 then
        raise
          (Weight_error
             (Printf.sprintf
                "edge weight must be > 0, got %d at edge-table row %d" w
                (Ivec.get rows slot)));
      w)

let slot_weights_float t per_row =
  let rows = t.csr.Csr.edge_rows in
  Array.init (Ivec.length rows) (fun slot ->
      let w = per_row.(Ivec.get rows slot) in
      if not (w > 0.) then
        raise
          (Weight_error
             (Printf.sprintf
                "edge weight must be > 0, got %g at edge-table row %d" w
                (Ivec.get rows slot)));
      w)

let align_weights t = function
  | Aligned a when a.owner == t.csr -> a
  | Aligned _ ->
    invalid_arg "Runtime.align_weights: weights aligned for another graph"
  | Unweighted -> { owner = t.csr; slot_w = `None }
  | Int_weights per_row ->
    { owner = t.csr; slot_w = `Int (slot_weights_int t per_row) }
  | Float_weights per_row ->
    { owner = t.csr; slot_w = `Float (slot_weights_float t per_row) }

(* Group pair indices by encoded source id so each distinct source runs a
   single traversal. Pairs with a non-vertex endpoint resolve immediately
   to Unreachable (the semi-join against V of §3.1). *)
let encode_pairs t pairs =
  Array.map
    (fun (s, d) ->
      match Vertex_dict.encode t.dict s, Vertex_dict.encode t.dict d with
      | Some si, Some di -> Some (si, di)
      | _, _ -> None)
    pairs

(* Duplicate encoded pairs extract once and fan out afterwards: alias.(i)
   is the index of the first pair with the same (source, destination)
   encoding, or -1 when pair i is itself the canonical occurrence. *)
let dedup_pairs encoded =
  let canon = Hashtbl.create 64 in
  let alias = Array.make (Array.length encoded) (-1) in
  Array.iteri
    (fun idx enc ->
      match enc with
      | None -> ()
      | Some key -> (
        match Hashtbl.find_opt canon key with
        | Some first -> alias.(idx) <- first
        | None -> Hashtbl.add canon key idx))
    encoded;
  alias

let group_by_source encoded alias =
  let groups = Hashtbl.create 64 in
  Array.iteri
    (fun idx enc ->
      match enc with
      | Some (si, di) when alias.(idx) < 0 ->
        let entries =
          match Hashtbl.find_opt groups si with Some l -> l | None -> []
        in
        Hashtbl.replace groups si ((idx, di) :: entries)
      | _ -> ())
    encoded;
  groups

(* Run one source group (search + per-pair extraction) on a given
   workspace, writing its outcomes into disjoint slots of [out]. *)
let run_scalar_group t ~slot_w ~heap ~check ~rev ~paths ~out ws
    (source, entries) =
  (* One span per search; closed on the cancellation unwind by
     [Trace.span]'s protect (the enclosing batch/domain span would catch
     a skipped end anyway, see [Trace.end_span]). *)
  let search_name = match slot_w with `None -> "bfs" | _ -> "dijkstra" in
  Tr.span search_name (fun () ->
      match slot_w with
      | `None ->
        Bfs.run ~check ?rev ws t.csr ~source
          ~targets:(Array.of_list (List.map snd entries))
      | `Int w ->
        Dijkstra.run_int ~check ws t.csr ~weights:w ~source
          ~targets:(Array.of_list (List.map snd entries))
          ~heap
      | `Float w ->
        Dijkstra.run_float ~check ws t.csr ~weights:w ~source
          ~targets:(Array.of_list (List.map snd entries)));
  List.iter
    (fun (idx, dst) ->
      if Workspace.visited ws dst then begin
        let cost =
          match slot_w with
          | `None | `Int _ -> Storage.Value.Int ws.Workspace.dist_int.(dst)
          | `Float _ -> Storage.Value.Float ws.Workspace.dist_float.(dst)
        in
        let edge_rows =
          if paths then Path_tree.edge_rows ws t.csr ~source ~dst else [||]
        in
        out.(idx) <- Reached { cost; edge_rows }
      end)
    entries

(* One MS-BFS wave over <= Msbfs.max_lanes source groups: lane i is the
   search rooted at groups.(i). Outcomes are extracted before the next
   wave reuses the batch scratch. *)
let run_wave t ~check ~rev ~paths ~out ws groups =
  let sp =
    if Tr.enabled () then
      Tr.begin_span ~attrs:[ ("lanes", string_of_int (Array.length groups)) ]
        "wave"
    else -1
  in
  Fun.protect ~finally:(fun () -> Tr.end_span sp) @@ fun () ->
  let sources = Array.map fst groups in
  let targets =
    let acc = ref [] in
    Array.iteri
      (fun lane (_, entries) ->
        List.iter (fun (_, dst) -> acc := (lane, dst) :: !acc) entries)
      groups;
    Array.of_list !acc
  in
  Msbfs.run ~check ?rev ws t.csr ~sources ~targets;
  Array.iteri
    (fun lane (source, entries) ->
      List.iter
        (fun (idx, dst) ->
          match Msbfs.dist ws ~lane ~source ~dst with
          | None -> ()
          | Some hops ->
            let edge_rows =
              if paths then Msbfs.edge_rows ws t.csr ~lane ~source ~dst
              else [||]
            in
            out.(idx) <- Reached { cost = Storage.Value.Int hops; edge_rows })
        entries)
    groups

(* Every traversal batch but the bidirectional single pair: a
   work-stealing scheduler (Sched) over a task partition that is fixed up
   front, independent of the worker count and of steal order. One worker
   (domains = 1, a single task, or a one-core host) runs inline on the
   calling domain with no Domain.spawn. Batched groups are sorted by
   source id and cut into ⌈G/63⌉ contiguous waves of near-equal lane
   counts — partition-aware: the lanes of one wave root in one
   contiguous vertex-id range of the CSR, and balanced widths avoid the
   runt wave a greedy 63-at-a-time cut produces (a runt sweeps the same
   graph for a fraction of the lanes). Scalar (BFS or Dijkstra) groups
   run one per task in the size-sorted order. A task is a range over
   that fixed sequence: a worker executes one wave/group and pushes the
   remainder back on its deque, which is exactly the granularity thieves
   steal at.

   Because the partition is fixed, every workspace counter depends only
   on the batch — identical for any domain count — and the per-worker
   workspaces are absorbed into the shared one *after* every worker has
   joined, on the coordinator, in worker-index order: absorption is
   deterministic and conserves every count. The governor checkpoint is
   still shared across workers (its budget counters are monotone and
   advisory); a raise in any kernel stops the other workers at their
   next task boundary and resurfaces after the join. *)
let run_sched t ~slot_w ~heap ~check ~rev ~paths ~out ~domains
    ~oversubscribe ~batched group_list =
  let batched_groups =
    if batched then
      Array.of_list
        (List.sort (fun (s1, _) (s2, _) -> compare (s1 : int) s2) group_list)
    else [||]
  in
  let scalar_groups = if batched then [||] else Array.of_list group_list in
  let g = Array.length batched_groups in
  let ntasks =
    if batched then (g + Msbfs.max_lanes - 1) / Msbfs.max_lanes
    else Array.length scalar_groups
  in
  let workers = Sched.plan ~oversubscribe ~domains ntasks in
  let wss = Array.init workers (fun _ -> acquire_ws t) in
  let exec ~worker (lo, hi) =
    let ws = wss.(worker) in
    (if batched then begin
       let glo = lo * g / ntasks and ghi = (lo + 1) * g / ntasks in
       run_wave t ~check ~rev ~paths ~out ws
         (Array.sub batched_groups glo (ghi - glo))
     end
     else run_scalar_group t ~slot_w ~heap ~check ~rev ~paths ~out ws
         scalar_groups.(lo));
    if lo + 1 < hi then Some (lo + 1, hi) else None
  in
  let tasks =
    Array.init workers (fun k ->
        let lo = k * ntasks / workers and hi = (k + 1) * ntasks / workers in
        if lo >= hi then [] else [ (lo, hi) ])
  in
  (* Each worker records onto its own track; parent its root span to the
     coordinator's batch span so the timeline links up. *)
  let batch_span = Tr.current_span () in
  let around k body =
    let sp =
      if Tr.enabled () then
        Tr.begin_span ~parent:batch_span
          ~attrs:[ ("worker", string_of_int k) ]
          "domain"
      else -1
    in
    Fun.protect ~finally:(fun () -> Tr.end_span sp) body
  in
  let stats =
    Fun.protect
      ~finally:(fun () -> Array.iter (release_ws t) wss)
      (fun () -> Sched.run ~around ~workers ~tasks ~exec ())
  in
  Mutex.protect t.mu (fun () ->
      t.sched_tasks <- t.sched_tasks + stats.Sched.tasks;
      t.sched_steals <- t.sched_steals + stats.Sched.steals;
      t.sched_splits <- t.sched_splits + stats.Sched.splits;
      t.sched_workers <- stats.Sched.workers;
      t.sched_imbalance <- Sched.imbalance_pct stats)

let run_pairs t ~weights ?(heap = Dijkstra.Radix) ?(domains = 1)
    ?(check = Cancel.none) ?(engine = `Auto) ?(oversubscribe = false)
    ?(paths = true) ?(note = fun _ _ -> ()) ~pairs () =
  Tr.span "traversal_batch" @@ fun () ->
  (* searches/settled/edges accumulate across batches (delta-friendly);
     the peak frontier restarts per batch so callers can attribute an
     exact per-batch peak. *)
  Mutex.protect t.mu (fun () ->
      (Workspace.counters t.totals).Workspace.peak_frontier <- 0);
  let slot_w = (align_weights t weights).slot_w in
  let encoded = encode_pairs t pairs in
  let alias = dedup_pairs encoded in
  let groups = group_by_source encoded alias in
  let out = Array.make (Array.length pairs) Unreachable in
  (* Largest group first (by pending pair count, source id breaking ties)
     so the group order is independent of hash-table iteration order;
     [run_sched] re-sorts batched groups by source id before cutting
     waves, and weighted scalar groups become one task each, so this
     only needs to be deterministic, not balanced. *)
  let group_list =
    Hashtbl.fold (fun s e acc -> (s, e) :: acc) groups []
    |> List.sort (fun (s1, e1) (s2, e2) ->
           let c = compare (List.length e2) (List.length e1) in
           if c <> 0 then c else compare s1 s2)
  in
  (* The batched engine answers unweighted multi-source batches 63 lanes
     per sweep; weighted traversal stays on per-source Dijkstra. *)
  let batched =
    match slot_w, (engine : engine) with
    | `None, `Batched -> true
    | `None, `Auto -> List.length group_list > 1
    | _ -> false
  in
  let rev = t.rev in
  (match (slot_w, engine, rev, group_list) with
  | `None, `Auto, Some rev, [ (source, [ (idx, dest) ]) ] when not paths -> (
    (* the cost-only single pair meets in the middle (Bfs.distance) *)
    note "search" "bidir";
    let ws = acquire_ws t in
    Fun.protect ~finally:(fun () -> release_ws t ws) @@ fun () ->
    match
      Tr.span "bidir_bfs" (fun () ->
          Bfs.distance ~check ws t.csr ~rev ~source ~dest)
    with
    | Some hops ->
      out.(idx) <- Reached { cost = Storage.Value.Int hops; edge_rows = [||] }
    | None -> ())
  | _ ->
    (* §6's parallelism, scheduled by work stealing: the CSR and weights
       are shared read-only, every worker owns a private (pooled)
       workspace, and outcomes land in disjoint slots — see [run_sched]
       for the task partition and the determinism argument. *)
    run_sched t ~slot_w ~heap ~check ~rev ~paths ~out ~domains
      ~oversubscribe ~batched group_list);
  (* Fan the canonical outcomes back out to the deduplicated pairs. *)
  Array.iteri (fun idx a -> if a >= 0 then out.(idx) <- out.(a)) alias;
  out

let reachable ?(check = Cancel.none) ?domains ?note t ~pairs =
  let outcomes =
    run_pairs t ~weights:Unweighted ~check ?domains ~paths:false ?note ~pairs ()
  in
  Array.map (function Unreachable -> false | Reached _ -> true) outcomes
