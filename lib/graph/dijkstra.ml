type heap_kind = Radix | Binary

(* Vertices are *discovered* (tentative distance known, stamped visited)
   then *settled* (popped with an up-to-date distance, final). Pending
   targets are cleared only on settling.

   Canonical parents (DESIGN.md §9). A relaxation that ties a discovered
   vertex's distance through a smaller forward CSR slot takes that slot
   as the vertex's parent, with no new heap entry. Weights are > 0, so
   every tight in-edge (u, v), d(u) + w = d(v), comes from a vertex that
   settles, and relaxes it, before v settles. A settled vertex's parent
   is therefore the minimal slot among all its tight in-edges, whatever
   order the heap pops equal keys in: radix and binary heaps, and the
   bidirectional search below, return the same path byte for byte. *)

let setup_targets (ws : Workspace.t) targets =
  let remaining = ref 0 in
  Array.iter
    (fun v ->
      if not (Workspace.is_pending_target ws v) then begin
        Workspace.mark_target ws v;
        incr remaining
      end)
    targets;
  remaining

let run_int ?(check = Cancel.none) (ws : Workspace.t) (csr : Csr.t) ~weights
    ~source ~targets ~heap =
  Workspace.next_epoch ws;
  let remaining = setup_targets ws targets in
  let early_exit = Array.length targets > 0 in
  (* [extract] returns the payload and leaves its priority in [popped]:
     with the workspace's reused radix heap the settle loop allocates
     nothing *)
  let popped = ref 0 in
  let insert, extract, heap_empty, heap_size =
    match heap with
    | Radix ->
      let h = Workspace.radix_heap ws in
      ( (fun p v -> Radix_heap.insert h ~priority:p ~payload:v),
        (fun () ->
          let v = Radix_heap.extract_min h in
          popped := Radix_heap.floor h;
          v),
        (fun () -> Radix_heap.is_empty h),
        fun () -> Radix_heap.size h )
    | Binary ->
      let h = Binary_heap.create () in
      ( (fun p v -> Binary_heap.insert h ~priority:(float_of_int p) ~payload:v),
        (fun () ->
          let p, v = Binary_heap.extract_min h in
          popped := int_of_float p;
          v),
        (fun () -> Binary_heap.is_empty h),
        fun () -> Binary_heap.size h )
  in
  let tk = Cancel.ticker check ~site:"dijkstra" in
  Workspace.mark_visited ws source;
  ws.dist_int.(source) <- 0;
  ws.parent_vertex.(source) <- -1;
  ws.parent_slot.(source) <- -1;
  insert 0 source;
  let finished = ref false in
  while (not !finished) && not (heap_empty ()) do
    let u = extract () in
    let d = !popped in
    Cancel.tick tk ~frontier:(heap_size ());
    (* Lazy deletion: skip entries made stale by a later relaxation. *)
    if d = ws.dist_int.(u) && Workspace.visited ws u then begin
      Workspace.note_settled ws;
      if Workspace.is_pending_target ws u then begin
        Workspace.clear_target ws u;
        decr remaining;
        if early_exit && !remaining = 0 then finished := true
      end;
      if not !finished then
        (* a plain slot loop: no relaxation closure per settled vertex *)
        for slot = csr.Csr.offsets.(u) to csr.Csr.offsets.(u + 1) - 1 do
          let target = Ivec.get csr.Csr.targets slot in
          Workspace.note_edge ws;
          let cand = d + weights.(slot) in
          if
            (not (Workspace.visited ws target))
            || cand < ws.dist_int.(target)
          then begin
            Workspace.mark_visited ws target;
            ws.dist_int.(target) <- cand;
            ws.parent_vertex.(target) <- u;
            ws.parent_slot.(target) <- slot;
            insert cand target;
            Workspace.note_frontier ws (heap_size ())
          end
          else if cand = ws.dist_int.(target) && slot < ws.parent_slot.(target)
          then begin
            ws.parent_vertex.(target) <- u;
            ws.parent_slot.(target) <- slot
          end
        done
    end
  done;
  Cancel.flush tk

let run_float ?(check = Cancel.none) (ws : Workspace.t) (csr : Csr.t) ~weights
    ~source ~targets =
  Workspace.next_epoch ws;
  let remaining = setup_targets ws targets in
  let early_exit = Array.length targets > 0 in
  let h = Binary_heap.create () in
  let tk = Cancel.ticker check ~site:"dijkstra" in
  Workspace.mark_visited ws source;
  ws.dist_float.(source) <- 0.;
  ws.parent_vertex.(source) <- -1;
  ws.parent_slot.(source) <- -1;
  Binary_heap.insert h ~priority:0. ~payload:source;
  let finished = ref false in
  while (not !finished) && not (Binary_heap.is_empty h) do
    let d, u = Binary_heap.extract_min h in
    Cancel.tick tk ~frontier:(Binary_heap.size h);
    if d = ws.dist_float.(u) && Workspace.visited ws u then begin
      Workspace.note_settled ws;
      if Workspace.is_pending_target ws u then begin
        Workspace.clear_target ws u;
        decr remaining;
        if early_exit && !remaining = 0 then finished := true
      end;
      if not !finished then
        Csr.iter_out csr u (fun ~slot ~target ->
            Workspace.note_edge ws;
            let cand = d +. weights.(slot) in
            if
              (not (Workspace.visited ws target))
              || cand < ws.dist_float.(target)
            then begin
              Workspace.mark_visited ws target;
              ws.dist_float.(target) <- cand;
              ws.parent_vertex.(target) <- u;
              ws.parent_slot.(target) <- slot;
              Binary_heap.insert h ~priority:cand ~payload:target;
              Workspace.note_frontier ws (Binary_heap.size h)
            end
            (* [cand > d]: a weight below half an ulp of [d] adds nothing,
               and such an edge must not count as tight (its head may have
               settled first, and may be [u]'s own ancestor) *)
            else if
              cand = ws.dist_float.(target)
              && cand > d
              && slot < ws.parent_slot.(target)
            then begin
              ws.parent_vertex.(target) <- u;
              ws.parent_slot.(target) <- slot
            end)
    end
  done;
  Cancel.flush tk

(* Bidirectional Dijkstra for one pair, integer weights, radix heaps.

   The forward side searches [csr] from [source] on the workspace's
   scalar state (dist_int, the parent arrays, radix_heap) under the tie
   rule above. The backward side searches [rev] from [dest] on the bidir
   scratch (back_stamp, back_dist, back_heap); reverse slot k mirrors
   forward slot rev.edge_rows.(k), so its weight is read from [weights]
   with no second weight vector. Each step pops the side whose heap holds
   fewer entries. Whenever a side relaxes an edge into a vertex the other
   side has labelled, mu (the cheapest source-dest walk seen) takes the
   sum if it is smaller. top_f and top_b are the smallest keys in the two
   heaps, stale entries included: each is at most the distance of any
   vertex its side has not settled.

   Meeting. The search stops once mu <= top_f + top_b (or a heap
   empties, or the forward side settles [dest]); then mu = D, the
   distance. Suppose D < mu and take a shortest path P. Every vertex v
   of P has d(source, v) < top_f, and so is forward-settled, or
   d(v, dest) < top_b, and so is backward-settled: otherwise
   D = d(source, v) + d(v, dest) >= top_f + top_b >= mu. Distances from
   [source] rise strictly along P (weights are > 0), so the forward ones
   form a prefix and the backward ones the rest. Let (u, v) be the edge
   of P where the prefix ends, with u = source or v = dest when a part
   is empty (both roots carry exact labels from the start). Whichever of
   u and v was scanned last found the other labelled exactly, which set
   mu <= D: a contradiction.

   The parent walk. Phase 1 need not have settled every vertex of the
   path run_int would return, so the forward side continues: it pops
   while its key is <= mu = D, settles u only if df(u) + lbt(u) <= mu,
   and relaxes (u, y) only if cand + lbt(y) <= mu. Here lbt(y) is
   min(back_dist(y), top_b) for a backward-labelled y, top_b for any
   other, with top_b frozen at the end of phase 1 (infinite when the
   backward heap is empty). The settle test is applied once, by
   filtering the queue phase 1 left: every entry pushed later passed it
   when it was pushed, and lbt no longer changes. A backward-settled y
   has back_dist(y) <= top_b, exact; an unsettled one has d(y, dest) >=
   top_b. So lbt is a lower bound on d(y, dest), and consistent:
   lbt(x) <= w(x, y) + lbt(y) for every edge.
   - A vertex v on a shortest source-dest path has d(source, v) + lbt(v)
     <= d(source, v) + d(v, dest) = mu. Its tight in-edges come from
     vertices on such paths too, and pass the same test. So v settles,
     and every tight in-edge of v is relaxed before it does.
   - A vertex that settles does so with its exact distance. If every
     shortest path to v breaks at a pruned x (x was not settled, or the
     edge out of x was not relaxed), then by consistency d(source, v) +
     lbt(v) >= d(source, x) + lbt(x) > mu, and v does not settle either.
   The tie rule therefore compares exact distances, and each vertex of
   the canonical path takes the minimal slot among all its tight
   in-edges, as in run_int. The walk of parent_slot from [dest] is
   run_int's path. *)
let bidir_int ?(check = Cancel.none) (ws : Workspace.t) (csr : Csr.t) ~rev
    ~weights ~source ~dest ~paths =
  Workspace.next_epoch ws;
  let epoch = ws.Workspace.epoch in
  let b = Workspace.weighted_bidir_state ws in
  let fh = Workspace.radix_heap ws and bh = b.Workspace.back_heap in
  let df = ws.Workspace.dist_int and db = b.Workspace.back_dist in
  let back_stamp = b.Workspace.back_stamp in
  let tk = Cancel.ticker check ~site:"dijkstra" in
  let edges = ref 0 and settled = ref (if source = dest then 1 else 0) in
  let mu = ref (if source = dest then 0 else max_int) in
  let dest_settled = ref (source = dest) in
  Workspace.mark_visited ws source;
  df.(source) <- 0;
  ws.parent_vertex.(source) <- -1;
  ws.parent_slot.(source) <- -1;
  back_stamp.(dest) <- epoch;
  db.(dest) <- 0;
  Workspace.note_frontier ws 1;
  (* one step for the roots, so cancellation (and an armed fault) can
     fire once per search even when source = dest *)
  Cancel.tick tk ~frontier:1;
  (* the phase-2 pruning bound; phase 1 prunes nothing *)
  let pruning = ref false and top_b = ref max_int in
  let lbt y =
    if back_stamp.(y) = epoch && db.(y) < !top_b then db.(y) else !top_b
  in
  let forward () =
    let u = Radix_heap.extract_min fh in
    let d = Radix_heap.floor fh in
    Cancel.tick tk ~frontier:(Radix_heap.size fh);
    if d = df.(u) then begin
      incr settled;
      if u = dest then dest_settled := true
      else
        for slot = csr.Csr.offsets.(u) to csr.Csr.offsets.(u + 1) - 1 do
          let y = Ivec.get csr.Csr.targets slot in
          incr edges;
          let cand = d + weights.(slot) in
          if (not !pruning) || lbt y <= !mu - cand then begin
            if (not (Workspace.visited ws y)) || cand < df.(y) then begin
              Workspace.mark_visited ws y;
              df.(y) <- cand;
              ws.parent_vertex.(y) <- u;
              ws.parent_slot.(y) <- slot;
              Radix_heap.insert fh ~priority:cand ~payload:y
            end
            else if cand = df.(y) && slot < ws.parent_slot.(y) then begin
              ws.parent_vertex.(y) <- u;
              ws.parent_slot.(y) <- slot
            end;
            if back_stamp.(y) = epoch && cand + db.(y) < !mu then
              mu := cand + db.(y)
          end
        done
    end
  in
  let backward () =
    let u = Radix_heap.extract_min bh in
    let d = Radix_heap.floor bh in
    Cancel.tick tk ~frontier:(Radix_heap.size bh);
    if d = db.(u) then begin
      incr settled;
      for k = rev.Csr.offsets.(u) to rev.Csr.offsets.(u + 1) - 1 do
        let x = Ivec.get rev.Csr.targets k in
        incr edges;
        let cand = d + weights.(Ivec.get rev.Csr.edge_rows k) in
        if back_stamp.(x) <> epoch || cand < db.(x) then begin
          back_stamp.(x) <- epoch;
          db.(x) <- cand;
          Radix_heap.insert bh ~priority:cand ~payload:x
        end;
        if Workspace.visited ws x && df.(x) + cand < !mu then
          mu := df.(x) + cand
      done
    end
  in
  if source <> dest then begin
    Radix_heap.insert fh ~priority:0 ~payload:source;
    Radix_heap.insert bh ~priority:0 ~payload:dest;
    while
      (not !dest_settled)
      && (not (Radix_heap.is_empty fh))
      && (not (Radix_heap.is_empty bh))
      && (!mu = max_int
         || !mu > Radix_heap.min_priority fh + Radix_heap.min_priority bh)
    do
      if Radix_heap.size fh <= Radix_heap.size bh then forward ()
      else backward ();
      Workspace.note_frontier ws (Radix_heap.size fh + Radix_heap.size bh)
    done;
    if paths && !mu < max_int then begin
      pruning := true;
      if not (Radix_heap.is_empty bh) then top_b := Radix_heap.min_priority bh;
      (* the settle test, on what phase 1 queued (see above) *)
      Radix_heap.filter fh (fun d u -> d = df.(u) && lbt u <= !mu - d);
      while
        (not !dest_settled)
        && (not (Radix_heap.is_empty fh))
        && Radix_heap.min_priority fh <= !mu
      do
        forward ()
      done
    end
  end;
  let c = ws.Workspace.counters in
  c.Workspace.settled <- c.Workspace.settled + !settled;
  c.Workspace.edges_scanned <- c.Workspace.edges_scanned + !edges;
  Cancel.flush tk;
  if !mu = max_int then None else Some !mu
