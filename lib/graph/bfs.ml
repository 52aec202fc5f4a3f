(* Level-synchronous BFS with canonical parents.

   The frontier of every level is kept in ascending vertex id, so the
   first edge that discovers a vertex is the minimal forward CSR slot
   among all its shortest-path parents. That canonical choice is
   direction-independent: a bottom-up step scanning a vertex's in-edges
   (sorted by forward slot — see Csr.reverse) finds exactly the same
   parent at its first hit, and the bit-parallel Msbfs engine makes the
   same choice lane-wise. All three engines therefore settle *identical*
   shortest-path trees, which is what lets the runtime pick whichever is
   fastest without changing a single result byte. *)

(* Direction-optimizing thresholds (Beamer et al., "Direction-Optimizing
   Breadth-First Search"): go bottom-up when the frontier's out-edges
   outnumber a 1/alpha fraction of the unexplored edges; come back
   top-down when the frontier shrinks below 1/beta of the vertices. *)
let default_alpha = 14
let default_beta = 24

let run ?(check = Cancel.none) ?rev ?(alpha = default_alpha)
    ?(beta = default_beta) (ws : Workspace.t) (csr : Csr.t) ~source ~targets =
  Workspace.next_epoch ws;
  (* Register pending targets; duplicates count once. *)
  let remaining = ref 0 in
  Array.iter
    (fun v ->
      if not (Workspace.is_pending_target ws v) then begin
        Workspace.mark_target ws v;
        incr remaining
      end)
    targets;
  let early_exit = Array.length targets > 0 in
  let tk = Cancel.ticker check ~site:"bfs" in
  let settle v =
    if Workspace.is_pending_target ws v then begin
      Workspace.clear_target ws v;
      decr remaining
    end
  in
  let n = csr.Csr.vertex_count in
  let bs = Workspace.batch_state ws in
  let cur = ref bs.Workspace.cur_vs and next = ref bs.Workspace.next_vs in
  Workspace.mark_visited ws source;
  ws.dist_int.(source) <- 0;
  ws.parent_vertex.(source) <- -1;
  ws.parent_slot.(source) <- -1;
  settle source;
  !cur.(0) <- source;
  let ncur = ref 1 in
  let level = ref 0 in
  (* Edges out of still-unexplored vertices, for the switch heuristic. *)
  let m_unexplored = ref (Csr.edge_count csr - Csr.out_degree csr source) in
  let edges = ref 0 in
  let settled = ref 1 in
  let bottom_up = ref false in
  Workspace.note_frontier ws 1;
  (* Settling the source counts as one step even when every target is
     trivially satisfied and the loop never runs: cancellation (and an
     armed fault) must be able to fire once per search at this site. *)
  Cancel.tick tk ~frontier:1;
  let finished = ref (early_exit && !remaining = 0) in
  while (not !finished) && !ncur > 0 do
    (match rev with
    | None -> ()
    | Some _ ->
      if not !bottom_up then begin
        let m_frontier = ref 0 in
        for i = 0 to !ncur - 1 do
          m_frontier := !m_frontier + Csr.out_degree csr !cur.(i)
        done;
        if !m_frontier * alpha > !m_unexplored then begin
          bottom_up := true;
          Workspace.note_dir_switch ws
        end
      end
      else if !ncur * beta < n then begin
        bottom_up := false;
        Workspace.note_dir_switch ws
      end);
    let nnext = ref 0 in
    let d = !level in
    (match (!bottom_up, rev) with
    | true, Some rev ->
      (* Bottom-up: every unvisited vertex scans its in-edges (ascending
         forward slot) and adopts the first parent found on the current
         level — the canonical one. Vertex ids ascend, so the next
         frontier comes out sorted for free. *)
      for v = 0 to n - 1 do
        if not (Workspace.visited ws v) then begin
          Cancel.tick tk ~frontier:!ncur;
          let found = ref false in
          let k = ref rev.Csr.offsets.(v) in
          let stop = rev.Csr.offsets.(v + 1) in
          while (not !found) && !k < stop do
            incr edges;
            let u = Ivec.get rev.Csr.targets !k in
            if Workspace.visited ws u && ws.dist_int.(u) = d then begin
              found := true;
              Workspace.mark_visited ws v;
              ws.dist_int.(v) <- d + 1;
              ws.parent_vertex.(v) <- u;
              ws.parent_slot.(v) <- Ivec.get rev.Csr.edge_rows !k;
              m_unexplored := !m_unexplored - Csr.out_degree csr v;
              settle v;
              !next.(!nnext) <- v;
              incr nnext
            end;
            incr k
          done
        end
      done
    | _ ->
      (* Top-down over the ascending frontier; sort what it discovered. *)
      for i = 0 to !ncur - 1 do
        let u = !cur.(i) in
        Cancel.tick tk ~frontier:!ncur;
        Csr.iter_out csr u (fun ~slot ~target ->
            incr edges;
            if not (Workspace.visited ws target) then begin
              Workspace.mark_visited ws target;
              ws.dist_int.(target) <- d + 1;
              ws.parent_vertex.(target) <- u;
              ws.parent_slot.(target) <- slot;
              m_unexplored := !m_unexplored - Csr.out_degree csr target;
              settle target;
              !next.(!nnext) <- target;
              incr nnext
            end)
      done;
      Workspace.sort_prefix !next !nnext);
    settled := !settled + !nnext;
    let t = !cur in
    cur := !next;
    next := t;
    ncur := !nnext;
    incr level;
    Workspace.note_frontier ws !nnext;
    if early_exit && !remaining = 0 then finished := true
  done;
  ws.Workspace.counters.Workspace.settled <-
    ws.Workspace.counters.Workspace.settled + !settled;
  ws.Workspace.counters.Workspace.edges_scanned <-
    ws.Workspace.counters.Workspace.edges_scanned + !edges;
  Cancel.flush tk

(* Bidirectional, level-synchronous BFS for the hop count alone.

   One side labels forward from [source] over [csr], the other backward
   from [dest] over the reverse CSR; each step expands, by one whole
   level, the side whose frontier has fewer out-edges (in its own CSR).
   Let r_f and r_b be the two radii: the forward side has labelled
   exactly the vertices within r_f hops of [source], the backward side
   those within r_b hops of [dest].

   Exactness. Before a level is expanded no vertex carries both labels,
   so the distance D exceeds r_f + r_b: on a shortest path, the vertex
   min(r_f, D) hops from [source] would be labelled by both sides
   otherwise. Say the forward side expands (the backward case is the
   mirror image) and labels v at r_f + 1 while v already carries a
   backward label at some d_b <= r_b. That closes a walk of
   r_f + 1 + d_b hops, so D <= r_f + 1 + d_b <= r_f + 1 + r_b <= D:
   every meet during the level gives D = r_f + 1 + r_b, and the search
   stops at the first one. If D = r_f + r_b + 1, the vertex r_f + 1 hops
   along a shortest path meets during this level, so none is missed.
   When a frontier empties, that side has labelled its whole reachable
   set without meeting the other side, which started at its own root:
   the pair is unreachable.

   No parent tree is kept and nothing is sorted: the kernel answers the
   cost-only queries that never look at a path. *)

type side = {
  g : Csr.t;
  stamp : int array;  (* label epoch per vertex *)
  queue : int array;  (* labelled vertices in discovery order *)
  mutable lo : int;  (* the frontier is queue.(lo .. hi - 1) *)
  mutable hi : int;
  mutable out_edges : int;  (* out-edges (in [g]) of the frontier *)
  mutable radius : int;
}

let side g stamp queue root ~epoch =
  stamp.(root) <- epoch;
  queue.(0) <- root;
  { g; stamp; queue; lo = 0; hi = 1; out_edges = Csr.out_degree g root;
    radius = 0 }

(* Expand [me] by one level. Returns the distance at the first meet with
   [other], or -1 when the level completes without one. *)
let expand ~tk ~epoch ~edges (me : side) (other : side) =
  let lo = me.lo and hi = me.hi in
  let offsets = me.g.Csr.offsets and targets = me.g.Csr.targets in
  let tail = ref hi and next_edges = ref 0 and meet = ref (-1) in
  let i = ref lo in
  while !meet < 0 && !i < hi do
    let u = me.queue.(!i) in
    Cancel.tick tk ~frontier:(hi - lo);
    let k = ref offsets.(u) and stop = offsets.(u + 1) in
    while !meet < 0 && !k < stop do
      incr edges;
      let v = Ivec.get targets !k in
      if me.stamp.(v) <> epoch then
        if other.stamp.(v) = epoch then meet := me.radius + 1 + other.radius
        else begin
          me.stamp.(v) <- epoch;
          me.queue.(!tail) <- v;
          incr tail;
          next_edges := !next_edges + offsets.(v + 1) - offsets.(v)
        end;
      incr k
    done;
    incr i
  done;
  me.lo <- hi;
  me.hi <- !tail;
  me.out_edges <- !next_edges;
  me.radius <- me.radius + 1;
  !meet

let distance ?(check = Cancel.none) (ws : Workspace.t) (csr : Csr.t) ~rev
    ~source ~dest =
  Workspace.next_epoch ws;
  let epoch = ws.Workspace.epoch in
  let b = Workspace.bidir_state ws in
  let tk = Cancel.ticker check ~site:"bfs" in
  let fwd = side csr ws.Workspace.stamp b.Workspace.fwd_queue source ~epoch in
  let back = side rev b.Workspace.back_stamp b.Workspace.back_queue dest ~epoch in
  let edges = ref 0 in
  Workspace.note_frontier ws 1;
  (* one step for the roots, so cancellation (and an armed fault) can
     fire once per search even when source = dest *)
  Cancel.tick tk ~frontier:1;
  let result = ref (if source = dest then 0 else -1) in
  while !result < 0 && fwd.lo < fwd.hi && back.lo < back.hi do
    let me, other =
      if fwd.out_edges <= back.out_edges then (fwd, back) else (back, fwd)
    in
    result := expand ~tk ~epoch ~edges me other;
    Workspace.note_frontier ws (me.hi - me.lo)
  done;
  let c = ws.Workspace.counters in
  c.Workspace.settled <-
    (c.Workspace.settled + if source = dest then 1 else fwd.hi + back.hi);
  c.Workspace.edges_scanned <- c.Workspace.edges_scanned + !edges;
  Cancel.flush tk;
  if !result < 0 then None else Some !result
