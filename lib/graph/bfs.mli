(** Breadth-first search for unweighted shortest paths (§3.2).

    Also used to answer bare reachability: the paper notes that when a
    query only tests the REACHES predicate, "the library still performs a
    BFS over the source and destination vertices, discarding the computed
    shortest paths".

    The search is level-synchronous with every frontier kept in ascending
    vertex id, so the settled shortest-path tree is *canonical*: each
    vertex's parent edge is the minimal forward CSR slot among all its
    shortest-path parents. The bottom-up steps and the bit-parallel
    {!Msbfs} engine settle the same canonical tree, making every engine's
    results byte-identical. *)

(** Direction-switch thresholds from Beamer et al.; shared with {!Msbfs}. *)

val default_alpha : int
val default_beta : int

(** [run ?check ?rev ?alpha ?beta ws csr ~source ~targets] searches from
    [source] until every vertex in [targets] has been discovered (or the
    whole component is exhausted). After the call, [Workspace.visited ws v]
    tells reachability and [ws.dist_int.(v)] is the hop count for visited
    [v]; [ws.parent_vertex]/[ws.parent_slot] encode the canonical
    shortest-path tree.

    [targets = [||]] means "no early exit": traverse the full component.

    [rev] enables direction-optimizing traversal (Beamer et al.): with the
    reverse CSR available, a level switches bottom-up when the frontier's
    out-edges exceed a 1/[alpha] fraction of the unexplored edges
    (default 14) and back top-down when the frontier holds fewer than
     1/[beta] of the vertices (default 24). Each change bumps the
    workspace's [dir_switches] counter. Results are identical with or
    without [rev].

    [check] (site "bfs") fires every {!Cancel.default_interval} processed
    vertices with the frontier size; raising from it aborts the search,
    leaving the workspace reusable (epoch-stamped state). *)
val run :
  ?check:Cancel.checkpoint ->
  ?rev:Csr.t ->
  ?alpha:int ->
  ?beta:int ->
  Workspace.t ->
  Csr.t ->
  source:int ->
  targets:int array ->
  unit

(** [distance ?check ws csr ~rev ~source ~dest] — the hop count from
    [source] to [dest], or [None] when [dest] is unreachable; no path.
    [rev] must be [Csr.reverse csr].

    A bidirectional, level-synchronous BFS: one side searches forward
    from [source] over [csr], the other backward from [dest] over [rev].
    Each step expands, by one whole level, the side whose frontier has
    fewer out-edges, and the search stops at the first vertex labelled by
    both. That meet is exact: before a level no vertex carries both
    labels, so the distance exceeds r_f + r_b (the two radii), and a meet
    while expanding one level closes a walk of r_f + 1 + r_b hops. An
    emptied frontier means unreachable.

    The workspace's per-vertex state is left undefined for the caller
    (no [dist_int], no parent tree). Counters and [check] (site "bfs",
    fired once for the roots and then per expanded vertex) behave as in
    {!run}; raising from [check] leaves the workspace reusable. *)
val distance :
  ?check:Cancel.checkpoint ->
  Workspace.t ->
  Csr.t ->
  rev:Csr.t ->
  source:int ->
  dest:int ->
  int option
