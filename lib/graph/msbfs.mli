(** Bit-parallel multi-source BFS (Then et al., VLDB 2015).

    Runs up to {!max_lanes} BFS searches as *lanes* of one wave: per-vertex
    int bitmasks track which lanes have reached each vertex, so one sweep
    over the CSR advances every lane at once. The batched pair workload of
    §4 (one graph, many ⟨source, destination⟩ pairs) drops from one
    traversal per source to one per ⌈sources / 63⌉.

    Parents are canonical — the minimal forward CSR slot among each lane's
    shortest-path parents — so distances and extracted paths are
    byte-identical to per-source {!Bfs.run}. *)

(** Maximum sources per wave: 63 lane bits fit OCaml's tagged int. *)
val max_lanes : int

(** [run ?check ?rev ?alpha ?beta ws csr ~sources ~targets] traverses from
    every vertex of [sources] at once; lane [i] is the search rooted at
    [sources.(i)]. [sources] must hold 1 to {!max_lanes} *distinct*
    vertices (raises [Invalid_argument] on a bad lane count).

    [targets] lists the pending destinations as [(lane, dst)] pairs. A
    lane *retires* once all its destinations are delivered: frontier
    vertices carrying only retired lanes are skipped, edges untouched,
    and the sweep stops mid-level the moment the last pending
    destination lands. A lane targeting only its own source is
    satisfied immediately, so an empty [targets] traverses nothing.
    Discovery order is unaffected, so parents stay canonical; traversal
    counters (settled, edges scanned) depend only on [sources] and
    [targets].

    [rev] enables the direction-optimizing bottom-up step, same
    [alpha]/[beta] heuristics as {!Bfs.run}. [check] cancels
    cooperatively at site ["bfs"], at least once per wave.

    Results live in the workspace's batch scratch until the next wave (or
    scalar BFS) reuses it; read them back with {!dist} and
    {!edge_rows}. *)
val run :
  ?check:Cancel.checkpoint ->
  ?rev:Csr.t ->
  ?alpha:int ->
  ?beta:int ->
  Workspace.t ->
  Csr.t ->
  sources:int array ->
  targets:(int * int) array ->
  unit

(** [dist ws ~lane ~source ~dst] — hop count from [lane]'s source to
    [dst] settled by the last {!run}, or [None] if unreached. [source]
    must be the vertex that seeded [lane]. *)
val dist : Workspace.t -> lane:int -> source:int -> dst:int -> int option

(** [edge_rows ws csr ~lane ~source ~dst] — edge-table rows of the
    canonical shortest path from [lane]'s source to [dst], in path order.
    Raises [Invalid_argument] if the last wave did not reach [dst] on
    [lane]. *)
val edge_rows :
  Workspace.t -> Csr.t -> lane:int -> source:int -> dst:int -> int array
