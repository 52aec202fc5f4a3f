(** The graph runtime: the counterpart of the paper's external C++ library
    (§3.2), invoked by the executor's graph-select/graph-join operators.

    Given the edge table's source/destination columns it (1) dictionary-
    encodes the vertices into the dense domain [H = {0..|V|-1}], (2) builds
    a CSR, and (3) answers batches of ⟨source, destination⟩ pairs with
    reachability, shortest-path cost and one shortest path per pair.
    Multiple batches may run against the same built graph — the
    amortisation that §4's second experiment measures. *)

exception Weight_error of string
(** Raised when a weight expression evaluates to NULL or to a value not
    strictly greater than zero (§2: "Its value must always be strictly
    greater than 0, otherwise a runtime exception is raised"). *)

(** Wall-clock breakdown of {!build} (same [Unix.gettimeofday] source as
    the executor's operator timings, so [EXPLAIN ANALYZE] phase times are
    directly comparable), for the build-dominates ablation. *)
type build_stats = {
  dict_seconds : float;
  encode_seconds : float;
  csr_seconds : float;
  total_seconds : float;
  vertex_count : int;
  edge_count : int;
}

type t

(** [build ~src ~dst] materialises the graph of an edge table whose source
    and destination columns are [src] and [dst] (equal lengths; rows with a
    NULL endpoint are skipped as they denote no edge). *)
val build : src:Storage.Column.t -> dst:Storage.Column.t -> t

(** [build_multi ~src ~dst] — composite vertex keys (§2's multi-attribute
    addressing): each endpoint is a tuple of columns of equal width.
    Pairs are then queried with {!Storage.Value.Tuple} endpoints. *)
val build_multi :
  src:Storage.Column.t list -> dst:Storage.Column.t list -> t

val stats : t -> build_stats
val vertex_count : t -> int
val edge_count : t -> int
val dict : t -> Vertex_dict.t

(** [prepare_bidir t] builds (once) and caches the reverse CSR, enabling
    direction-optimizing traversal for every subsequent batch. Costs one
    O(V + E) pass — worth it exactly when the graph will be traversed more
    than once, so the executor calls it when a graph enters its cache. *)
val prepare_bidir : t -> unit

val has_bidir : t -> bool

(** [pool_stats t] — [(hits, misses)] of the workspace pool every batch
    draws its search workspaces from (one per worker): a hit reuses a
    workspace released by an earlier batch, a miss allocates a fresh one.
    Batches never share a workspace, so concurrent {!run_pairs} calls on
    one runtime (sessions sharing a cached graph) are safe. *)
val pool_stats : t -> int * int

(** [traversal_counters t] — a snapshot of the cumulative traversal
    counters (searches, settled vertices, peak frontier, edges scanned)
    accumulated by every batch run against this graph. Parallel batches
    fold their per-worker counters in deterministically (on the
    coordinator, in worker-index order, after every worker has joined)
    before {!run_pairs} returns, so before/after snapshots delimit one
    batch exactly and the totals are conserved and reproducible for any
    worker count. *)
val traversal_counters : t -> Workspace.counters

(** Work-stealing scheduler observability (parallel batches only).
    [sc_tasks]/[sc_steals]/[sc_splits] accumulate across batches
    (delta-friendly, like {!traversal_counters}); [sc_workers] and
    [sc_imbalance_pct] (100·(max−min)/max over per-worker task counts)
    describe the most recent parallel batch. *)
type sched_counters = {
  sc_tasks : int;
  sc_steals : int;
  sc_splits : int;
  sc_workers : int;
  sc_imbalance_pct : int;
}

val sched_counters : t -> sched_counters

(** Edge weights validated and re-aligned to one runtime's CSR slots —
    see {!align_weights}. *)
type aligned

(** Edge weights, indexed by *edge-table row* (the runtime re-aligns them
    to CSR slots internally). [Unweighted] is the paper's
    [CHEAPEST SUM(1)]: BFS, cost = hop count. [Aligned] passes weights
    already through {!align_weights} for this runtime, so a cached graph
    can reuse them across batches. *)
type weights =
  | Unweighted
  | Int_weights of int array
  | Float_weights of float array
  | Aligned of aligned

(** [align_weights t w] validates [w] over every edge that made it into
    [t]'s graph and re-aligns it to CSR slots — the step {!run_pairs}
    takes before any traversal. An [Aligned] value is returned as is when
    it was aligned for [t]. Raises {!Weight_error} on an invalid weight,
    [Invalid_argument] for weights aligned for another runtime. *)
val align_weights : t -> weights -> aligned

(** Traversal engine selection for {!run_pairs}. [`Auto] (the default)
    answers unweighted batches with more than one distinct source through
    the bit-parallel {!Msbfs} engine (63 sources per sweep) and everything
    else per source; [`Scalar] forces one scalar search per source;
    [`Batched] forces MS-BFS for unweighted batches regardless of size.
    Weighted batches always run per-source Dijkstra. Every engine settles
    the same canonical shortest-path tree, so outcomes are identical. *)
type engine = [ `Auto | `Scalar | `Batched ]

type outcome =
  | Unreachable
      (** includes the case where an endpoint is not a vertex of the graph *)
  | Reached of { cost : Storage.Value.t; edge_rows : int array }
      (** [cost] is [Int] (unweighted / int weights) or [Float];
          [edge_rows] is one shortest path as edge-table rows in
          source→destination order — empty when source = destination,
          and always [[||]] from a [~paths:false] batch. *)

(** [run_pairs t ~weights ~heap ~domains ~pairs] answers every pair.
    Pairs sharing a source value share one traversal; identical
    ⟨source, destination⟩ pairs are answered once and fanned back out.
    [heap] picks the
    Dijkstra queue for integer weights (default [Radix], the paper's
    choice); it is ignored for BFS and float weights.

    [domains] (default 1) runs the traversals through the work-stealing
    scheduler ({!Sched}) — the parallelism the paper's §6 suggests. The
    CSR is shared read-only; every worker owns a deque of task ranges
    over a fixed partition (unweighted: source groups sorted by vertex
    id and cut into contiguous balanced MS-BFS waves, run by the
    lane-retiring kernel; weighted: one Dijkstra group per task) and a
    private workspace from the runtime's pool, steals from siblings
    when its own deque drains, and results land in disjoint slots — so
    output is byte-identical to the sequential run and workspace
    counters are identical for any [domains >= 2]. The worker count is
    clamped to the machine's usable cores (oversubscribing domains
    turns minor GCs into cross-domain synchronisation);
    [oversubscribe] (default false) lifts that clamp for tests that
    must exercise multi-worker stealing on small machines.

    [engine] selects the unweighted traversal engine (see {!engine});
    the default [`Auto] batches multi-source workloads through MS-BFS.

    [paths] (default [true]) says whether the caller reads
    [edge_rows]. With [~paths:false] no path is extracted and every
    [Reached] carries [edge_rows = [||]]. The executor derives it from
    the plan (a CHEAPEST without a path column, or a bare REACHES); it is
    not a user setting. When, in addition, the weights are [Unweighted],
    [engine] is [`Auto], the reverse CSR is cached ({!prepare_bidir}) and
    the deduplicated batch is one source with one pending destination,
    the pair is answered by the meet-in-the-middle {!Bfs.distance}
    instead of a one-sided sweep, and [note] (default: ignore) receives
    [("search", "bidir")]. Costs are identical either way; every other
    batch (path output, forced engines, several destinations or sources)
    runs exactly as with [~paths:true], minus the path extraction.

    [check] (default {!Cancel.none}) is forwarded into every kernel so a
    governor can cancel or budget the batch; with [domains > 1] the same
    closure is shared by all workers and a raise stops the others at
    their next task boundary, resurfacing after the join.

    Raises {!Weight_error} on invalid weights (checked for every edge that
    participates in the graph, before any traversal, by
    {!align_weights}). *)
val run_pairs :
  t ->
  weights:weights ->
  ?heap:Dijkstra.heap_kind ->
  ?domains:int ->
  ?check:Cancel.checkpoint ->
  ?engine:engine ->
  ?oversubscribe:bool ->
  ?paths:bool ->
  ?note:(string -> string -> unit) ->
  pairs:(Storage.Value.t * Storage.Value.t) array ->
  unit ->
  outcome array

(** [reachable t ~pairs] — reachability only: {!run_pairs} with
    [~paths:false], so no path is extracted (the paper's runtime "still
    performs a BFS … discarding the computed shortest paths") and a
    single pair on a cached graph takes the bidirectional kernel.
    [domains] and [note] as in {!run_pairs}. *)
val reachable :
  ?check:Cancel.checkpoint ->
  ?domains:int ->
  ?note:(string -> string -> unit) ->
  t ->
  pairs:(Storage.Value.t * Storage.Value.t) array ->
  bool array
