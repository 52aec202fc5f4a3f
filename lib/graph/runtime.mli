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

(** How {!prepare_bidir} obtained the reverse CSR: [Built] by
    {!Csr.reverse}, or [Derived] by {!Csr.extend_reverse} from the
    reverse of the graph an {!extend} started from. *)
type reverse_origin = Built | Derived

(** Wall-clock breakdown of {!build} (same [Unix.gettimeofday] source as
    the executor's operator timings, so [EXPLAIN ANALYZE] phase times are
    directly comparable), for the build-dominates ablation. The reverse
    phase is filled in by {!prepare_bidir}: until then [reverse_seconds]
    is [0.] and [reverse] is [None]. [total_seconds] sums every phase. *)
type build_stats = {
  dict_seconds : float;
  encode_seconds : float;
  csr_seconds : float;
  reverse_seconds : float;
  reverse : reverse_origin option;
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

(** [extend t ~src ~dst ~from] — the graph of an edge table whose first
    [from] rows are the ones [t] was built from (single-column keys:
    the caller checks that prefix), extended by rows [from..] — or [None]
    when a fresh {!build} would not hand out the same dictionary ids.
    That holds when every appended non-NULL source key already has an id
    below the count of ids the build handed out while scanning the
    source column, and every appended non-NULL destination key already
    has an id; "no new vertex key" is not enough, because a key seen
    only as a destination gets a source id once it appears as a source
    (DESIGN.md §6). The result shares [t]'s dictionary, encodes only the
    new rows, merges them with {!Csr.extend} and starts with a fresh
    workspace pool; its {!stats} report [dict_seconds = 0]. It has no
    reverse CSR yet: when [t] has one, the result keeps it with [t]'s
    forward offsets and the appended ids (not [t]'s forward slot
    arrays), so {!prepare_bidir} derives its reverse from [t]'s instead
    of rebuilding it. Until then that keeps [t]'s reverse alive. *)
val extend :
  t -> src:Storage.Column.t -> dst:Storage.Column.t -> from:int -> t option

val stats : t -> build_stats
val vertex_count : t -> int
val edge_count : t -> int
val dict : t -> Vertex_dict.t

(** [prepare_bidir t] obtains (once) and caches the reverse CSR, enabling
    direction-optimizing traversal for every subsequent batch: derived by
    {!Csr.extend_reverse} when {!extend} left the old graph's reverse
    pending, built by {!Csr.reverse} otherwise. Costs one O(V + E) pass —
    worth it exactly when the graph will be traversed more than once, so
    the executor calls it when a graph enters its cache. Its time and
    origin land in {!stats}, under a [reverse] span of its own
    [graph_build] span. Not thread-safe: call it before the runtime is
    shared. *)
val prepare_bidir : t -> unit

val has_bidir : t -> bool

(** One batch's own counts, added into the record its caller passes to
    {!run_pairs} as the batch joins: [trav] sums every worker's workspace
    counters (peak frontier by max), [tasks]/[steals]/[splits] the
    scheduler's work (none for the bidirectional single pair), and
    [pool_hits]/[pool_misses] the workspaces taken from the runtime's
    pool. [workers] (1 for a serial batch) and [imbalance_pct]
    (100·(max−min)/max over per-worker task counts) describe the last
    scheduled batch added. No batch writes a record it was not given, so
    sessions sharing a cached runtime each read only their own work. *)
type counts = {
  trav : Workspace.counters;
  mutable tasks : int;
  mutable steals : int;
  mutable splits : int;
  mutable workers : int;
  mutable imbalance_pct : int;
  mutable pool_hits : int;
  mutable pool_misses : int;
}

(** [fresh_counts ()] — all zero. *)
val fresh_counts : unit -> counts

(** Workers and imbalance of the most recent scheduled batch on this
    runtime, whoever ran it (0 before any): a gauge for dashboards. A
    statement reads its own batches from {!counts}. *)
type sched_counters = { sc_workers : int; sc_imbalance_pct : int }

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
    else per source (a single pair on a graph with its reverse CSR by a
    bidirectional search, see {!run_pairs}); [`Scalar] forces one
    one-sided scalar search per source; [`Batched] forces MS-BFS for
    unweighted batches regardless of size. Weighted batches always run
    per-source Dijkstra. Every engine settles the same canonical
    shortest-path tree, so outcomes are identical. *)
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

    Every batch runs through the work-stealing scheduler ({!Sched}) —
    the parallelism the paper's §6 suggests — with up to [domains]
    (default 1) workers; one worker runs inline on the calling domain.
    The CSR is shared read-only; every worker owns a deque of task
    ranges over a fixed partition (unweighted: source groups sorted by
    vertex id and cut into contiguous balanced {!Msbfs} waves; otherwise
    one scalar BFS or Dijkstra group per task) and a private workspace
    from the runtime's pool, steals from siblings when its own deque
    drains, and results land in disjoint slots — so output is
    byte-identical to a per-source scalar run and workspace counters
    are identical for any domain count. The worker count is clamped to
    the task count and to the machine's usable cores (oversubscribing
    domains turns minor GCs into cross-domain synchronisation);
    [oversubscribe] (default false) lifts the core clamp for tests that
    must exercise multi-worker stealing on small machines.

    [engine] selects the traversal engine (see {!engine}); the default
    [`Auto] batches unweighted multi-source workloads through MS-BFS.

    [paths] (default [true]) says whether the caller reads
    [edge_rows]. With [~paths:false] no path is extracted and every
    [Reached] carries [edge_rows = [||]]. The executor derives it from
    the plan (a CHEAPEST without a path column, or a bare REACHES); it is
    not a user setting.

    When [engine] is [`Auto], the reverse CSR is cached
    ({!prepare_bidir}) and the deduplicated batch is one source with one
    pending destination, the pair meets in the middle instead of going
    through the scheduler: with [Unweighted] weights and [~paths:false]
    by {!Bfs.distance}; with integer weights and the [Radix] heap, path
    or not, by {!Dijkstra.bidir_int}. [note] (default: ignore) then
    receives [("search", "bidir")]. Outcomes are identical either way,
    paths included (the canonical tree of DESIGN.md §9); every other
    batch (forced engines, the binary heap, float weights, several
    destinations or sources, or an unweighted path) runs through the
    scheduler, minus the path extraction under [~paths:false].

    [check] (default {!Cancel.none}) is forwarded into every kernel so a
    governor can cancel or budget the batch; with several workers the
    same closure is shared by all of them and a raise stops the others
    at their next task boundary, resurfacing after the join.

    [counts] (default: a fresh record the caller never sees) receives
    this batch's traversal, scheduler and pool counts when the batch
    joins — the same on every domain count (see {!counts}).

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
  ?counts:counts ->
  pairs:(Storage.Value.t * Storage.Value.t) array ->
  unit ->
  outcome array

(** [reachable t ~pairs] — reachability only: {!run_pairs} with
    [~paths:false], so no path is extracted (the paper's runtime "still
    performs a BFS … discarding the computed shortest paths") and a
    single pair on a cached graph takes the bidirectional kernel.
    [domains], [note] and [counts] as in {!run_pairs}. *)
val reachable :
  ?check:Cancel.checkpoint ->
  ?domains:int ->
  ?note:(string -> string -> unit) ->
  ?counts:counts ->
  t ->
  pairs:(Storage.Value.t * Storage.Value.t) array ->
  bool array
