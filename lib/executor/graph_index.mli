(** Graph indices — the §6 "future work" of the paper, implemented.

    A graph index pre-builds and caches the dictionary+CSR of a base edge
    table for a given (source, destination) column pair. When a query's
    REACHES predicate matches an enabled index, the executor reuses the
    cached graph instead of rebuilding it, removing the dominating
    construction cost for single-pair queries. Entries are validated
    against the catalog's per-table version, so updates to the underlying
    table invalidate the index automatically; when the change only
    appended edge rows (or left the key columns alone), the stale graph
    is extended instead of rebuilt — see {!obtain}. *)

type key = { table : string; src : int list; dst : int list }
(** Base-table name (normalised) + source/destination column positions
    (lists for composite keys). *)

type t

val create : unit -> t

(** [enable t key] — start maintaining an index for [key]. *)
val enable : t -> key -> unit

(** [disable t key] — drop the index (cached graph included). *)
val disable : t -> key -> unit

val is_enabled : t -> key -> bool

(** [lookup t key ~version] — the cached graph if fresh at [version]. A
    stale entry is dropped. *)
val lookup : t -> key -> version:int -> (Graph.Runtime.t * Storage.Table.t) option

(** How {!obtain} came by its graph. [Extended n]: the stale entry's
    graph plus the [n] rows appended since (0 when only non-key columns
    changed). *)
type source = Hit | Extended of int | Built

(** [obtain ?check t key ~version ~edges] — the graph of [key] at
    [version] and the edge table it was built from: the cached one when
    fresh ([Hit]); otherwise [edges ()] is materialised and the graph is
    extended or built, given its reverse CSR and cached (unless [key] was
    disabled meanwhile). [check] fires once, at site ["graph_build"],
    before either.

    A stale entry is extended when that is provably the graph a fresh
    build would make (DESIGN.md §6): the key is one source and one
    destination column; the table has at least the rows the entry was
    built from, and its key columns equal the entry's on those rows
    (compared unboxed, or not at all when they are the same column);
    and {!Graph.Runtime.extend} finds every appended key already holding
    the id a fresh build would give it. An extended graph's reverse CSR
    is derived from the stale entry's ({!Graph.Runtime.prepare_bidir}).
    Anything else is [Built] from scratch. Both count as a miss in
    {!misses}. *)
val obtain :
  ?check:Graph.Cancel.checkpoint ->
  t ->
  key ->
  version:int ->
  edges:(unit -> Storage.Table.t) ->
  Graph.Runtime.t * Storage.Table.t * source

(** {2 Weight memo}

    A weighted [CHEAPEST SUM] over a cached graph needs its weight
    expression evaluated over the edge table, validated and aligned to
    CSR slots. That vector depends only on the expression and the edge
    table version, so the entry holding the graph memoizes it: up to
    {!max_memo_weights} vectors per entry, keyed by (expression under
    {!Relalg.Lplan.expr_equal}, cost type), most recently used first.
    Only expressions that read nothing but the current edge row are kept
    (constants, columns, operators, CAST, CASE, builtins, IS NULL, IN
    lists, LIKE): a subquery reads tables the entry's version does not
    cover, and an outer column changes with the enclosing row. *)

val max_memo_weights : int

(** [find_weights t key runtime expr ~cost_ty] — the memoized vector for
    [expr] at [cost_ty] on the entry of [key] that still holds [runtime];
    [None] when absent, when [runtime] is no longer cached, or when
    [expr] may not be memoized. *)
val find_weights :
  t ->
  key ->
  Graph.Runtime.t ->
  Relalg.Lplan.expr ->
  cost_ty:Storage.Dtype.t ->
  Graph.Runtime.aligned option

(** [store_weights t key runtime expr ~cost_ty aligned] — memoize a vector
    computed (outside the lock) for [runtime]; dropped when the entry no
    longer holds [runtime] (the table moved on meanwhile) or [expr] may
    not be memoized. Evicts the least recently used vector past the
    bound. *)
val store_weights :
  t ->
  key ->
  Graph.Runtime.t ->
  Relalg.Lplan.expr ->
  cost_ty:Storage.Dtype.t ->
  Graph.Runtime.aligned ->
  unit

(** [keys t] — enabled keys, sorted by table name. *)
val keys : t -> key list

(** Lifetime cache-efficiency counters: {!lookup} outcomes. A stale entry
    (table changed under the index) counts as a miss. *)

val hits : t -> int
val misses : t -> int

(** [warm t ~catalog] — {!obtain} the cached graph of every enabled key
    whose base table exists in [catalog], as the executor would; returns
    how many were built or extended. The
    replica's apply loop warms after catch-up so the first post-failover
    path query hits the cache. Thread-safe, like every operation here:
    one index instance is shared across the server's session threads. *)
val warm : t -> catalog:Storage.Catalog.t -> int
