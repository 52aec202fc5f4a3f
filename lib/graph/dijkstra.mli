(** Dijkstra's algorithm for weighted shortest paths (§3.2).

    Integer weights run on the radix heap (the paper's "Dijkstra algorithm
    combined with the Radix Queue") or, for the ablation, on a binary heap;
    floating-point weights always use the binary heap. Both variants use
    lazy deletion: stale heap entries are skipped on extraction, which is
    what makes the radix heap's monotonicity contract hold. *)

type heap_kind = Radix | Binary

(** [run_int ?check ws csr ~weights ~source ~targets ~heap] — weighted
    search with per-CSR-slot integer weights (all [> 0]; checked by the
    caller). Early exit once every target is *settled*. After the call,
    visited vertices carry their distance in [ws.dist_int] and the
    shortest-path tree in [ws.parent_vertex]/[ws.parent_slot].
    [targets = [||]] disables early exit.

    The tree is canonical: a settled vertex's parent is the minimal
    forward CSR slot among all its tight in-edges (DESIGN.md §9), so both
    heaps return identical paths.

    [check] (site "dijkstra") fires every {!Cancel.default_interval} heap
    extractions with the heap size as the frontier; raising from it aborts
    the search, leaving the workspace reusable. *)
val run_int :
  ?check:Cancel.checkpoint ->
  Workspace.t ->
  Csr.t ->
  weights:int array ->
  source:int ->
  targets:int array ->
  heap:heap_kind ->
  unit

(** [run_float] — as {!run_int} with [float] weights and [ws.dist_float]. *)
val run_float :
  ?check:Cancel.checkpoint ->
  Workspace.t ->
  Csr.t ->
  weights:float array ->
  source:int ->
  targets:int array ->
  unit

(** [bidir_int ?check ws csr ~rev ~weights ~source ~dest ~paths] — the
    cost from [source] to [dest] under {!run_int}'s weights, or [None]
    when [dest] is unreachable. [rev] must be [Csr.reverse csr].

    A bidirectional search, one radix heap per side: forward from
    [source] over [csr], backward from [dest] over [rev], reading reverse
    slot [k]'s weight as [weights.(rev.edge_rows.(k))]. It stops once the
    cheapest meet is no more than the sum of the two heaps' smallest
    keys. With [~paths:true] the forward side then continues, pruned by
    the backward labels, until [dest] settles; [ws] afterwards holds
    {!run_int}'s canonical tree for [dest] ({!Path_tree.edge_rows} reads
    it), byte for byte. With [~paths:false] the per-vertex state is left
    undefined for the caller. The exactness argument is in the source.

    Counters and [check] (site "dijkstra", fired once for the roots and
    then per heap extraction on either side) behave as in {!run_int};
    raising from [check] leaves the workspace reusable. *)
val bidir_int :
  ?check:Cancel.checkpoint ->
  Workspace.t ->
  Csr.t ->
  rev:Csr.t ->
  weights:int array ->
  source:int ->
  dest:int ->
  paths:bool ->
  int option
