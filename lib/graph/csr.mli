(** Compressed Sparse Row graph representation (§3.2 of the paper).

    The edge list is sorted by source vertex and a prefix sum over the
    per-source counts yields the offset array: the outgoing edges of vertex
    [v] live at positions [offsets.(v) .. offsets.(v+1) - 1] of [targets].
    Each CSR slot also remembers the row of the original edge table it came
    from, so a shortest path can be reported as a sequence of edge-table
    rows — the nested-table representation of §3.3.

    The per-slot payload arrays are {!Ivec}s: plain words for small
    graphs, two 30-bit payloads per word above {!auto_compact_threshold}
    edges — the sizing that lets an SF100-class graph (tens of millions
    of edges, plus its reverse) stay resident. Offsets remain a plain
    [int array] (length [V+1], cheap next to the slot arrays, and hot in
    a different pattern). *)

type t = {
  vertex_count : int;
  offsets : int array;  (** length [vertex_count + 1] *)
  targets : Ivec.t;  (** destination vertex id per CSR slot *)
  edge_rows : Ivec.t;  (** original edge-table row per CSR slot *)
}

(** [build ~vertex_count ~src ~dst] builds the CSR by counting sort on the
    source ids (O(V + E)). Slots with [src.(i) < 0] or [dst.(i) < 0]
    (non-vertex or NULL endpoints) are skipped. Raises [Invalid_argument]
    if the two arrays have different lengths. The slot arrays compact
    automatically at {!auto_compact_threshold} edges. *)
val build : vertex_count:int -> src:int array -> dst:int array -> t

(** [build_repr ~compact] — same as {!build} with the representation
    forced: [~compact:true] packs regardless of size (equivalence tests,
    memory experiments), [~compact:false] keeps plain words. A forced
    pack silently falls back to words if a payload exceeds
    {!Ivec.max_packed}. *)
val build_repr :
  compact:bool -> vertex_count:int -> src:int array -> dst:int array -> t

(** Edge count at and above which {!build} packs the slot arrays. *)
val auto_compact_threshold : int

(** [compacted t] — the slot arrays are in the packed representation. *)
val compacted : t -> bool

(** [memory_words t] — heap words held by offsets + slot payloads (the
    quantity the packed representation halves asymptotically). *)
val memory_words : t -> int

(** [reverse t] — the reverse adjacency of [t], built by the same
    count/prefix/scatter passes over the forward slots. In the result,
    [targets] holds the *source* vertex of each mirrored edge and
    [edge_rows] holds the mirrored edge's **forward CSR slot** (not its
    edge-table row): a bottom-up traversal that discovers [v] through a
    reverse slot can store that payload directly in
    [Workspace.parent_slot] and path extraction through the forward CSR
    keeps working unchanged. Every in-edge list is sorted by forward slot,
    so a first-match scan yields the canonical (minimal forward slot)
    parent. Inherits [t]'s representation. *)
val reverse : t -> t

val edge_count : t -> int

(** [out_degree t v]. *)
val out_degree : t -> int -> int

(** [iter_out t v f] calls [f ~slot ~target] for every outgoing edge of
    [v]; [slot] indexes [targets]/[edge_rows]. *)
val iter_out : t -> int -> (slot:int -> target:int -> unit) -> unit

(** Timing breakdown of a build, for the CSR-cost ablation. *)
type timings = {
  total : float;
  count_phase : float;  (** counting pass *)
  prefix_phase : float;  (** prefix sum *)
  scatter_phase : float;  (** scatter pass (includes sealing the representation) *)
}

(** [build_timed] — same as {!build}, also reporting wall-clock timings. *)
val build_timed : vertex_count:int -> src:int array -> dst:int array -> t * timings
