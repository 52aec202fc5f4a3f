(** Reusable per-graph search scratch space.

    The batched execution model (one CSR, many ⟨source, destination⟩ pairs —
    §4's second experiment) runs one search per distinct source. Resetting
    O(V) arrays between searches would defeat the amortisation, so all
    per-vertex state is epoch-stamped: bumping the epoch invalidates
    everything in O(1).

    The bit-parallel multi-source engine ({!Msbfs}) and the
    direction-optimizing kernels additionally use a lazily-allocated
    {!batch} scratch of per-vertex lane bitmasks, frontier vertex lists
    and per-discovery parent records. *)

(** Traversal counters, fed by the kernels. A workspace accumulates
    them across the searches of one batch; the batch adds them into its
    caller's {!Runtime.counts} and gives the workspace fresh ones when it
    hands it back to the pool. *)
type counters = {
  mutable searches : int;  (** searches started (one per source, incl. MS-BFS lanes) *)
  mutable settled : int;  (** vertices settled (BFS pops / final Dijkstra pops) *)
  mutable peak_frontier : int;  (** max queue / heap size ever observed *)
  mutable edges_scanned : int;  (** CSR out-edge (or bottom-up in-edge) visits *)
  mutable waves : int;  (** batched MS-BFS waves run (<=63 sources each) *)
  mutable dir_switches : int;  (** top-down <-> bottom-up direction changes *)
}

(** Scratch for batched / direction-optimizing traversal. Per-vertex
    arrays hold lane bitmasks (bit [i] = source lane [i] of the current
    wave); [cur_vs]/[next_vs] are frontier vertex lists kept in ascending
    vertex id (which makes first-discovery parents canonical); the
    [rec_*] arrays are a growable pool of discovery records — (lane mask,
    parent vertex, forward CSR slot, level) — chained per vertex through
    [rec_head]/[rec_next], from which per-lane distances and paths are
    extracted after the wave. *)
type batch = {
  seen : int array;
  cur_mask : int array;
  next_mask : int array;
  tgt_mask : int array;
  cur_vs : int array;
  next_vs : int array;
  rec_head : int array;
  mutable rec_mask : int array;
  mutable rec_parent : int array;
  mutable rec_slot : int array;
  mutable rec_level : int array;
  mutable rec_next : int array;
  mutable rec_len : int;
}

(** Scratch for the bidirectional distance kernel ({!Bfs.distance}).
    The forward side labels through [t.stamp]; [back_stamp] holds the
    backward side's labels, stamped with the same epoch, so a new search
    resets neither. [fwd_queue]/[back_queue] hold each side's labelled
    vertices in discovery order; the last level is the frontier. *)
type bidir = {
  back_stamp : int array;
  fwd_queue : int array;
  back_queue : int array;
}

type t = {
  stamp : int array;          (** visit epoch per vertex *)
  target_stamp : int array;   (** epoch in which the vertex is a pending target *)
  dist_int : int array;
  dist_float : float array;
  parent_vertex : int array;
  parent_slot : int array;    (** forward CSR slot that discovered the vertex; -1 at source *)
  mutable epoch : int;
  mutable counters : counters;
  vertex_count : int;
  mutable batch : batch option;
  mutable radix : Radix_heap.t option;
  mutable bidir : bidir option;
}

(** [fresh_counters ()] — all zero. *)
val fresh_counters : unit -> counters

(** [create vertex_count]. *)
val create : int -> t

val vertex_count : t -> int

(** [batch_state t] — the batch scratch, allocated on first use and
    reused afterwards. Call {!reset_batch} before starting a wave. *)
val batch_state : t -> batch

(** [radix_heap t] — an empty radix heap for integer-weight Dijkstra,
    allocated on first use; later calls clear and return the same heap,
    so its bucket buffers are reused across searches. *)
val radix_heap : t -> Radix_heap.t

(** [bidir_state t] — the bidirectional scratch, allocated on first use
    and reused afterwards; epoch-stamped like the scalar state, so it
    needs no reset. *)
val bidir_state : t -> bidir

(** [reset_batch b] zeroes every mask, clears the record pool. O(V). *)
val reset_batch : batch -> unit

(** [add_record b ~v ~mask ~parent ~slot ~level] — record that the lanes
    in [mask] discovered [v] at [level] through forward CSR slot [slot]
    out of [parent]. *)
val add_record :
  batch -> v:int -> mask:int -> parent:int -> slot:int -> level:int -> unit

(** [find_record b ~v ~lane] — the record index covering [lane] at [v],
    or [-1] when lane [lane] never discovered [v]. *)
val find_record : batch -> v:int -> lane:int -> int

(** [sort_prefix a n] — in-place ascending sort of [a.(0 .. n-1)],
    allocation-free. Used by the traversal kernels to keep frontier
    vertex lists in ascending id order (the canonical-parent invariant). *)
val sort_prefix : int array -> int -> unit

(** [next_epoch t] invalidates all per-vertex state in O(1) and counts the
    start of a new search. *)
val next_epoch : t -> unit

(** [visited t v] — was [v] reached in the current epoch? *)
val visited : t -> int -> bool

(** [mark_visited t v] stamps [v] for the current epoch. *)
val mark_visited : t -> int -> unit

(** Pending-target bookkeeping for early search termination. *)

val mark_target : t -> int -> unit
val is_pending_target : t -> int -> bool
val clear_target : t -> int -> unit

(** Counter plumbing. *)

val counters : t -> counters

val note_settled : t -> unit

(** [note_frontier t n] — record a frontier of size [n] (tracks the peak). *)
val note_frontier : t -> int -> unit

val note_edge : t -> unit

(** [note_wave t] — count one batched MS-BFS wave. *)
val note_wave : t -> unit

(** [note_dir_switch t] — count one top-down <-> bottom-up switch. *)
val note_dir_switch : t -> unit

(** [add_counters ~into src] — fold [src] into [into] (sums; peak
    frontier by max). Used to add each worker's workspace counters into
    its batch's counts. *)
val add_counters : into:counters -> counters -> unit
