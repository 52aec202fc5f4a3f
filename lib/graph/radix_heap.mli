(** Monotone integer priority queue (radix heap), after Ahuja, Mehlhorn,
    Orlin and Tarjan, "Faster algorithms for the shortest path problem"
    (JACM 1990) — the paper's reference [11] for its "Radix Queue".

    Monotonicity contract: every inserted priority must be [>=] the last
    priority returned by {!extract_min} (which is exactly how Dijkstra with
    non-negative edge weights behaves). Violations raise
    [Invalid_argument]. *)

type t

(** [create ()] is an empty heap whose floor starts at priority 0. *)
val create : unit -> t

val size : t -> int
val is_empty : t -> bool

(** [insert t ~priority ~payload]. Priorities must be non-negative. *)
val insert : t -> priority:int -> payload:int -> unit

(** [extract_min t] removes a minimum-priority entry and returns its
    payload; its priority is then {!floor}[ t]. Among equal priorities
    the most recently inserted leaves first. Allocation-free once the
    bucket buffers have grown. Raises [Not_found] when empty. *)
val extract_min : t -> int

(** [floor t] — the priority of the entry {!extract_min} last returned
    (0 before the first extraction): no later insert may go below it. *)
val floor : t -> int

(** [min_priority t] — the smallest priority in the heap, without
    removing it. It becomes the {!floor}, so no later insert may go
    below it: call it only where the next operation would be an
    {!extract_min} anyway (a Dijkstra step between its relaxations and
    its next pop). Raises [Not_found] when empty. *)
val min_priority : t -> int

(** [filter t keep] drops every entry for which [keep priority payload]
    is false, in one pass over the entries; the floor does not move. *)
val filter : t -> (int -> int -> bool) -> unit

(** [clear t] empties the heap and resets the floor to 0. *)
val clear : t -> unit
