(** Compact read-only int vector backing the CSR slot arrays.

    Two representations behind one accessor: plain [int array] words, or
    two 30-bit non-negative payloads packed per 63-bit word — half the
    memory, no allocation on read (unlike an [int32] Bigarray, whose
    reads box without flambda). The packed form is what makes an
    SF100-class CSR (tens of millions of slots, ×2 for the reverse
    graph) fit comfortably in memory.

    Reads use [Array.unsafe_get]: callers must index within
    [0, length t) — the CSR offset arithmetic already guarantees it. *)

type t

val max_packed : int
(** Largest packable value ([2^30 - 1]). *)

val of_array : int array -> t
(** Wrap without copying (plain representation). *)

val pack : int array -> t
(** Copy into the packed representation. Raises [Invalid_argument] if
    any value is negative or exceeds {!max_packed}. *)

val packable : int array -> bool
(** Every value fits the packed payload. *)

val length : t -> int
val is_packed : t -> bool

val memory_words : t -> int
(** Heap words spent on payload (the packed form halves it). *)

val get : t -> int -> int
(** [get t i] — the [i]th value. Unchecked: [i] must be in
    [0, length t). *)

val words : t -> int array option
(** The backing array when the representation is plain (shared, not
    copied; treat as read-only), [None] when packed. Hot traversal
    kernels use it to specialise inner edge loops to direct
    [Array.unsafe_get]s instead of paying the representation branch on
    every slot. *)
