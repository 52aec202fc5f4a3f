(** Growable bitmaps tracking which rows of a column are NULL. *)

type t

(** [create ?capacity ()] is an empty mask. *)
val create : ?capacity:int -> unit -> t

val length : t -> int

(** [append t null] appends one slot; [null = true] marks it NULL. *)
val append : t -> bool -> unit

(** [get t i] is whether row [i] is NULL. Raises [Invalid_argument] when out
    of bounds. *)
val get : t -> int -> bool

(** [null_count t] is the number of NULL slots. *)
val null_count : t -> int

(** [any_null t] is [null_count t > 0], in O(1). *)
val any_null : t -> bool

(** [copy t] is the mask's current slots, in O(1): it shares [t]'s bits,
    which later appends to either mask leave unchanged. *)
val copy : t -> t
