(** Typed, growable, null-aware columns — the unit of storage and of
    intermediate results in this columnar engine (MonetDB-style: every
    operator fully materialises its output columns). *)

type t

(** [create ?capacity dtype] is an empty column of type [dtype]. *)
val create : ?capacity:int -> Dtype.t -> t

(** [of_values dtype vs] builds a column from cells, each of which must be
    [Null] or of type [dtype]. Raises [Invalid_argument] otherwise. *)
val of_values : Dtype.t -> Value.t list -> t

(** [of_int_array ?nulls a] wraps an int array as a [TInt] column,
    copying it; [nulls.(i)] marks row [i] NULL (all non-null when
    omitted). These bulk constructors are the output path of the
    column-at-a-time evaluator. *)
val of_int_array : ?nulls:bool array -> int array -> t

val of_float_array : ?nulls:bool array -> float array -> t
val of_bool_array : ?nulls:bool array -> bool array -> t

val dtype : t -> Dtype.t
val length : t -> int

(** [append col v] appends a cell; [v] must be [Null] or match
    [dtype col]. An [Int] cell widens automatically into a [TFloat] column. *)
val append : t -> Value.t -> unit

(** [get col i] is the cell at row [i] (bounds-checked). *)
val get : t -> int -> Value.t

val is_null : t -> int -> bool
val null_count : t -> int

(** Unchecked fast paths used by the graph runtime and the evaluator.
    Behaviour is unspecified if the row is NULL or the column has a
    different type. *)

(** [int_at col i] — TInt or TDate payload. *)
val int_at : t -> int -> int

(** [float_at col i] — TFloat payload (ints widen). *)
val float_at : t -> int -> float

(** [str_at col i] — TStr payload. *)
val str_at : t -> int -> string

(** [bool_at col i] — TBool payload. *)
val bool_at : t -> int -> bool

(** [take col idx] gathers rows: result row [k] = [col] row [idx.(k)]. *)
val take : t -> int array -> t

(** [to_list col] is all cells in row order. *)
val to_list : t -> Value.t list

(** [iter f col] applies [f] to every cell in row order. *)
val iter : (Value.t -> unit) -> t -> unit

val copy : t -> t

(** Raw views for column-at-a-time evaluation. The arrays are the backing
    store: do not mutate, and ignore slots at or past [length col] (the
    buffer may be larger). *)

val raw_int : t -> int array option
val raw_float : t -> float array option

(** [null_flags col] — a fresh bool array of per-row NULL flags
    ([length col] entries). *)
val null_flags : t -> bool array

(** [equal a b] — same type, length and cells. *)
val equal : t -> t -> bool

(** [equal_prefix a b n] — same type, both at least [n] rows long, and
    equal cells on rows [0..n-1]. Int and date columns are compared
    without boxing a cell. *)
val equal_prefix : t -> t -> int -> bool

val pp : Format.formatter -> t -> unit
