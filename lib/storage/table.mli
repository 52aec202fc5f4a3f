(** Columnar tables: a schema plus one {!Column} per field, all of equal
    length. Used both for stored base tables and for the fully-materialised
    intermediate results of the executor. *)

type t

(** [create schema] is an empty table. *)
val create : Schema.t -> t

(** [of_columns ?nrows schema cols] wraps existing columns (not copied).
    Raises [Invalid_argument] if arity, types or lengths disagree.
    [nrows] sets the row count of a zero-column table (a legal
    intermediate: e.g. a reachability-only graph select over a FROM-less
    query); with columns present it must agree with their length. *)
val of_columns : ?nrows:int -> Schema.t -> Column.t list -> t

(** [of_rows schema rows] builds a table row-wise; each row must have one
    cell per schema field, [Null] or of the field's type. *)
val of_rows : Schema.t -> Value.t list list -> t

val schema : t -> Schema.t
val arity : t -> int
val nrows : t -> int

val column : t -> int -> Column.t

(** [column_by_name t name] — case-insensitive lookup. *)
val column_by_name : t -> string -> Column.t option

(** [append_row t cells] appends one row (array of [arity t] cells). *)
val append_row : t -> Value.t array -> unit

(** [get t ~row ~col] is a single cell. *)
val get : t -> row:int -> col:int -> Value.t

(** [row t i] is row [i] as a cell array. *)
val row : t -> int -> Value.t array

(** [take t idx] gathers rows by position into a fresh table. *)
val take : t -> int array -> t

(** [concat_horizontal a b] glues the columns of two tables of equal row
    count side by side (the materialised form of a join output). *)
val concat_horizontal : t -> t -> t

(** [concat_vertical a b] appends the rows of [b] (same schema types). *)
val concat_vertical : t -> t -> t

(** [project t idx] keeps the columns at positions [idx]. *)
val project : t -> int array -> t

val to_rows : t -> Value.t list list

val equal : t -> t -> bool

(** [copy t] — [t]'s current rows, in O(columns): every column is a
    {!Column.copy}, so appends to [t] never show through it. *)
val copy : t -> t
val pp : Format.formatter -> t -> unit
