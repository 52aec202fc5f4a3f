(** Query results: a materialised table plus convenience accessors and a
    psql-style pretty printer. *)

type t

val of_table : Storage.Table.t -> t
val to_table : t -> Storage.Table.t

val column_names : t -> string list
val nrows : t -> int
val ncols : t -> int

(** [rows t] — all rows as cell lists, in order. *)
val rows : t -> Storage.Value.t list list

(** [cell t ~row ~col]. *)
val cell : t -> row:int -> col:int -> Storage.Value.t

(** [value t] — the single cell of a 1×1 result.
    Raises [Invalid_argument] otherwise. *)
val value : t -> Storage.Value.t

(** [to_csv t] — RFC-4180-ish CSV with a header line. NULL is the empty
    field; a field holding a comma, a double quote, LF or CR is quoted; a
    DOUBLE is written with enough digits to read back as the same double. *)
val to_csv : t -> string

(** [to_string t] — an aligned ASCII table with a row-count footer. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
