(** Dynamically-typed SQL values.

    Cells flowing between the expression evaluator and the storage layer are
    represented by this sum type. Inside columns, values are stored unboxed
    in typed arrays ({!Column}); [Value.t] is the exchange format. *)

type nested = ..
(** Extension point for the payload of a {!constructor:t.Path} value.
    The storage layer cannot mention tables (it sits below them), so the
    executor registers its own snapshot constructor — mirroring the paper,
    where "a nested table is represented as a list of references to the
    actual rows of the table expression that generated it" (§3.3). *)

type t =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | Date of Date.t
  | Path of { tag : nested; rows : int array }
      (** one shortest path: [rows] are row ids into the edge-table
          snapshot carried by [tag] *)
  | Tuple of t array
      (** a composite vertex key (§2's multi-attribute addressing);
          never stored in columns — it only flows through the graph
          runtime's dictionary *)

(** [dtype_of v] is the type of a non-null value; [None] for {!Null}. *)
val dtype_of : t -> Dtype.t option

val is_null : t -> bool

(** [compare a b] is a total order used for sorting and grouping.
    [Null] sorts before every other value; [Int] and [Float] compare
    numerically across the two types; values of unrelated types compare by
    type rank. (Three-valued SQL comparison semantics live in the
    evaluator, not here.) *)
val compare : t -> t -> int

(** [equal a b] is [compare a b = 0]. *)
val equal : t -> t -> bool

(** [hash v] is consistent with {!equal} (notably [Int 2] and [Float 2.]
    hash alike). *)
val hash : t -> int

(** Coercions used by the evaluator. [to_float] widens ints. *)

val to_int : t -> int option
val to_float : t -> float option
val to_string_opt : t -> string option

(** [to_display v] renders [v] for result-set output ([Null] as ["NULL"]). *)
val to_display : t -> string

(** [float_text x] — text that reads back as exactly [x]: the
    {!to_display} text if it does, else the shortest [%.15g]..[%.17g]
    that does.  Checkpoints and wire rows write DOUBLE with it. *)
val float_text : float -> string

(** [cast v ty] converts [v] to type [ty] following SQL CAST rules;
    [Error _] when the conversion is not possible. [Null] casts to [Null]. *)
val cast : t -> Dtype.t -> (t, string) result

val pp : Format.formatter -> t -> unit
