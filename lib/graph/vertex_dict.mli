(** Dictionary encoding of vertex keys.

    §3.1 of the paper: "regardless of their type, all the values from X, Y,
    S and D are translated into integers from the domain
    H = [{0, ..., |V|-1}]". The dictionary is built from the union of the
    edge table's source and destination columns, so the graph's vertex set
    is exactly [S ∪ D] (§2). *)

type t

(** [build ?specialize cols] scans the given columns in order and assigns
    dense ids [0..n-1] to distinct non-NULL values in first-appearance
    order. When every column is TInt (or TDate) and [specialize] is true
    (the default), an unboxed integer fast path is used — dictionary
    construction dominates the whole query (EXPERIMENTS.md A4), so this
    is the hot loop of the system. [~specialize:false] forces the generic
    path (ablation A6). *)
val build : ?specialize:bool -> Storage.Column.t list -> t

(** [cardinality t] = |V|. *)
val cardinality : t -> int

(** [encode t v] is the dense id of [v], or [None] when [v] is not a vertex
    (this implements the initial semi-join of X and Y against V). *)
val encode : t -> Storage.Value.t -> int option

(** [decode t id] is the original value for a dense id.
    Raises [Invalid_argument] for ids outside [0..cardinality-1]. *)
val decode : t -> int -> Storage.Value.t

(** [encode_column ?from t col] encodes rows [from..] of a column
    ([from] defaults to 0, the whole column); element [i] is the id of
    row [from + i], [-1] marks values that are not vertices (or NULL). *)
val encode_column : ?from:int -> t -> Storage.Column.t -> int array

(** Composite vertex keys — §2's "extending for multiple attributes". *)

(** [build_groups groups] — each group is the column tuple of one
    endpoint; a vertex key is the {!Storage.Value.Tuple} of one row's
    cells, skipped when any component is NULL. Every group must have the
    same width; width-1 groups reduce to {!build}. *)
val build_groups : ?specialize:bool -> Storage.Column.t list list -> t

(** [encode_columns t cols] — row-wise encoding of one endpoint's column
    tuple; [-1] marks non-vertices. *)
val encode_columns : t -> Storage.Column.t list -> int array
