(** Shortest-path extraction from a search tree.

    A path is reported as the sequence of *edge-table rows* traversed from
    source to destination — precisely the paper's physical representation
    of a nested table (§3.3: "a list of references to the actual rows of
    the table expression that generated it"). *)

(** [edge_rows ws csr ~source ~dst] is the path from [source] to [dst]
    recorded in the workspace by the last search, as original edge-table
    row ids in source→destination order. The empty array when
    [source = dst]. Raises [Invalid_argument] if [dst] was not reached. *)
val edge_rows : Workspace.t -> Csr.t -> source:int -> dst:int -> int array
