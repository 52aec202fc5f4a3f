(** Statement fingerprints: a normalized statement text plus a stable
    64-bit hash (FNV-1a), grouping statements that differ only in
    constants, whitespace, comments or identifier case — the key of the
    [sqlgraph_stat_statements] system table (DESIGN.md §14).

    Normalization works on the parsed AST (literals and host parameters
    become [?], identifiers are lowercased, the result is
    pretty-printed) with a token-level fallback for text that does not
    parse; both are idempotent. LIMIT/OFFSET counts remain part of the
    shape.  [Db] fingerprints the AST it already parsed ({!of_stmt}). *)

(** [of_stmt stmt] — [(hash, normalized)] of a parsed statement. *)
val of_stmt : Ast.stmt -> int64 * string

(** [of_unparsed sql] — [(hash, normalized)] of text the parser rejected
    (token-level pass, or case/space folding if it does not lex). *)
val of_unparsed : string -> int64 * string

(** [of_sql sql] — [of_stmt (parse sql)], or [of_unparsed sql]. *)
val of_sql : string -> int64 * string

(** [normalize sql] — the canonical text: ["SELECT a FROM t WHERE b = ?"]
    for any constant and spelling of that statement. *)
val normalize : string -> string

(** [hash sql = fst (of_sql sql)]. *)
val hash : string -> int64

(** [hash_text norm] — the FNV-1a hash of an already-normalized text. *)
val hash_text : string -> int64

(** [to_hex h] — 16 lowercase hex digits; the wire form used in query
    ids ([qid=<hex>:<seq>]) and the [fingerprint] column. *)
val to_hex : int64 -> string
