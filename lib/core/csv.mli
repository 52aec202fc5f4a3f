(** CSV import/export (RFC-4180-style: quoted fields, embedded commas,
    doubled quotes, CRLF tolerated). The bulk-loading path for bringing
    external edge lists and vertex tables into the engine, and the
    format of checkpoints.

    Every reader below runs one scanner. It walks the text once: a
    quote may open mid-field and a doubled quote inside it is one quote;
    a quoted newline stays in its field; an unquoted CR is dropped;
    blank lines are skipped; the final newline is optional. Fields are
    handed over as spans of the text, so a load builds no per-row list.

    A typed field reads exactly as [CAST (text AS type)] does: the
    common spellings (plain integers, floats [float_of_string] takes,
    [YYYY-MM-DD] dates, strings) are read straight from the field, and
    every other one goes through {!Storage.Value.cast}, which also gives
    the error messages. The empty field is NULL. *)

exception Csv_error of string
(** Alias of [Error.Csv_error] (the definition lives there so [Db.guard]
    can map it to [Error.Io_error] without a dependency cycle; matching
    on either name catches the same exception). *)

(** [parse_string s] — rows of fields; no header handling, no typing
    (the checkpoint manifest's reader). *)
val parse_string : string -> string list list

(** [table_of_string ~schema ?header s] — build a typed table. Fields are
    read as the schema's column types ([""] becomes NULL); [header]
    (default [true]) skips the first row. Raises {!Csv_error} on arity or
    conversion failures; an arity error names the file line of the row.
    Rows are checked in file order, a row's arity before its cells. *)
val table_of_string :
  schema:Storage.Schema.t -> ?header:bool -> string -> Storage.Table.t

(** [load_file db ~path ~table ~schema ?header ()] — read a CSV file into
    a (new or replaced) table of [db]. Failures (missing file, bad arity,
    cast errors) come back as [Error.Io_error] via [Db.protect]. *)
val load_file :
  Db.t ->
  path:string ->
  table:string ->
  schema:Storage.Schema.t ->
  ?header:bool ->
  unit ->
  (int, Error.t) result

(** [import_untyped db ~path ~table] — read a CSV file whose schema is
    derived from its header row (every column [TStr]; empty header
    cells become [c0], [c1], ...). The CLI's [\i] path. Rows are loaded
    by the same loop as {!table_of_string}, so errors name the same
    file line. *)
val import_untyped :
  Db.t -> path:string -> table:string -> (int, Error.t) result

(** [save_file resultset ~path] — write a result set with a header row. *)
val save_file : Resultset.t -> path:string -> (unit, Error.t) result
