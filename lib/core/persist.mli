(** Save/load a whole database as a directory of CSV files plus a schema
    manifest. The on-disk format is deliberately plain (one [<table>.csv]
    per table, [_manifest.csv] describing columns and types) so datasets
    can be produced or inspected with ordinary tools.

    Path-typed columns refuse to persist, which is the paper's own rule
    for nested tables: "it cannot be permanently stored into a physical
    table" (§3.3) — flatten with [UNNEST] first. *)

(** [save db ~dir] — write every catalog table, atomically: the files are
    rendered into a temp sibling directory ([<dir>.tmp.<pid>]), each
    fsynced, and the whole directory renamed into place, so a crash (or
    an armed fault at the [persist_write]/[persist_rename] sites) leaves
    either the previous save or the new one, never a half-written mix.

    Refuses to overwrite an existing non-empty directory that has no
    [_manifest.csv] — such a directory is not a sqlgraph save. *)
val save : Db.t -> dir:string -> (unit, Error.t) result

(** [load ~dir] — a fresh database containing every table of a saved
    directory, each file read by one typed scan ({!Csv.table_of_string}).
    When tracing is on, each table is a [ckpt_load] span carrying its
    [table] name and [rows]. *)
val load : dir:string -> (Db.t, Error.t) result

(** {2 Durable-file helpers, shared with the WAL and the server's sockets} *)

(** [write_retry op] — [op ()], or [0] if it raised [EINTR]. *)
val write_retry : (unit -> int) -> int

(** [write_all fd s] — all of [s], retrying short and interrupted writes. *)
val write_all : Unix.file_descr -> string -> unit

(** [write_file_synced path text] — create or truncate, write, fsync. *)
val write_file_synced : string -> string -> unit

(** [fsync_path path] — fsync a file or a directory (persisting renames). *)
val fsync_path : string -> unit

(** [rm_rf path] — remove a file or tree; absent is fine, symlinks are
    removed, not followed. *)
val rm_rf : string -> unit
