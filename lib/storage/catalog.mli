(** The database catalog: named base tables, each with a version so that
    caches built over a table (e.g. the graph indices of DESIGN.md §6) can
    detect staleness. Versions come from one catalog-wide counter, so a
    name never sees the same version twice — not even after DROP and
    CREATE, or a ROLLBACK that drops and restores it. *)

type t

val create : unit -> t

(** [add t name table] registers a base table. Raises [Invalid_argument] if
    [name] (case-insensitive) is already bound. *)
val add : t -> string -> Table.t -> unit

(** [replace t name table] registers or overwrites, with a fresh version. *)
val replace : t -> string -> Table.t -> unit

(** [replace_at t name table ~version] registers or overwrites, setting
    the version explicitly instead of bumping — a session catalog
    mirroring published tables adopts the publisher's version so that
    version-keyed caches (the shared graph-index cache) stay coherent
    across every session holding a copy of the same published table.
    Later versions handed out by this catalog stay above [version]. *)
val replace_at : t -> string -> Table.t -> version:int -> unit

val find : t -> string -> Table.t option
val mem : t -> string -> bool

(** [drop t name] removes a table; [false] when absent. *)
val drop : t -> string -> bool

(** [version t name] — the version {!add}, {!replace}, {!touch} or
    {!replace_at} last gave [name]; [None] when the table does not
    exist. *)
val version : t -> string -> int option

(** [touch t name] marks a table as mutated in place (e.g. after INSERT). *)
val touch : t -> string -> unit

(** [names t] is all base-table names, sorted. Virtual tables are
    deliberately excluded: every consumer of [names] (BEGIN snapshots,
    {!Persist}, the server's snapshot publication) must only ever see
    real, materialized state. *)
val names : t -> string list

(** {1 Virtual (system) tables}

    A virtual table is a provider closure materialized fresh on every
    scan — the engine's introspection layer (DESIGN.md §14) registers
    the [sqlgraph_stat_*] tables here. Providers are resolved only as a
    fallback after base tables by the binder and executor; {!find},
    {!mem} and {!names} never report them, so DML, transaction
    snapshots and persistence exclude them by construction. *)

(** [register_virtual t name provider] registers (or replaces) a
    provider under [name] (case-insensitive). *)
val register_virtual : t -> string -> (unit -> Table.t) -> unit

val virtual_provider : t -> string -> (unit -> Table.t) option
