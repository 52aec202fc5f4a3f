(** The bounded statement-fingerprint store behind the
    [sqlgraph_stat_statements] system table (DESIGN.md §14).

    One store lives on each {!Db} session ({!Db.stat_store}); the server
    shares its writer Db's store across every session
    ({!Db.set_stat_store}), so all operations are thread-safe.  At
    [bound] distinct fingerprints, a new fingerprint evicts the
    least-called entry. *)

type entry = {
  fingerprint : int64;
  query : string;  (** normalized text ({!Sql.Fingerprint.normalize}) *)
  mutable calls : int;
  mutable failures : int;
  mutable gov_aborts : int;
      (** failures that were [Resource_error] (governor / fault aborts) *)
  mutable total_ms : float;
  mutable min_ms : float;
  mutable max_ms : float;
  mutable rows : int;  (** rows returned (SELECT) or affected (DML) *)
  mutable index_hits : int;
  mutable index_misses : int;
  mutable waves : int;  (** batched MS-BFS waves *)
  mutable steals : int;  (** work-stealing scheduler steals *)
}

type t

val create : ?bound:int -> unit -> t
(** Default bound: 500 distinct fingerprints. *)

val bound : t -> int

val record :
  t ->
  fingerprint:int64 ->
  query:string ->
  ms:float ->
  rows:int ->
  failed:bool ->
  gov_abort:bool ->
  index_hits:int ->
  index_misses:int ->
  waves:int ->
  steals:int ->
  unit

val reset : t -> unit
(** Zero the store (the [\stat reset] meta-command). The Db registry is
    deliberately untouched. *)

val size : t -> int
val evicted : t -> int

val entries : t -> entry list
(** A consistent snapshot, highest [total_ms] first. *)

val find : t -> int64 -> entry option
(** Snapshot of one fingerprint's entry. *)

val total_ms : t -> float
