(** One history checker for the workload simulator ({!Driver}), the
    server concurrency fuzzer and the replication chaos loop.

    A harness records events as they happen, from any thread (one mutex
    orders them): writes acked at snapshot version [v] with the rows they
    wrote, refused (rolled back, [ERR busy]) or ambiguous (a fault error
    or a lost reply: it may or may not have landed), the snapshots each
    session saw, and reads with what they returned.  {!check} judges the
    finished history offline against a serial model keyed by version:
    the state after commit [v] is every acked write at a version [<= v],
    applied in version order.  Rows are [(key, value)] pairs of a named
    table, kept as a multiset; a table loaded in bulk is declared by
    count ({!preload}) and read by count.

    {b The read rule.} An ambiguous write sent by a session that had last
    seen version [f] can land only above [f].  A read at [v] must return a
    state of the serial history: exactly the state after [v] when no
    ambiguous write could be in it; otherwise something between the
    acked-only state after [v] and that state plus every ambiguous write
    that could be in it, and never fewer of those ambiguous rows than the
    same session already saw (unless a delete of that table intervened).
    Fewer is [stale_read]; rows acked only after [v] are [future_read].  A
    standby's versions are its own, so a standby read ({!Prefix}) must
    match some prefix of the primary's commit order, and a session's
    successive standby reads non-decreasing prefixes.  A read after every
    write settled ({!Final}) must hold every acked row ([acked_lost]) and
    nothing but acked or ambiguous rows. *)

type effect =
  | Insert of { table : string; key : int; value : int }
  | Delete of { table : string; key : int }  (** every row with this key *)

type at = At of int | Prefix | Final
type result = Count of int | Rows of (int * int) list
type t

val create : unit -> t

val preload : t -> table:string -> int -> unit
(** [n] anonymous rows already in [table] before any event. *)

val seen : t -> session:int -> int -> unit
val acked : t -> session:int -> version:int -> ?count:int -> effect list -> unit
(** A write, or a whole transaction at its COMMIT, with the row count it
    reported. *)

val refused : t -> effect list -> unit
val ambiguous : t -> session:int -> effect list -> unit
(** A write, or a transaction as one group, that may or may not land. *)

val read : t -> session:int -> at -> table:string -> result -> unit
val unexpected : t -> session:int -> string -> unit

(** {1 Served replies}, decoded with {!Sqlgraph_server.Protocol.decode_reply}. *)

val seen_reply : t -> session:int -> string list -> unit
(** {!seen} for every [HELLO] or [OK] line: pass it every reply. *)

val served_write : t -> session:int -> effect list -> (unit -> string list) -> string list
(** Send an autocommit write: [OK] acks it at its snapshot with its
    count, [ERR busy] refuses it, anything else or an exception
    (re-raised) leaves it ambiguous. *)

val served_txn :
  t -> session:int -> commit:bool -> (effect * string) list -> (string -> string list) -> bool
(** [BEGIN], each write's SQL, then [COMMIT] or [ROLLBACK], through
    [send] (nothing after a refused [BEGIN]).  A rolled-back transaction
    is refused; an acked COMMIT acks the inserts answered [OK]; an
    unacked one leaves them ambiguous as one group.  A failed insert is
    ambiguous on its own.  True when every statement answered [OK]. *)

val served_read :
  t -> session:int -> ?at:at -> table:string -> [ `Count | `Rows ] -> string list -> unit
(** A one-cell [ROW] as a count, or two-integer [ROW]s as rows, [At] the
    [OK]'s snapshot unless [at] says otherwise; no read without [OK]. *)

(** {1 Checking} *)

type invariant =
  | Acked_lost  (** an acked row missing after everything settled *)
  | Refused_survived
  | Partial_txn  (** some but not all of an ambiguous group landed *)
  | Fabricated  (** a row nobody wrote *)
  | Snapshot_regressed  (** a session's snapshots, reconnects included *)
  | Conservation  (** a reported row count the serial model disagrees with *)
  | Stale_read
  | Future_read
  | Outcome  (** a statement answered outside its harness's expectation *)

type report = {
  judged : (invariant * int) list;
      (** events each invariant judged, so a vacuous run shows;
          [acked_lost] counts acked writes a later read covered *)
  violations : (invariant * string) list;  (** in the order found *)
}

val check : t -> report
val invariant_name : invariant -> string
val judged : report -> invariant -> int

val describe : report -> string list
(** Each violation as ["<invariant>: <what>"]. *)
