(** Wire format of the multi-session server: newline-framed requests,
    escaped single-line responses terminated by [OK] / [ERR] / [BYE].
    See the implementation header (and DESIGN.md §12) for the grammar. *)

val version : int

val escape : string -> string
(** One-line encoding: backslash-escape [\\], tab, newline, CR. *)

val unescape : string -> string

val hello : sid:int -> snapshot:int -> string
val bye : string -> string

val row : Storage.Value.t list -> string
(** [ROW] line: tab-separated escaped cell displays. *)


val err : Sqlgraph.Error.t -> string
(** [ERR <category> <message>] with category derived from the error
    constructor ("parse", "bind", "runtime", "resource:<kind>", "io",
    "internal"). *)

val err_protocol : string -> string
(** Framing violation (oversized line, bad verb): [ERR protocol ...]. *)

val err_busy : retry_ms:int -> string -> string
(** Admission-control rejection: [ERR busy retry_ms=<n> ...] — the
    client should back off and retry. *)

val ok_outcome :
  ?qid:string -> snapshot:int -> Sqlgraph.Db.exec_outcome -> string list
(** The full response for a successful statement: zero or more [ROW]
    lines plus the terminal [OK ... [qid=<fp>:<seq>] snapshot=<v>]
    line.  [qid] is the statement's query id — fingerprint hex plus a
    per-session sequence number — joining the acknowledgement to the
    server's [sqlgraph_stat_statements] / [sqlgraph_stat_sessions]
    rows. *)

val is_terminal : string -> bool
(** The line ends a response ([OK] / [ERR] / [BYE] prefixed). *)

val clean_request : string -> string
(** Trim whitespace and a trailing [';'] from a request line. *)

val snapshot_of_line : string -> int option
(** Parse [snapshot=<n>] out of a terminal line, if present. *)

val qid_of_line : string -> string option
(** Parse [qid=<fp>:<seq>] out of a terminal line, if present. *)

val retry_ms_of_line : string -> int option
(** Parse the backoff hint off an [ERR busy retry_ms=<n> ...] line;
    [None] for every other line. *)

(** {1 Line splitting}

    The reader side of the framing, shared by the server's sessions and
    {!Client}: a byte buffer with a scan offset.  Each received byte is
    scanned for a newline once, and a popped line is copied once, so
    reading a line of [n] bytes costs O(n) however the stream is split
    into reads. *)
module Lines : sig
  type t

  val create : unit -> t

  val read : t -> Unix.file_descr -> int
  (** One [Unix.read] from the fd into the buffer; returns the byte
      count ([0] at end of stream).  [Unix.Unix_error] propagates. *)

  val pop : t -> string option
  (** The next complete line, without its ['\n'], or [None] when no
      newline is buffered. *)

  val pending : t -> int
  (** Buffered bytes not yet popped. *)

  val clear : t -> unit
  (** Drop every buffered byte. *)
end

(** {1 Replication verbs} (DESIGN.md §15)

    A standby sends [REPLICA gen=<g> offset=<o>] instead of SQL; the
    primary answers with an optional [REPL SNAP]/[REPL FILE]* full
    resync, then [REPL TAIL] and a stream of [REPL WAL] / [REPL PING]
    lines.  The escaped [data=] field is binary-safe and always last on
    its line. *)

val replica_handshake : gen:int -> offset:int -> string
val repl_snap : gen:int -> files:int -> string
val repl_file : name:string -> data:string -> string
val repl_tail : gen:int -> from:int -> string
val repl_wal : off:int -> count:int -> snap:int -> data:string -> string
val repl_ping : upto:int -> snap:int -> string

val parse_replica_handshake : string -> (int * int) option
(** [(gen, offset)] from a [REPLICA ...] line; [None] otherwise. *)

val int_field : string -> string -> int option
(** [int_field line key] — parse a space-delimited [key=<int>] field. *)

val data_field : string -> string option
(** The unescaped [data=] payload (runs to end of line). *)

val name_field : string -> string option
(** The unescaped [name=] field of a [REPL FILE] line. *)
