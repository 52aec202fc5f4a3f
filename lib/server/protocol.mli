(** Wire format of the multi-session server (grammar: the implementation
    header, DESIGN.md §12 and §15).  This module owns both directions of
    every line: each encoder has its decoder next to it. *)

val escape : string -> string
(** One-line encoding: backslash-escape [\\], tab, newline, CR. *)

val unescape : string -> string

val write_lines : Unix.file_descr -> string list -> unit
(** Every line and its ['\n'] in one {!Sqlgraph.Persist.write_all}. *)

(** {1 Requests} *)

type request =
  | Empty  (** blank, or only [';'] *)
  | Quit
  | Promote
  | Sql of string  (** trimmed, one trailing [';'] stripped *)

val request : string -> request
(** Classify one request line; the verbs are case-insensitive. *)

val promote : string
(** The [PROMOTE] request verb. *)

(** {1 Responses} *)

type ok = {
  verb : string;  (** [SELECT], [INSERT], ..., [SET], [PROMOTE] *)
  name : string option;  (** [SET]'s option name *)
  count : int option;  (** [INSERT]/[UPDATE]/[DELETE]'s count, [SET]'s value *)
  rows : int option;  (** [SELECT]/[EXPLAIN]'s [rows=] *)
  gen : int option;  (** [PROMOTE]'s new generation *)
  qid : string option;  (** [<fingerprint-hex>:<seq>] *)
  snapshot : int;
}

type reply =
  | Hello of { sid : int; snapshot : int }
  | Row of string list  (** unescaped cells *)
  | Ok of ok
  | Err of { category : string; message : string; retry_ms : int option }
      (** [retry_ms] is set on a [busy] ERR only *)
  | Bye of string

val decode_reply : string -> reply option
(** [None] for a line no encoder below writes.  No field is ever read
    out of an ERR message or a BYE reason. *)

val hello : sid:int -> snapshot:int -> string
val bye : string -> string

val row : Storage.Value.t list -> string
(** [ROW] line: tab-separated escaped cell displays; a DOUBLE is
    written with {!Storage.Value.float_text}, so it reads back as the
    same double. *)

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

val ok_promote : gen:int -> snapshot:int -> string
(** [OK PROMOTE gen=<g> snapshot=<v>]: the standby is now a primary. *)

val is_terminal : string -> bool
(** The line ends a response ([OK] / [ERR] / [BYE] prefixed). *)

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
    lines. *)

type repl =
  | Replica of { gen : int; offset : int }
  | Snap of { gen : int; files : int }
  | File of { name : string; data : string }  (** [name] holds no space *)
  | Tail of { gen : int; from : int }
  | Wal of { off : int; count : int; snap : int; data : string }
  | Ping of { upto : int; snap : int }

val encode_repl : repl -> string

val decode_repl : string -> repl option
(** [None] for any line {!encode_repl} does not write. *)
