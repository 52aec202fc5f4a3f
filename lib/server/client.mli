(** Blocking line-protocol client — shared by the CLI's [client]
    subcommand, the server benchmark and the tests.  Replies are read
    with {!Protocol.decode_reply}. *)

type t

exception Closed of string
(** The connection died (EOF, reset) or a read timed out. *)

val of_fd : Unix.file_descr -> t
(** Wrap an already-connected fd (socketpair harnesses). The client
    takes ownership. *)

val connect_unix : string -> t
val close : t -> unit

val hello : ?timeout_ms:int -> t -> string
(** The server greeting ([HELLO sqlgraph ...]); read lazily once. *)

val read_line : ?timeout_ms:int -> t -> string
(** The next line, without its ['\n'], blocking up to [timeout_ms]
    ([None] = forever).  Linear in the line's length however it arrives
    ({!Protocol.Lines}).  Raises {!Closed} at end of stream or on
    timeout. *)

val shutdown : t -> unit
(** Shut the socket down in both directions, so a {!read_line} blocked
    in another thread returns {!Closed}.  The fd stays open until
    {!close}. *)

val request : ?timeout_ms:int -> t -> string -> string list
(** One round trip: send [sql], collect response lines until a terminal
    [OK]/[ERR]/[BYE] (returned last).  Reads the greeting first if it
    has not been consumed yet. *)

val send_line : t -> string -> unit
(** Raises [Invalid_argument], and sends nothing, on a ['\n'] or ['\r']:
    the server would answer each part, and every later reply on the
    connection would answer the request before it. *)

val terminal : string list -> string
(** The terminal line of a {!request} response ([""] if empty). *)

val is_ok : string list -> bool

val snapshot : string list -> int option
(** The snapshot of a terminal [OK]; [None] for anything else. *)

(** {1 Endpoints} *)

type endpoint = Unix_ep of string | Tcp_ep of string * int

val parse_endpoint : string -> endpoint
(** ["unix:/path"] (or a bare path starting with ['/'] or ['.']) is a
    Unix-domain socket; ["host:port"] a TCP listener.  Raises
    [Invalid_argument] on anything else. *)

val endpoint_name : endpoint -> string
val connect_endpoint : endpoint -> t

(** {1 Failover pool (DESIGN.md §15)}

    One live connection rotated over an endpoint list.  {!Pool.request}
    retries with bounded exponential backoff — honouring the server's
    [ERR busy retry_ms=<n>] hint — across connection loss, admission
    busy, and the read-only refusal of a standby that has not been
    promoted yet; it raises {!Pool.Exhausted} only once the retry
    budget is spent.  The pool refuses to reuse a connection whose
    greeting reports a snapshot version below one it already observed,
    so reads stay monotone across failover. *)
module Pool : sig
  type t

  exception Exhausted of string

  val create :
    ?retries:int ->
    ?backoff_ms:int ->
    ?backoff_cap_ms:int ->
    ?timeout_ms:int ->
    endpoint list ->
    t
  (** Defaults: 10 retries, 25 ms initial backoff doubling to a 2000 ms
      cap, no read timeout. *)

  val request : t -> string -> string list
  (** Like {!Client.request}, across failover. *)

  val last_snapshot : t -> int
  (** Highest snapshot of a [HELLO] or [OK] line ([-1] before the first). *)

  val endpoint : t -> endpoint
  (** The endpoint the live (or next) connection targets. *)

  val close : t -> unit
end
