(* Line-protocol client: the thin blocking helper the CLI's client
   mode, the server bench and the tests all share.  One request at a
   time; [request] collects response lines until a terminal verb. *)

type t = {
  fd : Unix.file_descr;
  lines : Protocol.Lines.t;
  mutable greeting : string option;
}

exception Closed of string

let of_fd fd = { fd; lines = Protocol.Lines.create (); greeting = None }

let connect_addr domain addr =
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  of_fd fd

let connect_unix path = connect_addr Unix.PF_UNIX (Unix.ADDR_UNIX path)

let connect_tcp host port =
  let addr =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> Unix.inet_addr_of_string host
  in
  connect_addr Unix.PF_INET (Unix.ADDR_INET (addr, port))

let close t = try Unix.close t.fd with _ -> ()

(* Wake a read blocked on this connection from another thread: the
   read sees end of stream and raises [Closed]. *)
let shutdown t = try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with _ -> ()

(* Read one line, blocking up to [timeout_ms] ([None] = forever). *)
let read_line ?timeout_ms t =
  let deadline =
    Option.map (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.)) timeout_ms
  in
  let rec take () =
    match Protocol.Lines.pop t.lines with
    | Some line -> line
    | None ->
      (match deadline with
      | Some d ->
        let left = d -. Unix.gettimeofday () in
        if left <= 0. then raise (Closed "client read timeout");
        (match Unix.select [ t.fd ] [] [] left with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ -> raise (Closed "client read timeout")
        | _ -> ())
      | None -> ());
      (match Protocol.Lines.read t.lines t.fd with
      | 0 -> raise (Closed "server closed the connection")
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      take ()
  in
  take ()

let hello ?timeout_ms t =
  match t.greeting with
  | Some g -> g
  | None ->
    let g = read_line ?timeout_ms t in
    t.greeting <- Some g;
    g

let send_line t line =
  if String.exists (fun c -> c = '\n' || c = '\r') line then
    invalid_arg "Client.send_line: a request must not contain a line break";
  try Protocol.write_lines t.fd [ line ]
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
    raise (Closed "server closed the connection")

(* One request/response round trip: send the statement, read lines until
   a terminal OK / ERR / BYE.  Returns every line, terminal last. *)
let request ?timeout_ms t sql =
  ignore (hello ?timeout_ms t);
  send_line t sql;
  let rec collect acc =
    let line = read_line ?timeout_ms t in
    if Protocol.is_terminal line then List.rev (line :: acc)
    else collect (line :: acc)
  in
  collect []

let terminal lines =
  match List.rev lines with last :: _ -> last | [] -> ""

let decoded lines = Protocol.decode_reply (terminal lines)
let is_ok lines = match decoded lines with Some (Protocol.Ok _) -> true | _ -> false

let snapshot lines =
  match decoded lines with Some (Protocol.Ok o) -> Some o.snapshot | _ -> None

(* --- endpoints ------------------------------------------------------ *)

(* A server address: "unix:/path" (or a bare path starting with '/' or
   '.') names a Unix-domain socket, "host:port" a TCP listener. *)
type endpoint = Unix_ep of string | Tcp_ep of string * int

let parse_endpoint s =
  let s = String.trim s in
  if String.length s >= 5 && String.sub s 0 5 = "unix:" then
    Unix_ep (String.sub s 5 (String.length s - 5))
  else if String.length s > 0 && (s.[0] = '/' || s.[0] = '.') then Unix_ep s
  else
    match String.rindex_opt s ':' with
    | Some i -> (
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some port -> Tcp_ep (String.sub s 0 i, port)
      | None -> invalid_arg ("bad endpoint (host:port expected): " ^ s))
    | None -> invalid_arg ("bad endpoint (unix:/path or host:port): " ^ s)

let endpoint_name = function
  | Unix_ep p -> "unix:" ^ p
  | Tcp_ep (h, p) -> Printf.sprintf "%s:%d" h p

let connect_endpoint = function
  | Unix_ep p -> connect_unix p
  | Tcp_ep (h, p) -> connect_tcp h p

(* --- failover pool -------------------------------------------------- *)

(* A connection pool over an endpoint list (DESIGN.md §15): one live
   connection at a time, rotated through the endpoints on failure.  A
   request retries — with bounded exponential backoff, honouring the
   server's [ERR busy retry_ms=<n>] hint — across three failure shapes:

   - connection loss (refused, reset, BYE): rotate to the next endpoint;
   - admission-control busy: sleep max(hint, current backoff) and retry
     the same endpoint;
   - read-only refusal: the endpoint is a standby that has not been
     promoted yet — the failover grace window.  Rotate and retry.

   Snapshot monotonicity across failover: the pool records the highest
   snapshot of any HELLO or OK line; after a reconnect it refuses to use a
   connection whose HELLO reports an older version (the standby's
   publish floor catches up from the stream, so this resolves within a
   retry or two) — a client of the pool never reads a snapshot older
   than one it has already seen. *)
module Pool = struct
  type conn = t

  let conn_close : conn -> unit = close

  type t = {
    endpoints : endpoint array;
    retries : int; (* attempts per request beyond the first *)
    backoff_ms : int; (* initial backoff *)
    backoff_cap_ms : int;
    timeout_ms : int option; (* per-read timeout on live connections *)
    mutable cursor : int; (* endpoint of the live (or next) connection *)
    mutable conn : conn option;
    mutable last_snapshot : int; (* highest snapshot=<v> observed *)
  }

  exception Exhausted of string

  let create ?(retries = 10) ?(backoff_ms = 25) ?(backoff_cap_ms = 2000)
      ?timeout_ms endpoints =
    if endpoints = [] then invalid_arg "Pool.create: no endpoints";
    {
      endpoints = Array.of_list endpoints;
      retries;
      backoff_ms;
      backoff_cap_ms;
      timeout_ms;
      cursor = 0;
      conn = None;
      last_snapshot = -1;
    }

  let last_snapshot t = t.last_snapshot
  let endpoint t = t.endpoints.(t.cursor mod Array.length t.endpoints)

  let drop t =
    (match t.conn with Some c -> conn_close c | None -> ());
    t.conn <- None

  let rotate t =
    drop t;
    t.cursor <- (t.cursor + 1) mod Array.length t.endpoints

  let close t = drop t

  (* Connect (if needed) and validate the greeting: a HELLO whose
     snapshot is below one we already observed names a standby that has
     not caught up — treat it like a failed connect. *)
  let ensure_conn t =
    match t.conn with
    | Some c -> c
    | None ->
      let c = connect_endpoint (endpoint t) in
      let g = hello ?timeout_ms:t.timeout_ms c in
      (match Protocol.decode_reply g with
      | Some (Protocol.Hello { snapshot; _ }) when snapshot < t.last_snapshot ->
        conn_close c;
        raise (Closed "stale snapshot (standby catching up)")
      | Some (Protocol.Hello { snapshot; _ }) -> t.last_snapshot <- snapshot
      | _ ->
        conn_close c;
        raise (Closed "bad greeting"));
      t.conn <- Some c;
      c

  let request t sql =
    let backoff = ref t.backoff_ms in
    let last_err = ref "" in
    let sleep_backoff ?hint () =
      let ms = max !backoff (Option.value hint ~default:0) in
      Unix.sleepf (float_of_int ms /. 1000.);
      backoff := min (ms * 2) t.backoff_cap_ms
    in
    let rec go attempt =
      let retry ?hint ?(rotating = true) msg =
        last_err := msg;
        if rotating then rotate t;
        sleep_backoff ?hint ();
        go (attempt + 1)
      in
      if attempt > t.retries then
        raise
          (Exhausted
             (Printf.sprintf "request failed after %d attempts: %s"
                (t.retries + 1) !last_err))
      else
        match
          let c = ensure_conn t in
          request ?timeout_ms:t.timeout_ms c sql
        with
        | exception Closed msg -> retry msg
        | exception Unix.Unix_error (e, _, _) -> retry (Unix.error_message e)
        | lines -> (
          match decoded lines with
          | Some (Protocol.Err { retry_ms = Some hint; _ }) ->
            retry ~hint ~rotating:false (terminal lines)
          | Some (Protocol.Err { category = "runtime"; message; _ })
            when String.starts_with ~prefix:"runtime error: read-only session" message ->
            (* a standby in the failover grace window refused DML: the
               session-level refusal, not any message that mentions
               read-only-ness ("sqlgraph_* tables are read-only") *)
            retry (terminal lines)
          | Some (Protocol.Bye _) -> retry (terminal lines)
          | Some (Protocol.Ok { snapshot; _ }) ->
            t.last_snapshot <- max t.last_snapshot snapshot;
            lines
          | _ -> lines)
    in
    go 0
end
