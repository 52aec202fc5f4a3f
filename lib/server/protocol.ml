(* Wire format of the multi-session server (DESIGN.md §12).

   Requests: one SQL statement per newline-terminated line (a trailing
   ';' is tolerated and stripped), or the verb QUIT.  Statements cannot
   span lines — SQL has no mandatory newlines, and one-line framing is
   what lets a session resynchronize after garbage bytes.

   Responses: one or more lines, the last of which always starts with a
   terminal verb (OK / ERR / BYE), so a client reads until it sees one:

     HELLO sqlgraph 1 sid=<n> snapshot=<v>      connection greeting
     ROW <cell>\t<cell>...                      one result row
     OK <verb> [n] [rows=<n>] snapshot=<v>      statement succeeded
     ERR <category> <message>                   statement failed
     BYE <reason>                               server is closing the session

   Cells and messages are escaped (\\, \t, \n, \r) so every response is
   exactly one line.  ERR categories mirror Error.t ("parse", "bind",
   "runtime", "resource:<kind>", "io", "internal") plus the server's own
   "protocol" (framing violations), "busy" (admission control /
   load-shed; the message begins with retry_ms=<n>) and "shutdown". *)

let version = 1

let escape s =
  let n = String.length s in
  let b = Buffer.create (n + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\t' -> Buffer.add_string b "\\t"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unescape s =
  let n = String.length s in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '\\' when !i + 1 < n ->
      incr i;
      Buffer.add_char b
        (match s.[!i] with
        | 't' -> '\t'
        | 'n' -> '\n'
        | 'r' -> '\r'
        | c -> c)
    | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

let hello ~sid ~snapshot =
  Printf.sprintf "HELLO sqlgraph %d sid=%d snapshot=%d" version sid snapshot

let bye reason = "BYE " ^ escape reason

let row cells =
  "ROW " ^ String.concat "\t" (List.map (fun c -> escape (Storage.Value.to_display c)) cells)

let row_text line = "ROW " ^ escape line

let error_category (e : Sqlgraph.Error.t) =
  match e with
  | Sqlgraph.Error.Parse_error _ -> "parse"
  | Sqlgraph.Error.Bind_error _ -> "bind"
  | Sqlgraph.Error.Runtime_error _ -> "runtime"
  | Sqlgraph.Error.Resource_error { kind; _ } ->
    "resource:" ^ Sqlgraph.Error.resource_kind_name kind
  | Sqlgraph.Error.Io_error _ -> "io"
  | Sqlgraph.Error.Internal_error _ -> "internal"

let err e =
  Printf.sprintf "ERR %s %s" (error_category e)
    (escape (Sqlgraph.Error.to_string e))

let err_protocol msg = "ERR protocol " ^ escape msg
let err_busy ~retry_ms msg = Printf.sprintf "ERR busy retry_ms=%d %s" retry_ms (escape msg)

(* Render one successful outcome as its response lines (ROW lines plus
   the terminal OK).  [snapshot] is the session's table-version-vector
   sequence number — the fuzzer asserts it never decreases per session.
   [qid] is the statement's query id (<fingerprint-hex>:<seq>, sequence
   monotone per session): echoed on the OK line so a client-side trace
   joins against the server's sqlgraph_stat_statements /
   sqlgraph_stat_sessions rows. *)
let ok_outcome ?qid ~snapshot (o : Sqlgraph.Db.exec_outcome) =
  let q = match qid with None -> "" | Some q -> " qid=" ^ q in
  let fin verb = [ Printf.sprintf "OK %s%s snapshot=%d" verb q snapshot ] in
  match o with
  | Sqlgraph.Db.Selected r ->
    let rows = List.map row (Sqlgraph.Resultset.rows r) in
    rows
    @ [
        Printf.sprintf "OK SELECT rows=%d%s snapshot=%d"
          (Sqlgraph.Resultset.nrows r) q snapshot;
      ]
  | Sqlgraph.Db.Explained text ->
    let lines =
      String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
    in
    List.map row_text lines
    @ [
        Printf.sprintf "OK EXPLAIN rows=%d%s snapshot=%d" (List.length lines) q
          snapshot;
      ]
  | Sqlgraph.Db.Inserted n -> fin (Printf.sprintf "INSERT %d" n)
  | Sqlgraph.Db.Updated n -> fin (Printf.sprintf "UPDATE %d" n)
  | Sqlgraph.Db.Deleted n -> fin (Printf.sprintf "DELETE %d" n)
  | Sqlgraph.Db.Created -> fin "CREATE"
  | Sqlgraph.Db.Dropped -> fin "DROP"
  | Sqlgraph.Db.Option_set (name, v) -> fin (Printf.sprintf "SET %s %d" name v)
  | Sqlgraph.Db.Began -> fin "BEGIN"
  | Sqlgraph.Db.Committed -> fin "COMMIT"
  | Sqlgraph.Db.Rolled_back -> fin "ROLLBACK"

(* A line that terminates a response (clients read until one). *)
let is_terminal line =
  let pre p = String.length line >= String.length p && String.sub line 0 (String.length p) = p in
  pre "OK" && (String.length line = 2 || line.[2] = ' ')
  || pre "ERR " || pre "BYE"

(* Strip trailing whitespace and at most one trailing ';' from a request
   line, so clients pasting repl-style statements just work. *)
let clean_request line =
  let line = String.trim line in
  let n = String.length line in
  if n > 0 && line.[n - 1] = ';' then String.trim (String.sub line 0 (n - 1))
  else line

(* ------------------------------------------------------------------ *)
(* Line splitting, shared by the session's request reader and the
   client's response reader (which the standby uses too).  Unpopped
   bytes are [buf.[start..stop)] and the newline search resumes at
   [scanned], so a multi-megabyte line costs linear time, where
   re-searching the whole buffer after every read costs quadratic. *)

module Lines = struct
  type t = {
    mutable buf : Bytes.t;
    mutable start : int;
    mutable stop : int;
    mutable scanned : int;
  }

  let read_size = 4096
  let create () = { buf = Bytes.create read_size; start = 0; stop = 0; scanned = 0 }
  let pending t = t.stop - t.start

  let clear t =
    t.start <- 0;
    t.stop <- 0;
    t.scanned <- 0

  let rec newline buf i stop =
    if i >= stop then -1
    else if Bytes.unsafe_get buf i = '\n' then i
    else newline buf (i + 1) stop

  let pop t =
    let i = newline t.buf t.scanned t.stop in
    if i < 0 then begin
      t.scanned <- t.stop;
      None
    end
    else begin
      let line = Bytes.sub_string t.buf t.start (i - t.start) in
      t.start <- i + 1;
      t.scanned <- i + 1;
      if t.start = t.stop then clear t;
      Some line
    end

  (* One [Unix.read] into the free tail, first making room for at least
     [read_size] bytes: slide the unpopped bytes to the front when they
     fill at most half the buffer, else double it.  Either way each byte
     moves O(1) times amortized.  Returns the byte count (0 at EOF);
     [Unix_error] propagates. *)
  let read t fd =
    let cap = Bytes.length t.buf in
    if cap - t.stop < read_size then begin
      let live = pending t in
      let dst =
        if live + read_size <= cap / 2 then t.buf
        else Bytes.create (max (2 * cap) (live + read_size))
      in
      Bytes.blit t.buf t.start dst 0 live;
      t.buf <- dst;
      t.scanned <- t.scanned - t.start;
      t.stop <- live;
      t.start <- 0
    end;
    let n = Unix.read fd t.buf t.stop (Bytes.length t.buf - t.stop) in
    t.stop <- t.stop + n;
    n
end

(* ------------------------------------------------------------------ *)
(* Replication verbs (DESIGN.md §15).

   A standby opens an ordinary connection and, instead of SQL, sends

     REPLICA gen=<g> offset=<o>

   naming the generation + log offset it already holds.  The session
   hands the fd to the replication hub, which answers with either a
   direct tail stream or a full resync:

     REPL SNAP gen=<g> files=<n>         full resync: checkpoint follows
     REPL FILE name=<esc> data=<esc>     one checkpoint file (n times)
     REPL TAIL gen=<g> from=<o>          log streaming starts at <o>
     REPL WAL off=<o> count=<k> snap=<v> data=<esc>
                                         <k> framed records at offset <o>
     REPL PING upto=<o> snap=<v>         heartbeat (idle keepalive)

   [snap] carries the primary's published snapshot version, so a
   promoted replica publishes at or above every version a client has
   already observed (cross-failover snapshot monotonicity).  Escaped
   [data] is binary-safe: {!escape} maps exactly the bytes that could
   break one-line framing.  A PROMOTE verb on a replica session fences
   the standby and turns it into a primary (OK PROMOTE gen=<g>). *)

let replica_handshake ~gen ~offset =
  Printf.sprintf "REPLICA gen=%d offset=%d" gen offset

let repl_snap ~gen ~files = Printf.sprintf "REPL SNAP gen=%d files=%d" gen files

let repl_file ~name ~data =
  Printf.sprintf "REPL FILE name=%s data=%s" (escape name) (escape data)

let repl_tail ~gen ~from = Printf.sprintf "REPL TAIL gen=%d from=%d" gen from

let repl_wal ~off ~count ~snap ~data =
  Printf.sprintf "REPL WAL off=%d count=%d snap=%d data=%s" off count snap
    (escape data)

let repl_ping ~upto ~snap = Printf.sprintf "REPL PING upto=%d snap=%d" upto snap

(* Parse [key=<int>] out of a space-separated line. *)
let int_field line key =
  let key = key ^ "=" in
  let kl = String.length key in
  let n = String.length line in
  let rec find i =
    if i + kl > n then None
    else if
      String.sub line i kl = key && (i = 0 || line.[i - 1] = ' ')
    then begin
      let j = ref (i + kl) in
      while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do
        incr j
      done;
      int_of_string_opt (String.sub line (i + kl) (!j - i - kl))
    end
    else find (i + 1)
  in
  find 0

(* The [data=] field runs to end of line (escaped bytes may contain
   spaces); everything before it is fixed-format fields. *)
let data_field line =
  let key = " data=" in
  let kl = String.length key in
  let n = String.length line in
  let rec find i =
    if i + kl > n then None
    else if String.sub line i kl = key then
      Some (unescape (String.sub line (i + kl) (n - i - kl)))
    else find (i + 1)
  in
  find 0

(* [name=<esc>] — a file name: escaped, no spaces once escaped since
   checkpoint file names never contain any. *)
let name_field line =
  let key = " name=" in
  let kl = String.length key in
  let n = String.length line in
  let rec find i =
    if i + kl > n then None
    else if String.sub line i kl = key then begin
      let j = ref (i + kl) in
      while !j < n && line.[!j] <> ' ' do
        incr j
      done;
      Some (unescape (String.sub line (i + kl) (!j - i - kl)))
    end
    else find (i + 1)
  in
  find 0

let has_prefix line p =
  String.length line >= String.length p && String.sub line 0 (String.length p) = p

let parse_replica_handshake line =
  if not (has_prefix line "REPLICA") then None
  else
    match (int_field line "gen", int_field line "offset") with
    | Some gen, Some offset -> Some (gen, offset)
    | _ -> None

(* Parse the backoff hint off an [ERR busy retry_ms=<n> ...] line. *)
let retry_ms_of_line line =
  if has_prefix line "ERR busy" then int_field line "retry_ms" else None

(* Parse "qid=<fp>:<seq>" off a terminal OK line. *)
let qid_of_line line =
  let key = " qid=" in
  let kl = String.length key in
  let n = String.length line in
  let rec find i =
    if i + kl > n then None
    else if String.sub line i kl = key then begin
      let j = ref (i + kl) in
      while !j < n && line.[!j] <> ' ' do
        incr j
      done;
      Some (String.sub line (i + kl) (!j - i - kl))
    end
    else find (i + 1)
  in
  find 0

(* Parse "snapshot=<n>" off a terminal OK line ([None] on ERR/BYE). *)
let snapshot_of_line line =
  let key = "snapshot=" in
  let kl = String.length key in
  let n = String.length line in
  let rec find i =
    if i + kl > n then None
    else if String.sub line i kl = key then begin
      let j = ref (i + kl) in
      while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do
        incr j
      done;
      int_of_string_opt (String.sub line (i + kl) (!j - i - kl))
    end
    else find (i + 1)
  in
  find 0
