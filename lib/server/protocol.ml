(* Wire format of the multi-session server (DESIGN.md §12, §15).  Every
   line is written by an encoder here and read back by the decoder next
   to it; no other module knows the grammar.

   Requests are raw lines: one SQL statement (a trailing ';' is
   stripped), QUIT or PROMOTE.  A request is never unescaped, so a
   statement cannot span lines, and one-line framing is what lets a
   session resynchronize after garbage bytes.  A response is zero or
   more ROW lines and one terminal OK / ERR / BYE line:

     HELLO sqlgraph 1 sid=<n> snapshot=<v>      connection greeting
     ROW <cell>\t<cell>...                      one result row
     OK <verb> [<name>] [<n>] [rows=<n>] [qid=<q>] snapshot=<v>
     OK PROMOTE gen=<g> snapshot=<v>            standby promoted
     ERR <category> <message>                   statement failed
     ERR busy retry_ms=<n> <message>            load shed: back off
     BYE <reason>                               session is closing

   Cells, messages and reasons are escaped (\\, \t, \n, \r), so every
   response is one line.  ERR categories mirror Error.t ("parse", "bind",
   "runtime", "resource:<kind>", "io", "internal") plus the server's own
   "protocol" (framing violations) and "busy" (load shed).  A message and
   a reason are free text: no field is ever read out of them. *)

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

(* ------------------------------------------------------------------ *)
(* The one field reader.  Past its verb words a line is a run of
   space-separated words, each [key=value] or a bare positional word
   (key [""]).  A [data=] word is always last and runs to the end of the
   line, because its escaped payload may hold spaces.  Decoders call this
   on fixed-format words only: never on an ERR message or a BYE reason. *)

let starts_at line i p =
  let m = String.length p in
  i + m <= String.length line
  &&
  let rec eq k = k = m || (line.[i + k] = p.[k] && eq (k + 1)) in
  eq 0

let rest line pos = String.sub line pos (String.length line - pos)

(* The word at [pos] and the offset just past its space. *)
let word line pos =
  match String.index_from_opt line pos ' ' with
  | Some j -> (String.sub line pos (j - pos), j + 1)
  | None -> (rest line pos, String.length line)

let fields line pos =
  let rec go i acc =
    if i >= String.length line then List.rev acc
    else if starts_at line i "data=" then
      List.rev (("data", rest line (i + 5)) :: acc)
    else
      let w, j = word line i in
      let kv =
        match String.index_opt w '=' with
        | Some e -> (String.sub w 0 e, rest w (e + 1))
        | None -> ("", w)
      in
      go j (if w = "" then acc else kv :: acc)
  in
  go pos []

let positional f = List.filter_map (fun (k, v) -> if k = "" then Some v else None) f

(* A decoder's lookups raise [Missing] on an absent or malformed field;
   [decoded] turns that into [None]. *)
exception Missing

let str k f = match List.assoc_opt k f with Some v -> v | None -> raise_notrace Missing

let int k f =
  match int_of_string_opt (str k f) with Some n -> n | None -> raise_notrace Missing

let decoded f = try Some (f ()) with Missing -> None

(* ------------------------------------------------------------------ *)
(* Requests *)

type request = Empty | Quit | Promote | Sql of string

let promote = "PROMOTE"

let request line =
  let sql = String.trim line in
  let n = String.length sql in
  let sql =
    if n > 0 && sql.[n - 1] = ';' then String.trim (String.sub sql 0 (n - 1))
    else sql
  in
  match String.uppercase_ascii sql with
  | "" -> Empty
  | "QUIT" -> Quit
  | "PROMOTE" -> Promote
  | _ -> Sql sql

(* ------------------------------------------------------------------ *)
(* Responses *)

type ok = {
  verb : string;
  name : string option;
  count : int option;
  rows : int option;
  gen : int option;
  qid : string option;
  snapshot : int;
}

type reply =
  | Hello of { sid : int; snapshot : int }
  | Row of string list
  | Ok of ok
  | Err of { category : string; message : string; retry_ms : int option }
  | Bye of string

let hello ~sid ~snapshot =
  Printf.sprintf "HELLO sqlgraph %d sid=%d snapshot=%d" version sid snapshot

let bye reason = "BYE " ^ escape reason

let row cells =
  let text = function
    | Storage.Value.Float x -> Storage.Value.float_text x
    | c -> Storage.Value.to_display c
  in
  "ROW " ^ String.concat "\t" (List.map (fun c -> escape (text c)) cells)

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

(* The terminal OK line, in the field order {!decode_reply} reads. *)
let ok_line ?name ?count ?rows ?gen ?qid ~snapshot verb =
  let opt f = Option.fold ~none:"" ~some:f in
  String.concat ""
    [
      "OK "; verb; opt (( ^ ) " ") name; opt (Printf.sprintf " %d") count;
      opt (Printf.sprintf " rows=%d") rows; opt (Printf.sprintf " gen=%d") gen;
      opt (( ^ ) " qid=") qid; Printf.sprintf " snapshot=%d" snapshot;
    ]

(* Render one successful outcome as its response lines (ROW lines plus
   the terminal OK).  [snapshot] is the session's table-version-vector
   sequence number — the fuzzer asserts it never decreases per session.
   [qid] is the statement's query id (<fingerprint-hex>:<seq>, sequence
   monotone per session): echoed on the OK line so a client-side trace
   joins against the server's sqlgraph_stat_statements /
   sqlgraph_stat_sessions rows. *)
let ok_outcome ?qid ~snapshot (o : Sqlgraph.Db.exec_outcome) =
  let fin = ok_line ?qid ~snapshot in
  match o with
  | Sqlgraph.Db.Selected r ->
    List.map row (Sqlgraph.Resultset.rows r)
    @ [ fin ~rows:(Sqlgraph.Resultset.nrows r) "SELECT" ]
  | Sqlgraph.Db.Explained text ->
    let lines =
      String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
    in
    List.map (fun l -> row [ Storage.Value.Str l ]) lines
    @ [ fin ~rows:(List.length lines) "EXPLAIN" ]
  | Sqlgraph.Db.Inserted n -> [ fin ~count:n "INSERT" ]
  | Sqlgraph.Db.Updated n -> [ fin ~count:n "UPDATE" ]
  | Sqlgraph.Db.Deleted n -> [ fin ~count:n "DELETE" ]
  | Sqlgraph.Db.Created -> [ fin "CREATE" ]
  | Sqlgraph.Db.Dropped -> [ fin "DROP" ]
  | Sqlgraph.Db.Option_set (name, v) -> [ fin ~name ~count:v "SET" ]
  | Sqlgraph.Db.Began -> [ fin "BEGIN" ]
  | Sqlgraph.Db.Committed -> [ fin "COMMIT" ]
  | Sqlgraph.Db.Rolled_back -> [ fin "ROLLBACK" ]

let ok_promote ~gen ~snapshot = ok_line ~gen ~snapshot promote

let decode_reply line =
  let opt k f = decoded (fun () -> int k f) in
  match word line 0 with
  | "ROW", i ->
    Some (Row (List.map unescape (String.split_on_char '\t' (rest line i))))
  | "OK", i ->
    decoded (fun () ->
        match fields line i with
        | ("", verb) :: f ->
          (* positional words: SET's name, then a count *)
          let words = positional f in
          let count = List.find_map int_of_string_opt words in
          let name = List.find_opt (fun w -> int_of_string_opt w = None) words in
          Ok
            { verb; name; count; rows = opt "rows" f; gen = opt "gen" f;
              qid = List.assoc_opt "qid" f; snapshot = int "snapshot" f }
        | _ -> raise_notrace Missing)
  | "ERR", i ->
    let category, i = word line i in
    (* only a busy ERR carries a field, and only as its first word *)
    let retry_ms, i =
      match (category, word line i) with
      | "busy", (w, j) when starts_at w 0 "retry_ms=" -> (
        match int_of_string_opt (rest w 9) with
        | Some ms -> (Some ms, j)
        | None -> (None, i))
      | _ -> (None, i)
    in
    Some (Err { category; message = unescape (rest line i); retry_ms })
  | "BYE", i -> Some (Bye (unescape (rest line i)))
  | "HELLO", i ->
    let f = fields line i in
    decoded (fun () -> Hello { sid = int "sid" f; snapshot = int "snapshot" f })
  | _ -> None

(* A line that terminates a response (clients read until one). *)
let is_terminal line =
  let pre = starts_at line 0 in
  (pre "OK" && (String.length line = 2 || line.[2] = ' ')) || pre "ERR " || pre "BYE"

(* The one line writer: every line plus its newline in one write. *)
let write_lines fd lines =
  Sqlgraph.Persist.write_all fd (String.concat "\n" (lines @ [ "" ]))

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
(* Replication verbs (DESIGN.md §15).  A standby opens an ordinary
   connection and, instead of SQL, sends [REPLICA gen=<g> offset=<o>]:
   the generation and log offset it already holds.  The session hands
   the fd to the replication hub, which answers with an optional full
   resync, then the log:

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
   break one-line framing.  A checkpoint file name holds no space, so its
   escaped [name] is one word. *)

type repl =
  | Replica of { gen : int; offset : int }
  | Snap of { gen : int; files : int }
  | File of { name : string; data : string }
  | Tail of { gen : int; from : int }
  | Wal of { off : int; count : int; snap : int; data : string }
  | Ping of { upto : int; snap : int }

let encode_repl = function
  | Replica { gen; offset } -> Printf.sprintf "REPLICA gen=%d offset=%d" gen offset
  | Snap { gen; files } -> Printf.sprintf "REPL SNAP gen=%d files=%d" gen files
  | File { name; data } ->
    Printf.sprintf "REPL FILE name=%s data=%s" (escape name) (escape data)
  | Tail { gen; from } -> Printf.sprintf "REPL TAIL gen=%d from=%d" gen from
  | Wal { off; count; snap; data } ->
    Printf.sprintf "REPL WAL off=%d count=%d snap=%d data=%s" off count snap
      (escape data)
  | Ping { upto; snap } -> Printf.sprintf "REPL PING upto=%d snap=%d" upto snap

let decode_repl line =
  if not (starts_at line 0 "REPL") then None
  else
    let f = fields line 0 in
    let int k = int k f and esc k = unescape (str k f) in
    decoded (fun () ->
        match positional f with
        | [ "REPLICA" ] -> Replica { gen = int "gen"; offset = int "offset" }
        | [ "REPL"; "SNAP" ] -> Snap { gen = int "gen"; files = int "files" }
        | [ "REPL"; "FILE" ] -> File { name = esc "name"; data = esc "data" }
        | [ "REPL"; "TAIL" ] -> Tail { gen = int "gen"; from = int "from" }
        | [ "REPL"; "WAL" ] ->
          Wal { off = int "off"; count = int "count"; snap = int "snap"; data = esc "data" }
        | [ "REPL"; "PING" ] -> Ping { upto = int "upto"; snap = int "snap" }
        | _ -> raise_notrace Missing)
