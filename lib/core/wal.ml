module V = Storage.Value
module Reg = Telemetry.Registry
module Trace = Telemetry.Trace

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, polynomial 0xEDB88320) — table-driven, pure int. *)

(* slice-by-8 tables: crc_tables.(0) is the classic byte table and
   crc_tables.(k).(b) folds byte [b] sitting [k] positions ahead, so
   eight bytes fold with eight table lookups and no inter-byte
   dependency chain — ~4x a byte-at-a-time loop, which matters because
   every appended record is checksummed inline *)
let crc_tables =
  lazy
    (let ts = Array.make_matrix 8 256 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       ts.(0).(n) <- !c
     done;
     for n = 0 to 255 do
       let c = ref ts.(0).(n) in
       for k = 1 to 7 do
         c := ts.(0).(!c land 0xff) lxor (!c lsr 8);
         ts.(k).(n) <- !c
       done
     done;
     ts)

let crc32_sub b off len =
  let ts = Lazy.force crc_tables in
  let t0 = Array.unsafe_get ts 0
  and t1 = Array.unsafe_get ts 1
  and t2 = Array.unsafe_get ts 2
  and t3 = Array.unsafe_get ts 3
  and t4 = Array.unsafe_get ts 4
  and t5 = Array.unsafe_get ts 5
  and t6 = Array.unsafe_get ts 6
  and t7 = Array.unsafe_get ts 7 in
  let c = ref 0xFFFFFFFF in
  let i = ref off in
  let stop = off + len - 7 in
  while !i < stop do
    let o = !i in
    let byte k = Char.code (Bytes.unsafe_get b (o + k)) in
    let x = !c in
    c :=
      Array.unsafe_get t7 ((x lxor byte 0) land 0xff)
      lxor Array.unsafe_get t6 (((x lsr 8) lxor byte 1) land 0xff)
      lxor Array.unsafe_get t5 (((x lsr 16) lxor byte 2) land 0xff)
      lxor Array.unsafe_get t4 (((x lsr 24) lxor byte 3) land 0xff)
      lxor Array.unsafe_get t3 (byte 4)
      lxor Array.unsafe_get t2 (byte 5)
      lxor Array.unsafe_get t1 (byte 6)
      lxor Array.unsafe_get t0 (byte 7);
    i := o + 8
  done;
  for j = !i to off + len - 1 do
    c :=
      Array.unsafe_get t0 ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_sub (Bytes.unsafe_of_string s) 0 (String.length s)

(* A tiny growable byte arena used as the log's append buffer.  Records
   are framed in place (length and crc backpatched after encoding) and
   flushed straight from the byte array, so a statement append performs
   no per-record allocation — [Buffer.add_int32_le] and friends box
   their argument, which is measurable against a ~1.5 microsecond
   in-memory INSERT. *)
type arena = { mutable a_data : Bytes.t; mutable a_len : int }

let arena_create n = { a_data = Bytes.create n; a_len = 0 }

let arena_ensure a extra =
  let need = a.a_len + extra in
  let cap = Bytes.length a.a_data in
  if need > cap then begin
    let c = ref (cap * 2) in
    while !c < need do
      c := !c * 2
    done;
    let d = Bytes.create !c in
    Bytes.blit a.a_data 0 d 0 a.a_len;
    a.a_data <- d
  end

let put_char a c =
  arena_ensure a 1;
  Bytes.unsafe_set a.a_data a.a_len c;
  a.a_len <- a.a_len + 1

(* backpatch a little-endian u32 at [pos] (bytes must already exist) *)
let patch_u32 a pos n =
  let d = a.a_data in
  Bytes.unsafe_set d pos (Char.unsafe_chr (n land 0xff));
  Bytes.unsafe_set d (pos + 1) (Char.unsafe_chr ((n lsr 8) land 0xff));
  Bytes.unsafe_set d (pos + 2) (Char.unsafe_chr ((n lsr 16) land 0xff));
  Bytes.unsafe_set d (pos + 3) (Char.unsafe_chr ((n lsr 24) land 0xff))

let put_u16 a n =
  arena_ensure a 2;
  let d = a.a_data and o = a.a_len in
  Bytes.unsafe_set d o (Char.unsafe_chr (n land 0xff));
  Bytes.unsafe_set d (o + 1) (Char.unsafe_chr ((n lsr 8) land 0xff));
  a.a_len <- o + 2

let put_u32 a n =
  arena_ensure a 4;
  patch_u32 a a.a_len n;
  a.a_len <- a.a_len + 4

(* OCaml ints are 63-bit; [asr] sign-extends, so the top byte carries
   the sign and the value round-trips through i64 LE exactly *)
let put_i64 a n =
  arena_ensure a 8;
  let d = a.a_data and o = a.a_len in
  for k = 0 to 7 do
    Bytes.unsafe_set d (o + k) (Char.unsafe_chr ((n asr (8 * k)) land 0xff))
  done;
  a.a_len <- o + 8

let put_i64_bits a (v : int64) =
  arena_ensure a 8;
  let d = a.a_data and o = a.a_len in
  for k = 0 to 7 do
    Bytes.unsafe_set d (o + k)
      (Char.unsafe_chr
         (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xff))
  done;
  a.a_len <- o + 8

let put_string a s =
  let n = String.length s in
  arena_ensure a n;
  Bytes.blit_string s 0 a.a_data a.a_len n;
  a.a_len <- a.a_len + n

(* ------------------------------------------------------------------ *)
(* Record codec.

   File header: 8 magic bytes "SQLGWAL1".
   Record:      u32 LE payload length | u32 LE crc32(payload) | payload.
   Payload:     kind byte ('A' autocommit statement, 'S' statement inside
                a transaction, 'C' commit marker) | u16 LE param count |
                params | SQL text to end of payload.
   Param:       'n' (NULL) | 'i' i64 LE | 'f' float bits LE |
                'b' 0/1 byte | 'd' i64 LE epoch days |
                's' u32 LE byte length + bytes.

   Everything is explicit little-endian so a log written on one machine
   replays on any other. Path/Tuple parameters refuse to encode — paths
   cannot be stored (paper §3.3), so they can never reach committed DML
   anyway. *)

let magic = "SQLGWAL1"
let header_size = String.length magic
let frame_overhead = 8 (* length + crc words *)

(* decoding limit: a single statement's payload is capped well below
   anything legitimate, so a corrupt length word cannot trigger a
   gigabyte allocation before the crc check *)
let max_payload = 64 * 1024 * 1024

type kind = Autocommit | Txn_stmt | Commit_marker
type record = kind * V.t array * string

let kind_char = function
  | Autocommit -> 'A'
  | Txn_stmt -> 'S'
  | Commit_marker -> 'C'

let kind_of_char = function
  | 'A' -> Some Autocommit
  | 'S' -> Some Txn_stmt
  | 'C' -> Some Commit_marker
  | _ -> None

let encode_param a (v : V.t) =
  match v with
  | V.Null -> put_char a 'n'
  | V.Int i ->
    put_char a 'i';
    put_i64 a i
  | V.Float f ->
    put_char a 'f';
    put_i64_bits a (Int64.bits_of_float f)
  | V.Bool b ->
    put_char a 'b';
    put_char a (if b then '\001' else '\000')
  | V.Date d ->
    put_char a 'd';
    put_i64 a d
  | V.Str s ->
    put_char a 's';
    put_u32 a (String.length s);
    put_string a s
  | V.Path _ | V.Tuple _ ->
    raise
      (Relalg.Scalar.Runtime_error
         "wal: path/tuple parameters cannot be logged (flatten with UNNEST \
          first)")

(* append (not replace) one payload at the arena's end *)
let encode_payload a ~kind ~sql ~params =
  if Array.length params > 0xFFFF then
    raise (Relalg.Scalar.Runtime_error "wal: too many statement parameters");
  put_char a (kind_char kind);
  put_u16 a (Array.length params);
  Array.iter (encode_param a) params;
  put_string a sql

(* The one framer: append one framed record at the arena's end in place
   — reserve the length and crc words, encode the payload after them,
   then backpatch — so framing costs no per-record copy.  Returns the
   payload length; an encoding error leaves the arena as it was. *)
let frame_into a ~kind ~sql ~params =
  let hdr = a.a_len in
  arena_ensure a frame_overhead;
  a.a_len <- hdr + frame_overhead;
  (match encode_payload a ~kind ~sql ~params with
  | () -> ()
  | exception e ->
    a.a_len <- hdr;
    raise e);
  let plen = a.a_len - hdr - frame_overhead in
  patch_u32 a hdr plen;
  patch_u32 a (hdr + 4) (crc32_sub a.a_data (hdr + frame_overhead) plen);
  plen

exception Corrupt of string

let read_u32 s off = Int32.to_int (String.get_int32_le s off) land 0xFFFFFFFF
let read_i64 s off = Int64.to_int (String.get_int64_le s off)

let decode_payload s =
  let len = String.length s in
  if len < 3 then raise (Corrupt "payload too short");
  let kind =
    match kind_of_char s.[0] with
    | Some k -> k
    | None -> raise (Corrupt (Printf.sprintf "unknown record kind %C" s.[0]))
  in
  let nparams = Char.code s.[1] lor (Char.code s.[2] lsl 8) in
  let off = ref 3 in
  let need n =
    if !off + n > len then raise (Corrupt "truncated parameter");
    let o = !off in
    off := o + n;
    o
  in
  let params =
    Array.init nparams (fun _ ->
        let tag = s.[need 1] in
        match tag with
        | 'n' -> V.Null
        | 'i' -> V.Int (read_i64 s (need 8))
        | 'f' -> V.Float (Int64.float_of_bits (String.get_int64_le s (need 8)))
        | 'b' -> V.Bool (s.[need 1] <> '\000')
        | 'd' -> V.Date (read_i64 s (need 8))
        | 's' ->
          let slen = read_u32 s (need 4) in
          V.Str (String.sub s (need slen) slen)
        | c -> raise (Corrupt (Printf.sprintf "unknown parameter tag %C" c)))
  in
  (kind, params, String.sub s !off (len - !off))

(* A framed record rendered standalone — the shape replication ships
   over the wire and tests synthesize. *)
let encode_record ~kind ~sql ~params =
  let a = arena_create 256 in
  ignore (frame_into a ~kind ~sql ~params);
  Bytes.sub_string a.a_data 0 a.a_len

(* The one frame walker: fold [f acc pos plen] over the frames of [s]
   from [pos] to [stop], reading only the length words.  Raises
   [Corrupt] at the first frame that is torn (runs past [stop]) or
   claims an absurd length; [f] sees only whole frames, and checks
   their crc itself when it needs the payload. *)
let fold_frames f acc s ~pos ~stop =
  let rec go acc pos =
    if pos >= stop then acc
    else begin
      if pos + frame_overhead > stop then raise (Corrupt "torn header");
      let plen = read_u32 s pos in
      if plen > max_payload then raise (Corrupt "absurd record length");
      if pos + frame_overhead + plen > stop then raise (Corrupt "torn record");
      go (f acc pos plen) (pos + frame_overhead + plen)
    end
  in
  go acc pos

let decode_frame s pos plen =
  let body = pos + frame_overhead in
  if crc32_sub (Bytes.unsafe_of_string s) body plen <> read_u32 s (pos + 4)
  then raise (Corrupt "checksum mismatch");
  decode_payload (String.sub s body plen)

let decode_frames s =
  List.rev
    (fold_frames
       (fun acc pos plen -> decode_frame s pos plen :: acc)
       [] s ~pos:0 ~stop:(String.length s))

(* Chunking runs on the group-commit path, so it reads length words
   only: the bytes are the primary's own durable log, already checked
   when they were framed. *)
let chunk_frames s ~max_bytes =
  let n = String.length s in
  let cstart, ccount, acc =
    fold_frames
      (fun (cstart, ccount, acc) pos plen ->
        if ccount > 0 && pos + frame_overhead + plen - cstart > max_bytes then
          (pos, 1, (cstart, pos - cstart, ccount) :: acc)
        else (cstart, ccount + 1, acc))
      (0, 0, []) s ~pos:0 ~stop:n
  in
  List.rev (if ccount > 0 then (cstart, n - cstart, ccount) :: acc else acc)

(* [scan text] walks the log body after the magic header and returns the
   decoded records plus the byte offset of the first torn, checksum-
   failing or undecodable record — everything at and after that offset is
   garbage to be truncated away.  A clean log returns its full length. *)
let scan text =
  let records = ref [] and valid_end = ref header_size in
  (try
     fold_frames
       (fun () pos plen ->
         records := decode_frame text pos plen :: !records;
         valid_end := pos + frame_overhead + plen)
       () text ~pos:header_size ~stop:(String.length text)
   with Corrupt _ -> ());
  (List.rev !records, !valid_end)

(* ------------------------------------------------------------------ *)
(* Store state *)

(* Plain-int counters on the append path — registry pushes (hashtable
   lookups) happen only at sync points (flush/fsync/commit/checkpoint/
   attach/close), so a --no-fsync burst pays zero registry cost per
   statement.  [synced] remembers what the registry has already seen. *)
type counters = {
  mutable c_records : int;
  mutable c_bytes : int;
  mutable c_fsyncs : int;
  mutable c_replayed : int;
  mutable c_truncated : int;
  mutable c_checkpoints : int;
}

let mk_counters () =
  {
    c_records = 0;
    c_bytes = 0;
    c_fsyncs = 0;
    c_replayed = 0;
    c_truncated = 0;
    c_checkpoints = 0;
  }

type t = {
  dir : string;
  do_fsync : bool;
  mutable gen : int;
  mutable fd : Unix.file_descr;
  mutable offset : int; (* durable log length: bytes actually written *)
  out : arena;
      (* appended but not yet written — the log's logical end is
         [offset + out.a_len].  With fsync on, every statement flushes,
         so the arena only ever holds the record in flight; with
         --no-fsync it batches appends up to [flush_threshold], which is
         what keeps logging within a few percent of in-memory throughput
         (an acknowledged-but-buffered record dies with the process, the
         mode's documented tradeoff). *)
  mutable stmt_start : int; (* logical offset before the in-flight records *)
  mutable commits : int;
      (* commit units logged since open — autocommit records plus
         transaction commit markers, less those an abort truncated *)
  mutable txn_buf : (string * V.t array) list; (* reversed *)
  mutable poisoned : string option;
  mutable registry : Reg.t option;
  mutable closed : bool;
  mutable deferred : bool;
      (* group-commit mode (the server): per-statement [do_sync] is
         suppressed — a group-commit leader later calls [flush_now] +
         [fsync_now] once for a whole batch and acknowledgements wait
         for that shared fsync *)
  readonly : bool;
      (* inspection mode: recovery ran in-memory only — no CURRENT
         rewrite, no tail truncation, no appends ever *)
  stats : counters;
  synced : counters;
}

let flush_threshold = 1 lsl 16

type recovery = {
  rec_gen : int;
  rec_replayed : int;
  rec_skipped : int;
  rec_truncated_bytes : int;
}

let dir t = t.dir
let gen t = t.gen
let readonly t = t.readonly
let current_file dir = Filename.concat dir "CURRENT"
let wal_file dir g = Filename.concat dir (Printf.sprintf "wal-%06d.log" g)
let ckpt_dir dir g = Filename.concat dir (Printf.sprintf "checkpoint-%06d" g)
let wal_path t = wal_file t.dir t.gen

(* Push counter deltas into the session registry (no-op when nothing
   changed or no registry is attached yet). *)
let sync_registry t =
  match t.registry with
  | None -> ()
  | Some reg ->
    let push name help cur seen set =
      if cur > seen then begin
        Reg.inc reg name (cur - seen) ~help;
        set cur
      end
    in
    let s = t.stats and y = t.synced in
    push "sqlgraph_wal_records_total" "WAL records appended" s.c_records
      y.c_records (fun v -> y.c_records <- v);
    push "sqlgraph_wal_bytes_total" "WAL bytes appended" s.c_bytes y.c_bytes
      (fun v -> y.c_bytes <- v);
    push "sqlgraph_wal_fsyncs_total" "WAL fsync calls" s.c_fsyncs y.c_fsyncs
      (fun v -> y.c_fsyncs <- v);
    push "sqlgraph_wal_replayed_total" "WAL records replayed at recovery"
      s.c_replayed y.c_replayed (fun v -> y.c_replayed <- v);
    push "sqlgraph_wal_truncated_bytes_total"
      "Corrupt WAL tail bytes truncated at recovery" s.c_truncated
      y.c_truncated (fun v -> y.c_truncated <- v);
    push "sqlgraph_checkpoints_total" "Checkpoints taken" s.c_checkpoints
      y.c_checkpoints (fun v -> y.c_checkpoints <- v)

let check_usable t =
  if t.closed then raise (Sys_error "wal: store is closed");
  if t.readonly then
    raise (Sys_error "wal: store is open read-only (inspection mode)");
  match t.poisoned with
  | Some why ->
    raise
      (Sys_error
         (Printf.sprintf
            "wal: store is poisoned (%s); close and reopen the data \
             directory to recover"
            why))
  | None -> ()

(* Write the buffered tail out.  On a partial write the unwritten suffix
   stays buffered and [offset] counts only what landed, so a retry (or a
   truncate repair) still sees a consistent picture. *)
let flush t =
  let a = t.out in
  if a.a_len > 0 then begin
    let n = a.a_len in
    let w = ref 0 in
    (try
       while !w < n do
         w :=
           !w
           + Persist.write_retry (fun () ->
                 Unix.write t.fd a.a_data !w (n - !w))
       done
     with e ->
       t.offset <- t.offset + !w;
       Bytes.blit a.a_data !w a.a_data 0 (n - !w);
       a.a_len <- n - !w;
       raise e);
    t.offset <- t.offset + n;
    a.a_len <- 0;
    sync_registry t
  end

let logical_end t = t.offset + t.out.a_len

(* Append one framed record at the log's logical end.  The "wal_torn"
   fault site simulates a physical torn write: it leaves *half* the
   frame on disk, poisons the store and re-raises — recovery must then
   truncate the fragment away. *)
let append_payload t ~kind ~sql ~params =
  check_usable t;
  (match
     try
       Fault.hit ~site:"wal_torn";
       None
     with Fault.Injected _ as e -> Some e
   with
  | Some e ->
    (* flush what came before, leave half the frame on disk, poison *)
    let tmp = arena_create 256 in
    ignore (frame_into tmp ~kind ~sql ~params);
    (try flush t with _ -> ());
    (try
       Persist.write_all t.fd (Bytes.sub_string tmp.a_data 0 (tmp.a_len / 2))
     with _ -> ());
    t.poisoned <- Some "injected torn write";
    raise e
  | None -> ());
  Fault.hit ~site:"wal_append";
  (* span bookkeeping only when tracing is live — the closure a span
     body would capture is the hot path's one remaining allocation *)
  let sp = if Trace.enabled () then Trace.begin_span "wal_append" else -1 in
  let plen =
    match
      let plen = frame_into t.out ~kind ~sql ~params in
      if t.out.a_len >= flush_threshold then flush t;
      plen
    with
    | plen -> plen
    | exception e ->
      if sp >= 0 then Trace.end_span sp;
      raise e
  in
  if sp >= 0 then Trace.end_span sp;
  t.stats.c_records <- t.stats.c_records + 1;
  t.stats.c_bytes <- t.stats.c_bytes + plen + frame_overhead

let do_sync t =
  if t.do_fsync && not t.deferred then begin
    Fault.hit ~site:"wal_fsync";
    Trace.span "wal_fsync" (fun () ->
        flush t;
        Unix.fsync t.fd);
    t.stats.c_fsyncs <- t.stats.c_fsyncs + 1;
    sync_registry t
  end

(* Group-commit support (lib/server).  In deferred mode the per-statement
   fsync above is a no-op; instead a group-commit leader (holding the
   server's writer lock) calls [flush_now] to push every session's
   buffered appends to the fd, releases the lock, and calls [fsync_now]
   once for the whole batch — one fsync acknowledges many commits.
   [fsync_now] deliberately holds no lock: the flush target was captured
   under the lock, and O_APPEND writes landing after it are simply
   carried by the next group's fsync. *)
let set_deferred_sync t b = t.deferred <- b

let flush_now t =
  check_usable t;
  flush t

let commits_logged t = t.commits

let fsync_now t =
  check_usable t;
  Fault.hit ~site:"group_fsync";
  if t.do_fsync then begin
    Trace.span "group_fsync" (fun () -> Unix.fsync t.fd);
    t.stats.c_fsyncs <- t.stats.c_fsyncs + 1;
    sync_registry t
  end

(* ------------------------------------------------------------------ *)
(* Replication support (lib/server/replication.ml).

   The primary re-reads durable byte ranges of the live log to ship them
   ([read_range] — a fresh read-only fd per call, so shipping races
   neither the O_APPEND writer nor a concurrent catch-up read); the
   replica appends the complete frames it reassembled verbatim
   ([append_frames] — same bytes, same offsets, so a replica's log is a
   byte-identical mirror of the primary's shipped prefix). *)

let read_range t ~pos ~len =
  if len <= 0 then ""
  else begin
    let fd = Unix.openfile (wal_path t) [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        ignore (Unix.lseek fd pos Unix.SEEK_SET);
        let b = Bytes.create len in
        let r = ref 0 in
        while !r < len do
          let n =
            Persist.write_retry (fun () -> Unix.read fd b !r (len - !r))
          in
          if n = 0 then
            raise (Sys_error "wal: range read beyond the flushed end");
          r := !r + n
        done;
        Bytes.unsafe_to_string b)
  end

(* [append_frames t ~count s] — append [count] pre-framed, crc-checked
   records as raw bytes (log-before-apply on the replica: the frame
   lands in the local log before its statement touches the database). *)
let append_frames t ~count s =
  check_usable t;
  flush t;
  Persist.write_all t.fd s;
  t.offset <- t.offset + String.length s;
  t.stmt_start <- t.offset;
  t.stats.c_records <- t.stats.c_records + count;
  t.stats.c_bytes <- t.stats.c_bytes + String.length s;
  if t.do_fsync && not t.deferred then begin
    Unix.fsync t.fd;
    t.stats.c_fsyncs <- t.stats.c_fsyncs + 1
  end;
  sync_registry t

(* Truncate the live log back to logical offset [target] — the repair
   path after a failed append/fsync/apply.  A target inside the
   unflushed buffer is a pure memory operation; one behind the durable
   length needs a real ftruncate.  If the repair itself fails the log
   may hold a record memory never applied, so the store poisons itself:
   every later append refuses, and the divergence is bounded to the one
   already-reported error. *)
let truncate_to t target =
  try
    Fault.hit ~site:"wal_truncate";
    Trace.span "wal_truncate" (fun () ->
        if target >= t.offset then t.out.a_len <- target - t.offset
        else begin
          t.out.a_len <- 0;
          Unix.ftruncate t.fd target;
          if t.do_fsync then Unix.fsync t.fd;
          t.offset <- target
        end)
  with e ->
    t.poisoned <-
      Some
        (Printf.sprintf "truncate to %d failed: %s" target
           (Printexc.to_string e));
    raise e

(* ------------------------------------------------------------------ *)
(* Durability hooks (see Db.durability) *)

let dur_log t ~sql ~params =
  check_usable t;
  let start = logical_end t in
  t.stmt_start <- start;
  try
    append_payload t ~kind:Autocommit ~sql ~params;
    do_sync t;
    t.commits <- t.commits + 1
  with e ->
    (* bytes may be half-appended or unsynced: erase them before
       surfacing the error, so log and memory still agree (a simulated
       torn write poisons the store and deliberately stays) *)
    if t.poisoned = None then (try truncate_to t start with _ -> ());
    raise e

let dur_abort t () =
  if t.poisoned = None && logical_end t > t.stmt_start then begin
    truncate_to t t.stmt_start;
    t.commits <- t.commits - 1
  end

let dur_buffer t ~sql ~params =
  check_usable t;
  t.txn_buf <- (sql, params) :: t.txn_buf

let dur_commit t () =
  check_usable t;
  let start = logical_end t in
  t.stmt_start <- start;
  let stmts = List.rev t.txn_buf in
  t.txn_buf <- [];
  try
    List.iter
      (fun (sql, params) ->
        append_payload t ~kind:Txn_stmt ~sql ~params)
      stmts;
    append_payload t ~kind:Commit_marker ~sql:"" ~params:[||];
    do_sync t;
    t.commits <- t.commits + 1
  with e ->
    if t.poisoned = None then (try truncate_to t start with _ -> ());
    raise e

let dur_rollback t () = t.txn_buf <- []

(* Live sqlgraph_stat_wal provider (DESIGN.md §14): replaces the Db's
   default empty provider with one that reads this store. *)
let register_stat_table t db =
  Db.register_virtual_table db ~name:"sqlgraph_stat_wal" (fun () ->
      Storage.Table.of_rows Db.stat_wal_schema
        [
          [
            Storage.Value.Str t.dir;
            Storage.Value.Int t.gen;
            Storage.Value.Int (logical_end t);
            Storage.Value.Str (wal_path t);
            Storage.Value.Bool t.readonly;
          ];
        ])

let attach t db =
  t.registry <- Some (Db.registry db);
  sync_registry t;
  register_stat_table t db;
  Db.set_durability db
    (Some
       {
         Db.dur_log = (fun ~sql ~params -> dur_log t ~sql ~params);
         dur_abort = dur_abort t;
         dur_buffer = (fun ~sql ~params -> dur_buffer t ~sql ~params);
         dur_commit = dur_commit t;
         dur_rollback = dur_rollback t;
       })

(* ------------------------------------------------------------------ *)
(* Open + recovery *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file_atomic path text =
  let tmp = path ^ ".tmp" in
  Persist.write_file_synced tmp text;
  Sys.rename tmp path;
  try Persist.fsync_path (Filename.dirname path) with _ -> ()

(* Create wal-g with its magic header, fully synced; returns an append
   fd positioned after the header. *)
let create_wal_file ~do_fsync dir g =
  let path = wal_file dir g in
  (* O_APPEND keeps every write at the true end of file, so appends after
     a repair-truncate can never leave a zero-filled gap *)
  let fd =
    Unix.openfile path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_APPEND ]
      0o644
  in
  (try
     Persist.write_all fd magic;
     if do_fsync then Unix.fsync fd
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  fd

(* Remove generations other than [keep], plus rename/checkpoint litter —
   the debris of a crash mid-checkpoint or mid-save. *)
let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let gen_of entry ~prefix ~suffix =
  let lp = String.length prefix and ls = String.length suffix in
  if
    String.length entry = lp + 6 + ls
    && String.starts_with ~prefix entry
    && String.ends_with ~suffix entry
  then int_of_string_opt (String.sub entry lp 6)
  else None

let gc_stale dir ~keep =
  Array.iter
    (fun entry ->
      let full = Filename.concat dir entry in
      let stale_gen prefix suffix =
        match gen_of entry ~prefix ~suffix with
        | Some g -> g <> keep
        | None -> false
      in
      if
        stale_gen "wal-" ".log"
        || stale_gen "checkpoint-" ""
        || contains_sub entry ".tmp"
        || contains_sub entry ".old."
      then try Persist.rm_rf full with _ -> ())
    (Sys.readdir dir)

(* The one commit-marker rule.  Replay decoded records against [db]:
   'A' records apply immediately, 'S' records buffer until their 'C'
   marker.  The trailing run of 'S' with no marker is returned unapplied,
   in log order: recovery discards it (a transaction whose COMMIT was
   never acknowledged), a standby keeps it and replays it ahead of the
   next records shipped to it. *)
let replay db records =
  let replayed = ref 0 and failed = ref 0 in
  let apply (_, params, sql) =
    match Db.exec db ~params sql with
    | Ok _ -> incr replayed
    | Error _ ->
      (* the statement failed when first executed too (its error was
         reported then); recovery preserves the surviving prefix *)
      incr failed
  in
  let pending = ref [] in
  List.iter
    (fun ((kind, _, _) as r) ->
      match kind with
      | Autocommit -> apply r
      | Txn_stmt -> pending := r :: !pending
      | Commit_marker ->
        List.iter apply (List.rev !pending);
        pending := [])
    records;
  (!replayed, !failed, List.rev !pending)

let open_dir ?(fsync = true) ?(readonly = false) ?(replica = false) dir =
  Db.protect (fun () ->
      Trace.span "wal_replay" (fun () ->
          if not (Sys.file_exists dir) then
            if readonly then raise (Sys_error (dir ^ ": no such data directory"))
            else Sys.mkdir dir 0o755;
          if not (Sys.is_directory dir) then
            raise (Sys_error (dir ^ ": not a directory"));
          let gen =
            let cur = current_file dir in
            if Sys.file_exists cur then
              match int_of_string_opt (String.trim (read_file cur)) with
              | Some g when g >= 0 -> g
              | _ -> raise (Sys_error (cur ^ ": corrupt generation pointer"))
            else if Sys.file_exists (wal_file dir 0) then
              (* crashed during first-time initialisation, before CURRENT
                 was written: generation 0 is fully described by its log *)
              0
            else if (not readonly) && Array.length (Sys.readdir dir) = 0 then begin
              (* fresh directory: initialise generation 0 *)
              let fd = create_wal_file ~do_fsync:fsync dir 0 in
              (try Unix.close fd with _ -> ());
              0
            end
            else
              raise
                (Sys_error
                   (dir
                  ^ ": not a sqlgraph data directory ("
                  ^ (if readonly then "empty or " else "non-empty, ")
                  ^ "no CURRENT pointer)"))
          in
          (* A read-only open recovers purely in memory: the directory is
             never written (no pointer rewrite, no stale-generation GC,
             no tail truncation), so a live writer process is undisturbed
             and the inspection session can never mask a torn tail. *)
          if not readonly then begin
            write_file_atomic (current_file dir) (string_of_int gen);
            gc_stale dir ~keep:gen
          end;
          (* base state: latest checkpoint, or empty at generation 0 *)
          let db =
            if gen = 0 then Db.create ()
            else
              match Persist.load ~dir:(ckpt_dir dir gen) with
              | Ok db -> db
              | Error e ->
                raise (Sys_error ("checkpoint load failed: " ^ Error.to_string e))
          in
          (* scan + replay the live log, truncating the corrupt tail *)
          let path = wal_file dir gen in
          if not (Sys.file_exists path) then begin
            if readonly then raise (Sys_error (path ^ ": missing WAL file"));
            let fd = create_wal_file ~do_fsync:fsync dir gen in
            try Unix.close fd with _ -> ()
          end;
          let valid_end, truncated, (replayed, failed, uncommitted) =
            Trace.span "log_replay" (fun () ->
                let text = read_file path in
                if
                  String.length text < header_size
                  || not (String.equal (String.sub text 0 header_size) magic)
                then raise (Sys_error (path ^ ": bad WAL magic"));
                let records, valid_end = scan text in
                let truncated = String.length text - valid_end in
                if truncated > 0 && not readonly then begin
                  Fault.hit ~site:"wal_truncate";
                  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
                  Fun.protect
                    ~finally:(fun () -> Unix.close fd)
                    (fun () ->
                      Unix.ftruncate fd valid_end;
                      if fsync then Unix.fsync fd)
                end;
                (valid_end, truncated, replay db records))
          in
          let fd =
            if readonly then Unix.openfile path [ Unix.O_RDONLY ] 0
            else Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0
          in
          let t =
            {
              dir;
              do_fsync = fsync && not readonly;
              gen;
              fd;
              offset = valid_end;
              out = arena_create flush_threshold;
              stmt_start = valid_end;
              commits = 0;
              txn_buf = [];
              poisoned = None;
              registry = None;
              closed = false;
              deferred = false;
              readonly;
              stats = mk_counters ();
              synced = mk_counters ();
            }
          in
          t.stats.c_replayed <- replayed;
          t.stats.c_truncated <- truncated;
          if readonly then begin
            Db.set_readonly db true;
            register_stat_table t db
          end
          else if replica then begin
            (* hot standby: the store appends (shipped frames, raw) but
               the database refuses session DML, and no durability hooks
               are installed — the primary already framed every record,
               re-logging through exec would double-write *)
            Db.set_readonly db true;
            t.registry <- Some (Db.registry db);
            sync_registry t;
            register_stat_table t db
          end
          else attach t db;
          ( t,
            db,
            {
              rec_gen = gen;
              rec_replayed = replayed;
              rec_skipped = failed + List.length uncommitted;
              rec_truncated_bytes = truncated;
            } )))

(* ------------------------------------------------------------------ *)
(* Checkpoint: persist the full state as generation g+1, start a fresh
   log, and only then move the CURRENT pointer.  Every step before the
   pointer rename is invisible to recovery (stale generations are
   garbage-collected on open), so a crash anywhere leaves either the old
   generation or the new one — never a mix.  The live log keeps growing
   until the pointer moves, so a failed checkpoint loses nothing. *)

let checkpoint t db =
  Db.protect (fun () ->
      Trace.span "checkpoint" (fun () ->
          check_usable t;
          if Db.in_transaction db then
            raise
              (Relalg.Scalar.Runtime_error
                 "checkpoint refused inside an open transaction (COMMIT or \
                  ROLLBACK first)");
          Fault.hit ~site:"checkpoint";
          (* write out any batched appends so the old generation's log is
             complete before it is superseded (and so nothing buffered
             leaks across the fd swap) *)
          flush t;
          let g' = t.gen + 1 in
          (match Persist.save db ~dir:(ckpt_dir t.dir g') with
          | Ok () -> ()
          | Error e ->
            raise (Sys_error ("checkpoint save failed: " ^ Error.to_string e)));
          let cleanup_new () =
            (try Persist.rm_rf (ckpt_dir t.dir g') with _ -> ());
            try Sys.remove (wal_file t.dir g') with _ -> ()
          in
          let fd' =
            try
              Fault.hit ~site:"wal_rotate";
              Trace.span "wal_rotate" (fun () ->
                  create_wal_file ~do_fsync:t.do_fsync t.dir g')
            with e ->
              cleanup_new ();
              raise e
          in
          (try
             Fault.hit ~site:"current_rename";
             write_file_atomic (current_file t.dir) (string_of_int g')
           with e ->
             (try Unix.close fd' with _ -> ());
             cleanup_new ();
             raise e);
          (* the pointer moved: generation g' is now the truth.  Swap the
             session over and garbage-collect the old generation. *)
          let old_gen = t.gen in
          (try Unix.close t.fd with _ -> ());
          t.fd <- fd';
          t.gen <- g';
          t.offset <- header_size;
          t.stmt_start <- header_size;
          t.out.a_len <- 0;
          t.stats.c_checkpoints <- t.stats.c_checkpoints + 1;
          sync_registry t;
          (try Persist.rm_rf (ckpt_dir t.dir old_gen) with _ -> ());
          (try Sys.remove (wal_file t.dir old_gen) with _ -> ())))

(* ------------------------------------------------------------------ *)
(* Hot standby (lib/server/replication.ml) *)

let open_replica ?fsync dir = open_dir ?fsync ~replica:true dir
let checkpoint_path ~dir ~gen = ckpt_dir dir gen

(* Full-resync fence: the replica received a complete checkpoint for
   [gen] (already written to [ckpt_dir dir gen] by the caller); start a
   fresh log for that generation and move the pointer.  Ordering matches
   [checkpoint]: the new log exists before CURRENT names it, so a crash
   at any point leaves either the old generation or the new one. *)
let reset_generation t ~gen:g =
  check_usable t;
  let fd' = create_wal_file ~do_fsync:t.do_fsync t.dir g in
  (try write_file_atomic (current_file t.dir) (string_of_int g)
   with e ->
     (try Unix.close fd' with _ -> ());
     raise e);
  (try Unix.close t.fd with _ -> ());
  t.fd <- fd';
  t.gen <- g;
  t.offset <- header_size;
  t.stmt_start <- header_size;
  t.out.a_len <- 0;
  t.txn_buf <- [];
  gc_stale t.dir ~keep:g

(* Promotion: fence the replicated generation behind a checkpoint of the
   applied state (any shipped-but-uncommitted transaction tail in the old
   log is discarded with it), then install the durability hooks and start
   accepting writes.  After this the store is indistinguishable from a
   primary's. *)
let promote t db =
  Db.protect (fun () ->
      Fault.hit ~site:"promote_fence";
      check_usable t;
      (match checkpoint t db with
      | Ok () -> ()
      | Error e -> raise (Sys_error ("promote fence failed: " ^ Error.to_string e)));
      attach t db;
      Db.set_readonly db false)

(* ------------------------------------------------------------------ *)

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try if t.poisoned = None then flush t with _ -> ());
    (try if t.do_fsync then Unix.fsync t.fd with _ -> ());
    (try Unix.close t.fd with _ -> ());
    sync_registry t
  end

(* Simulate kill -9: drop the fd without flush, fsync or truncate
   repair.  Bytes already written survive (they are in the page cache
   exactly as a killed process would leave them); anything still in the
   user-space buffer dies with the "process". *)
let crash_for_testing t =
  if not t.closed then begin
    t.closed <- true;
    t.out.a_len <- 0;
    try Unix.close t.fd with _ -> ()
  end
