(* Bounded ring-buffer span recorder.  See trace.mli for the contract.

   Layout: one struct-of-arrays ring shared by all domains.  A writer
   reserves a slot with a single [Atomic.fetch_and_add] on the global
   event counter and then fills the slot's columns in place — no
   allocation per event (timestamps live in a flat float array, so even
   the float store does not box).  Slot writes are not synchronized
   beyond the reservation: two domains never share a slot, and readers
   ([events]) are documented as between-statement snapshots, so a torn
   read of an in-flight slot is benign. *)

type clock = unit -> float

let the_clock : clock ref = ref Unix.gettimeofday
let set_clock c = the_clock := c
let now () = !the_clock ()

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

(* Event kinds, as ints in the ring. *)
let k_begin = 0
let k_end = 1
let k_instant = 2

type ring = {
  cap : int;
  ts : float array;  (* flat float array: unboxed stores *)
  kind : int array;
  track : int array;
  span : int array;
  parent : int array;
  query : int array;
  name : string array;
  attrs : (string * string) list array;
}

let mk_ring cap =
  {
    cap;
    ts = Array.make cap 0.0;
    kind = Array.make cap 0;
    track = Array.make cap 0;
    span = Array.make cap 0;
    parent = Array.make cap 0;
    query = Array.make cap 0;
    name = Array.make cap "";
    attrs = Array.make cap [];
  }

let ring = ref (mk_ring 65536)

(* Total events ever written (mod nothing); slot = index mod cap.  Also
   the source of "dropped" accounting. *)
let head = Atomic.make 0
let base = Atomic.make 0 (* events discarded by [clear] *)
let span_ctr = Atomic.make 0
let query_ctr = Atomic.make 0

let clear () =
  Atomic.set base (Atomic.get head);
  (* Reset head to base lazily: keep monotonic indices, just remember
     where the live window starts. *)
  ()

let configure ~capacity =
  let cap = max 16 capacity in
  ring := mk_ring cap;
  Atomic.set head 0;
  Atomic.set base 0

(* Per-domain stack of open span ids: a growable int array so pushes
   after warm-up allocate nothing.  [query] is the statement id every
   event recorded on this track is stamped with. *)
type stack = { mutable buf : int array; mutable len : int; mutable query : int }

let new_stack () = { buf = Array.make 32 (-1); len = 0; query = 0 }
let stack_key = Domain.DLS.new_key new_stack

let push st v =
  if st.len = Array.length st.buf then begin
    let bigger = Array.make (2 * st.len) (-1) in
    Array.blit st.buf 0 bigger 0 st.len;
    st.buf <- bigger
  end;
  st.buf.(st.len) <- v;
  st.len <- st.len + 1

(* Multi-threaded sessions (the server runs one systhread per client,
   all in one domain) register a per-thread track: their own timeline id
   and their own span stack, so interleaved statements from different
   sessions cannot corrupt each other's nesting.  Keyed by [Thread.id];
   the registration table is only consulted when non-empty, so
   single-threaded sessions pay one atomic load on top of the DLS
   lookup. *)
type ctx = { ctx_track : int; ctx_stack : stack }

let thread_ctxs : (int, ctx) Hashtbl.t = Hashtbl.create 8
let thread_ctxs_mu = Mutex.create ()
let have_thread_ctxs = Atomic.make false

let register_thread_track track =
  let key = Thread.id (Thread.self ()) in
  Mutex.lock thread_ctxs_mu;
  Hashtbl.replace thread_ctxs key
    { ctx_track = track; ctx_stack = new_stack () };
  Atomic.set have_thread_ctxs true;
  Mutex.unlock thread_ctxs_mu

let unregister_thread_track () =
  let key = Thread.id (Thread.self ()) in
  Mutex.lock thread_ctxs_mu;
  Hashtbl.remove thread_ctxs key;
  if Hashtbl.length thread_ctxs = 0 then Atomic.set have_thread_ctxs false;
  Mutex.unlock thread_ctxs_mu

let current_ctx () =
  if Atomic.get have_thread_ctxs then begin
    let key = Thread.id (Thread.self ()) in
    Mutex.lock thread_ctxs_mu;
    let c = Hashtbl.find_opt thread_ctxs key in
    Mutex.unlock thread_ctxs_mu;
    match c with
    | Some c -> c
    | None ->
      { ctx_track = (Domain.self () :> int); ctx_stack = Domain.DLS.get stack_key }
  end
  else
    { ctx_track = (Domain.self () :> int); ctx_stack = Domain.DLS.get stack_key }

(* The statement id lives on the track, not in a global: two sessions
   interleaving statements each keep stamping their own. *)
let set_query q = (current_ctx ()).ctx_stack.query <- q

let next_query () =
  let q = 1 + Atomic.fetch_and_add query_ctr 1 in
  if Atomic.get on then set_query q;
  q

let current_query () = (current_ctx ()).ctx_stack.query

let record kind ~track ~query ~name ~sp ~parent ~attrs =
  let r = !ring in
  let i = Atomic.fetch_and_add head 1 in
  let s = i mod r.cap in
  r.ts.(s) <- now ();
  r.kind.(s) <- kind;
  r.track.(s) <- track;
  r.span.(s) <- sp;
  r.parent.(s) <- parent;
  r.query.(s) <- query;
  r.name.(s) <- name;
  r.attrs.(s) <- attrs

let begin_span ?parent ?(attrs = []) name =
  if not (Atomic.get on) then -1
  else begin
    let c = current_ctx () in
    let st = c.ctx_stack in
    let parent =
      match parent with
      | Some p -> p
      | None -> if st.len = 0 then -1 else st.buf.(st.len - 1)
    in
    let sp = 1 + Atomic.fetch_and_add span_ctr 1 in
    push st sp;
    record k_begin ~track:c.ctx_track ~query:st.query ~name ~sp ~parent ~attrs;
    sp
  end

let end_span ?(attrs = []) sp =
  if sp >= 0 && Atomic.get on then begin
    let c = current_ctx () in
    let st = c.ctx_stack in
    let track = c.ctx_track and query = st.query in
    (* Find [sp] on this track's stack; close any children above it
       first so an exceptional unwind cannot leave the track skewed. *)
    let pos = ref (-1) in
    for i = st.len - 1 downto 0 do
      if !pos < 0 && st.buf.(i) = sp then pos := i
    done;
    if !pos < 0 then
      (* Not opened on this track (or stack already unwound): record
         the end anyway so the pair completes. *)
      record k_end ~track ~query ~name:"" ~sp ~parent:(-1) ~attrs
    else begin
      for i = st.len - 1 downto !pos + 1 do
        record k_end ~track ~query ~name:"" ~sp:st.buf.(i) ~parent:(-1)
          ~attrs:[]
      done;
      st.len <- !pos;
      record k_end ~track ~query ~name:"" ~sp ~parent:(-1) ~attrs
    end
  end

let instant ?(attrs = []) name =
  if Atomic.get on then begin
    let c = current_ctx () in
    let st = c.ctx_stack in
    let parent = if st.len = 0 then -1 else st.buf.(st.len - 1) in
    record k_instant ~track:c.ctx_track ~query:st.query ~name ~sp:(-1) ~parent
      ~attrs
  end

let span ?attrs name f =
  if not (Atomic.get on) then f ()
  else begin
    let sp = begin_span ?attrs name in
    Fun.protect ~finally:(fun () -> end_span sp) f
  end

let current_span () =
  let st = (current_ctx ()).ctx_stack in
  if st.len = 0 then -1 else st.buf.(st.len - 1)

type kind = Begin | End | Instant

type event = {
  ev_kind : kind;
  ev_ts : float;
  ev_name : string;
  ev_track : int;
  ev_span : int;
  ev_parent : int;
  ev_query : int;
  ev_attrs : (string * string) list;
}

let live_window () =
  let r = !ring in
  let h = Atomic.get head and b = Atomic.get base in
  let first = max b (h - r.cap) in
  (r, first, h)

let events_of keep =
  let r, first, h = live_window () in
  (* End events store no name in the ring (the writer doesn't know it);
     re-join from the Begin still in the window so readers see pairs. *)
  let names = Hashtbl.create 64 in
  let out = ref [] in
  for i = first to h - 1 do
    let s = i mod r.cap in
    if keep r.query.(s) then begin
      let k =
        if r.kind.(s) = k_begin then Begin
        else if r.kind.(s) = k_end then End
        else Instant
      in
      let name =
        match k with
        | Begin ->
          Hashtbl.replace names r.span.(s) r.name.(s);
          r.name.(s)
        | End when r.name.(s) = "" ->
          Option.value ~default:"" (Hashtbl.find_opt names r.span.(s))
        | _ -> r.name.(s)
      in
      out :=
        {
          ev_kind = k;
          ev_ts = r.ts.(s);
          ev_name = name;
          ev_track = r.track.(s);
          ev_span = r.span.(s);
          ev_parent = r.parent.(s);
          ev_query = r.query.(s);
          ev_attrs = r.attrs.(s);
        }
        :: !out
    end
  done;
  List.rev !out

let events () = events_of (fun _ -> true)

let dropped () =
  let r = !ring in
  let h = Atomic.get head and b = Atomic.get base in
  max 0 (h - b - r.cap)

(* Completed spans of one statement: (span, parent, name, dur).  End
   events carry no name, so join on span id.  Only the statement's own
   events are materialized: the ring can hold 65536. *)
let completed_spans ~query =
  let begins = Hashtbl.create 64 in
  let spans = ref [] in
  List.iter
    (fun e ->
      match e.ev_kind with
      | Begin -> Hashtbl.replace begins e.ev_span (e.ev_name, e.ev_parent, e.ev_ts)
      | End -> (
          match Hashtbl.find_opt begins e.ev_span with
          | Some (name, parent, t0) ->
              Hashtbl.remove begins e.ev_span;
              spans := (e.ev_span, parent, name, e.ev_ts -. t0) :: !spans
          | None -> ())
      | Instant -> ())
    (events_of (Int.equal query));
  !spans

let self_ms_by_name ~query =
  let spans = completed_spans ~query in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun (_, parent, _, dur) ->
      if parent >= 0 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_time parent) in
        Hashtbl.replace child_time parent (prev +. dur))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (sp, _, name, dur) ->
      let kids = Option.value ~default:0.0 (Hashtbl.find_opt child_time sp) in
      let self = Float.max 0.0 (dur -. kids) in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_name name) in
      Hashtbl.replace by_name name (prev +. self))
    spans;
  Hashtbl.fold (fun name s acc -> (name, 1000.0 *. s) :: acc) by_name []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

(* --- Chrome trace-event export ------------------------------------- *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let to_catapult () =
  let evs = events () in
  (* The ring evicts oldest-first, so after a wrap the buffer can open
     with End events whose Begin was overwritten. Chrome (and our own
     json_lint) reject an E with no open span on its track — drop those
     orphans so a wrapped dump is still well-formed. *)
  let evs =
    let depth = Hashtbl.create 8 in
    List.filter
      (fun e ->
        let d = Option.value ~default:0 (Hashtbl.find_opt depth e.ev_track) in
        match e.ev_kind with
        | Begin ->
          Hashtbl.replace depth e.ev_track (d + 1);
          true
        | End ->
          if d > 0 then Hashtbl.replace depth e.ev_track (d - 1);
          d > 0
        | Instant -> true)
      evs
  in
  let t0 = match evs with [] -> 0.0 | e :: _ -> e.ev_ts in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  (* End events carry no name; chrome matches B/E by nesting per tid, so
     re-join names for readability. *)
  let names = Hashtbl.create 64 in
  List.iter
    (fun e ->
      (match e.ev_kind with
      | Begin -> Hashtbl.replace names e.ev_span e.ev_name
      | _ -> ());
      let name =
        if e.ev_name <> "" then e.ev_name
        else Option.value ~default:"span" (Hashtbl.find_opt names e.ev_span)
      in
      let ph =
        match e.ev_kind with Begin -> "B" | End -> "E" | Instant -> "i"
      in
      if not !first then Buffer.add_char b ',';
      first := false;
      Buffer.add_string b "{\"name\":\"";
      escape b name;
      Buffer.add_string b (Printf.sprintf
        "\",\"cat\":\"sqlgraph\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":%d"
        ph ((e.ev_ts -. t0) *. 1e6) e.ev_track);
      (match e.ev_kind with
      | Instant -> Buffer.add_string b ",\"s\":\"t\""
      | _ -> ());
      Buffer.add_string b ",\"args\":{\"query\":";
      Buffer.add_string b (string_of_int e.ev_query);
      if e.ev_kind = Begin then begin
        Buffer.add_string b ",\"span\":";
        Buffer.add_string b (string_of_int e.ev_span);
        Buffer.add_string b ",\"parent\":";
        Buffer.add_string b (string_of_int e.ev_parent)
      end;
      List.iter
        (fun (k, v) ->
          Buffer.add_string b ",\"";
          escape b k;
          Buffer.add_string b "\":\"";
          escape b v;
          Buffer.add_string b "\"")
        e.ev_attrs;
      Buffer.add_string b "}}")
    evs;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

let write_catapult ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_catapult ()))
