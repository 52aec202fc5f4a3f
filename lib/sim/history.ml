(* One history checker; history.mli states the invariants and the read
   rule.  Recording conses events under one mutex and [check] judges a
   copy offline.  One pass in record order checks snapshot monotonicity
   and notes the version each session had seen before each ambiguous
   write (it lands only above it).  A sweep in version order then, at
   each version, admits the ambiguous writes that could land there,
   applies the acked writes (judging their counts), judges the reads and
   tries the pending standby reads; final reads come last.  Per table the
   model keeps the acked rows ([lo]) and the admitted ambiguous rows
   ([amb]) as multisets: a read at v lies between [lo] and [lo + amb]. *)

module Protocol = Sqlgraph_server.Protocol
module Client = Sqlgraph_server.Client

type effect =
  | Insert of { table : string; key : int; value : int }
  | Delete of { table : string; key : int }

type at = At of int | Prefix | Final
type result = Count of int | Rows of (int * int) list

type event =
  | Seen of { session : int; version : int }
  | Acked of { session : int; version : int; count : int; effects : effect list }
      (* count -1: none reported *)
  | Refused of effect list
  | Ambiguous of { session : int; effects : effect list }
  | Read of { session : int; at : at; table : string; result : result }
  | Unexpected of { session : int; what : string }

type t = {
  mu : Mutex.t;
  mutable events : event list; (* newest first *)
  preloaded : (string, int) Hashtbl.t;
}

let create () = { mu = Mutex.create (); events = []; preloaded = Hashtbl.create 4 }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let record t e = locked t (fun () -> t.events <- e :: t.events)
let find0 tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)

let preload t ~table n =
  locked t (fun () -> Hashtbl.replace t.preloaded table (n + find0 t.preloaded table))

let seen t ~session version = record t (Seen { session; version })

let acked t ~session ~version ?(count = -1) effects =
  record t (Acked { session; version; count; effects })

let refused t effects = record t (Refused effects)
let ambiguous t ~session effects = record t (Ambiguous { session; effects })
let read t ~session at ~table result = record t (Read { session; at; table; result })
let unexpected t ~session what = record t (Unexpected { session; what })

(* ------------------------------------------------------------------ *)
(* Served replies *)

let seen_reply t ~session lines =
  List.iter
    (fun l ->
      match Protocol.decode_reply l with
      | Some (Protocol.Hello { snapshot; _ } | Protocol.Ok { snapshot; _ }) ->
        seen t ~session snapshot
      | _ -> ())
    lines

let served_write t ~session effects send =
  match send () with
  | lines ->
    (match Protocol.decode_reply (Client.terminal lines) with
    | Some (Protocol.Ok { snapshot; count; _ }) ->
      acked t ~session ~version:snapshot ?count effects
    | Some (Protocol.Err { category = "busy"; _ }) -> refused t effects
    | _ -> ambiguous t ~session effects);
    lines
  | exception e ->
    ambiguous t ~session effects;
    raise e

let served_txn t ~session ~commit writes send =
  (* only a COMMIT lands a transaction's rows *)
  if not commit then refused t (List.map fst writes);
  Client.is_ok (send "BEGIN")
  &&
  let oks = ref [] and others = ref [] in
  (* a failed insert may or may not count, on its own *)
  let settle version =
    if commit then begin
      (match version with
      | Some version -> acked t ~session ~version (List.rev !oks)
      | None -> ambiguous t ~session (List.rev !oks));
      List.iter (fun e -> ambiguous t ~session [ e ]) !others
    end
  in
  match
    List.iter
      (fun (e, sql) ->
        match send sql with
        | lines when Client.is_ok lines -> oks := e :: !oks
        | _ -> others := e :: !others
        | exception ex ->
          others := e :: !others;
          raise ex)
      writes;
    send (if commit then "COMMIT" else "ROLLBACK")
  with
  | lines ->
    settle (Client.snapshot lines);
    !others = [] && Client.is_ok lines
  | exception ex ->
    settle None;
    raise ex

let served_read t ~session ?at ~table shape lines =
  let cells =
    List.filter_map
      (fun l ->
        match Protocol.decode_reply l with
        | Some (Protocol.Row cells) ->
          Some (List.map (fun c -> int_of_string_opt (String.trim c)) cells)
        | _ -> None)
      lines
  in
  let pair = function [ Some k; Some v ] -> Some (k, v) | _ -> None in
  match Client.snapshot lines with
  | Some snapshot -> (
    let at = Option.value at ~default:(At snapshot) in
    match (shape, cells) with
    | `Count, [ [ Some n ] ] -> read t ~session at ~table (Count n)
    | `Rows, _ when List.for_all (fun c -> pair c <> None) cells ->
      read t ~session at ~table (Rows (List.filter_map pair cells))
    | _ -> unexpected t ~session ("read of " ^ table ^ ": a reply of another shape"))
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Checking *)

type invariant =
  | Acked_lost
  | Refused_survived
  | Partial_txn
  | Fabricated
  | Snapshot_regressed
  | Conservation
  | Stale_read
  | Future_read
  | Outcome

let invariant_name = function
  | Acked_lost -> "acked_lost"
  | Refused_survived -> "refused_survived"
  | Partial_txn -> "partial_txn"
  | Fabricated -> "fabricated"
  | Snapshot_regressed -> "snapshot_regressed"
  | Conservation -> "conservation"
  | Stale_read -> "stale_read"
  | Future_read -> "future_read"
  | Outcome -> "outcome"

type report = { judged : (invariant * int) list; violations : (invariant * string) list }

let judged r inv = Option.value ~default:0 (List.assoc_opt inv r.judged)
let describe r = List.map (fun (inv, msg) -> invariant_name inv ^ ": " ^ msg) r.violations

(* A multiset of (key, value) rows, by key. *)
module Bag = struct
  type t = { rows : (int, int list) Hashtbl.t; mutable size : int }

  let create () = { rows = Hashtbl.create 16; size = 0 }
  let values b k = Option.value ~default:[] (Hashtbl.find_opt b.rows k)
  let count b k v = List.length (List.filter (( = ) v) (values b k))

  let add b k v =
    Hashtbl.replace b.rows k (v :: values b k);
    b.size <- b.size + 1

  let remove_key b k =
    let n = List.length (values b k) in
    Hashtbl.remove b.rows k;
    b.size <- b.size - n;
    n

  let iter b f = Hashtbl.iter (fun k -> List.iter (f k)) b.rows
end

(* The model of one table. *)
type table = {
  lo : Bag.t; (* rows of the acked writes applied so far *)
  amb : Bag.t; (* rows of the ambiguous writes admitted so far *)
  refused : Bag.t;
  base : int; (* preloaded anonymous rows *)
  mutable deletes : int; (* delete effects applied so far *)
  mutable pending : int; (* acked writes applied since a read last covered them *)
  mutable groups : (int * int) list list; (* admitted multi-row writes *)
}

let tables_of effects =
  List.sort_uniq compare
    (List.map (function Insert { table; _ } | Delete { table; _ } -> table) effects)

let inserts name =
  List.filter_map (function
    | Insert { table; key; value } when table = name -> Some (key, value)
    | _ -> None)

let check t =
  let events, preloaded =
    locked t (fun () -> (Array.of_list (List.rev t.events), Hashtbl.copy t.preloaded))
  in
  let violations = ref [] and counts = Hashtbl.create 8 in
  let violate inv fmt = Printf.ksprintf (fun m -> violations := (inv, m) :: !violations) fmt in
  let bump inv n = Hashtbl.replace counts inv (n + find0 counts inv) in
  let tables = Hashtbl.create 4 in
  let tbl name =
    match Hashtbl.find_opt tables name with
    | Some tb -> tb
    | None ->
      let tb =
        { lo = Bag.create (); amb = Bag.create (); refused = Bag.create ();
          base = find0 preloaded name; deletes = 0; pending = 0; groups = [] }
      in
      Hashtbl.replace tables name tb;
      tb
  in
  (* every row anyone wrote, to tell a future read from a fabricated one *)
  let written =
    lazy
      (let w = Hashtbl.create 64 in
       Array.iter
         (function
           | Acked { effects; _ } | Ambiguous { effects; _ } ->
             List.iter
               (function
                 | Insert { table; key; value } -> Hashtbl.replace w (table, key, value) ()
                 | Delete _ -> ())
               effects
           | _ -> ())
         events;
       w)
  in
  (* ---- pass 1, in record order: snapshots, floors, and the sweep's
     items (event indices), keyed (version, phase): at each version the
     ambiguous writes that could land there are admitted (phase 0), its
     acked writes applied (1), its reads judged (2) *)
  let last_seen = Hashtbl.create 16 and floor_of = Hashtbl.create 16 in
  let raise_floor session v =
    match Hashtbl.find_opt floor_of session with
    | Some f when f >= v -> ()
    | _ -> Hashtbl.replace floor_of session v
  in
  let items = ref [] and finals = ref [] and prefix = Hashtbl.create 4 in
  let lands_from = Hashtbl.create 16 in
  let row_reads = ref false and refused_n = ref 0 and groups_n = ref 0 in
  Array.iteri
    (fun seq ev ->
      match ev with
      | Seen { session; version } ->
        bump Snapshot_regressed 1;
        (match Hashtbl.find_opt last_seen session with
        | Some last when version < last ->
          violate Snapshot_regressed "session %d: snapshot %d after %d" session version last
        | _ -> Hashtbl.replace last_seen session version);
        raise_floor session version
      | Acked { session; version; _ } ->
        raise_floor session version;
        items := seq :: !items
      | Refused effects ->
        incr refused_n;
        List.iter
          (fun name -> List.iter (fun (k, v) -> Bag.add (tbl name).refused k v) (inserts name effects))
          (tables_of effects)
      | Ambiguous { session; effects } ->
        if List.length effects > 1 then incr groups_n;
        let floor = Option.value ~default:min_int (Hashtbl.find_opt floor_of session) in
        Hashtbl.replace lands_from seq (Int.add floor 1);
        items := seq :: !items
      | Read { session; at; result; _ } -> (
        (match result with Rows _ -> row_reads := true | Count _ -> ());
        match at with
        | At v ->
          raise_floor session v;
          items := seq :: !items
        | Final -> finals := ev :: !finals
        | Prefix ->
          if not (Hashtbl.mem prefix session) then Hashtbl.replace prefix session (Queue.create ());
          Queue.push ev (Hashtbl.find prefix session))
      | Unexpected { session; what } -> violate Outcome "session %d: %s" session what)
    events;
  if !row_reads then (
    bump Refused_survived !refused_n;
    bump Partial_txn !groups_n);
  (* ---- pass 2: the sweep ---- *)
  (* (session, table) -> the ambiguous rows the session last saw, and
     the table's delete count then *)
  let floors = Hashtbl.create 16 in
  let verdicts ~at ~session ~table result =
    let tb = tbl table in
    let lo = tb.base + tb.lo.size in
    let hi = lo + tb.amb.size in
    let floor =
      match Option.bind session (fun s -> Hashtbl.find_opt floors (s, table)) with
      | Some (e, d) when d = tb.deletes -> lo + e
      | _ -> lo
    in
    let where =
      (match session with Some s -> Printf.sprintf "session %d: " s | None -> "")
      ^ "read of " ^ table
      ^
      match at with
      | At v -> Printf.sprintf " at version %d" v
      | Prefix -> " on a standby"
      | Final -> " after everything settled"
    in
    let missing = if at = Final then Acked_lost else Stale_read in
    let found = ref [] in
    let note inv fmt =
      Printf.ksprintf
        (fun m -> if not (List.mem_assoc inv !found) then found := (inv, where ^ m) :: !found)
        fmt
    in
    let n =
      match result with
      | Count n -> n
      | Rows rows ->
        let got = Bag.create () in
        List.iter (fun (k, v) -> Bag.add got k v) rows;
        let extra k v = Bag.count got k v - Bag.count tb.lo k v in
        Bag.iter tb.lo (fun k v -> if extra k v < 0 then note missing ": acked row (%d, %d) missing" k v);
        Bag.iter got (fun k v ->
            if extra k v > Bag.count tb.amb k v then
              if Bag.count tb.refused k v > 0 then note Refused_survived ": refused row (%d, %d) present" k v
              else if at <> Final && Hashtbl.mem (Lazy.force written) (table, k, v) then
                note Future_read ": row (%d, %d) is written only later" k v
              else note Fabricated ": row (%d, %d) was never written" k v);
        List.iter
          (fun group ->
            let landed = List.length (List.filter (fun (k, v) -> extra k v > 0) group) in
            if landed > 0 && landed < List.length group then
              note Partial_txn ": %d of a transaction's %d rows landed" landed (List.length group))
          tb.groups;
        got.size
    in
    if !found = [] then
      if n < floor then note missing " counted %d rows, the serial state holds %d..%d" n floor hi
      else if n > hi then
        note (if at = Final then Fabricated else Future_read)
          " counted %d rows, the serial state holds %d..%d" n floor hi;
    (n, List.rev !found)
  in
  let covered ~table result =
    let tb = tbl table in
    bump Acked_lost tb.pending;
    tb.pending <- 0;
    bump Stale_read 1;
    bump Future_read 1;
    match result with Rows _ -> bump Fabricated 1 | Count _ -> ()
  in
  let judge = function
    | Read { session; at; table; result } ->
      covered ~table result;
      let n, vs = verdicts ~at ~session:(Some session) ~table result in
      List.iter (fun (inv, m) -> violate inv "%s" m) vs;
      let tb = tbl table in
      if vs = [] then Hashtbl.replace floors (session, table) (n - tb.base - tb.lo.size, tb.deletes)
    | _ -> ()
  in
  (* each standby session's reads must match non-decreasing prefixes:
     pop every read that matches the state reached *)
  let try_prefix () =
    Hashtbl.iter
      (fun _ q ->
        let rec go () =
          match Queue.peek_opt q with
          | Some (Read { at; table; result; _ })
            when snd (verdicts ~at ~session:None ~table result) = [] ->
            covered ~table result;
            ignore (Queue.pop q);
            go ()
          | _ -> ()
        in
        go ())
      prefix
  in
  let admit effects =
    List.iter
      (fun name ->
        let tb = tbl name and rows = inserts name effects in
        List.iter (fun (k, v) -> Bag.add tb.amb k v) rows;
        if List.length rows > 1 then tb.groups <- rows :: tb.groups)
      (tables_of effects)
  in
  let apply session version count effects =
    (* the rows the model inserts or deletes, and the ambiguous rows a
       delete may also have removed *)
    let lo = ref 0 and slack = ref 0 in
    List.iter
      (function
        | Insert { table; key; value } ->
          Bag.add (tbl table).lo key value;
          incr lo
        | Delete { table; key } ->
          let tb = tbl table in
          lo := !lo + Bag.remove_key tb.lo key;
          slack := !slack + List.length (Bag.values tb.amb key);
          tb.deletes <- tb.deletes + 1)
      effects;
    List.iter (fun name -> (tbl name).pending <- (tbl name).pending + 1) (tables_of effects);
    if count >= 0 then (
      bump Conservation 1;
      if count < !lo || count > !lo + !slack then
        violate Conservation
          "session %d: write acked at version %d reported %d rows, the serial model %d..%d"
          session version count !lo (!lo + !slack))
  in
  let key i =
    match events.(i) with
    | Acked { version; _ } -> (version, 1)
    | Read { at = At v; _ } -> (v, 2)
    | _ -> (Hashtbl.find lands_from i, 0)
  in
  let order = Array.of_list (List.rev !items) in
  Array.stable_sort (fun i j -> compare (key i) (key j)) order;
  try_prefix ();
  Array.iter
    (fun i ->
      (match events.(i) with
      | Ambiguous { effects; _ } -> admit effects
      | Acked { session; version; count; effects } -> apply session version count effects
      | ev -> judge ev);
      try_prefix ())
    order;
  List.iter judge (List.rev !finals);
  Hashtbl.iter
    (fun session q ->
      Queue.iter
        (function
          | Read { table; result; _ } ->
            covered ~table result;
            violate
              (match verdicts ~at:Final ~session:None ~table result with
              | _, (Fabricated, _) :: _ -> Future_read
              | _ -> Stale_read)
              "session %d: a standby read of %s matches no prefix of the commit order at or \
               after the session's previous one"
              session table
          | _ -> ())
        q)
    prefix;
  {
    judged =
      List.map
        (fun inv -> (inv, find0 counts inv))
        [ Acked_lost; Refused_survived; Partial_txn; Fabricated; Snapshot_regressed;
          Conservation; Stale_read; Future_read ];
    violations = List.rev !violations;
  }
