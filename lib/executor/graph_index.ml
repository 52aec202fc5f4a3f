module L = Relalg.Lplan

type key = { table : string; src : int list; dst : int list }

(* Bound on the weight memo of one entry: a handful of CHEAPEST SUM
   weight expressions per graph is the common case; each memoized vector
   costs one word per CSR slot (an int array or an unboxed float array). *)
let max_memo_weights = 4

type entry = {
  version : int;
  rows : int;
      (* edge-table rows the graph was built from: a CLI table grows in
         place, so [edges] may hold more by now *)
  runtime : Graph.Runtime.t;
  edges : Storage.Table.t;
  mutable weights : (L.expr * Storage.Dtype.t * Graph.Runtime.aligned) list;
      (* validated, CSR-aligned weight vectors, most recently used first;
         valid for exactly this entry's version, since a new table version
         replaces the whole entry *)
}

type t = {
  enabled : (key, unit) Hashtbl.t;
  cache : (key, entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mu : Mutex.t;
      (* one index instance is shared by the server's shared database and
         every session database (so a graph warmed by the replica's apply
         loop is a hit for the first session query); plain hashtables need
         the lock under concurrent sessions *)
}

let create () =
  {
    enabled = Hashtbl.create 8;
    cache = Hashtbl.create 8;
    hits = 0;
    misses = 0;
    mu = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let normalise k = { k with table = String.lowercase_ascii k.table }

let enable t k = locked t (fun () -> Hashtbl.replace t.enabled (normalise k) ())

let disable t k =
  let k = normalise k in
  locked t (fun () ->
      Hashtbl.remove t.enabled k;
      Hashtbl.remove t.cache k)

let is_enabled t k = locked t (fun () -> Hashtbl.mem t.enabled (normalise k))

(* Under the lock, [k] normalised: a fresh entry is a hit; a stale one
   is a miss, taken out of the cache and handed back for extension. *)
let find t k ~version =
  match Hashtbl.find_opt t.cache k with
  | Some e when e.version = version ->
    t.hits <- t.hits + 1;
    `Fresh e
  | found ->
    Option.iter (fun _ -> Hashtbl.remove t.cache k) found;
    t.misses <- t.misses + 1;
    `Stale found

let lookup t k ~version =
  let k = normalise k in
  locked t (fun () ->
      match find t k ~version with
      | `Fresh e -> Some (e.runtime, e.edges)
      | `Stale _ -> None)

type source = Hit | Extended of int | Built

(* The stale entry [e]'s graph extended by the rows appended to [edges]
   since it was built, with the count of those rows — when that is
   provably the graph a fresh build would make: the key columns still
   hold [e]'s rows as a prefix, and Runtime.extend finds the dictionary
   ids unchanged (DESIGN.md §6). Composite keys always rebuild. *)
let extension k e edges =
  match k.src, k.dst with
  | [ s ], [ d ] ->
    let col tbl i = Storage.Table.column tbl i in
    let kept i = Storage.Column.equal_prefix (col e.edges i) (col edges i) e.rows in
    if kept s && kept d then
      Graph.Runtime.extend e.runtime ~src:(col edges s) ~dst:(col edges d)
        ~from:e.rows
      |> Option.map (fun rt -> (rt, Storage.Table.nrows edges - e.rows))
    else None
  | _ -> None

let obtain ?(check = Graph.Cancel.none) t k ~version ~edges =
  let k = normalise k in
  match locked t (fun () -> find t k ~version) with
  | `Fresh e -> (e.runtime, e.edges, Hit)
  | `Stale stale ->
    let edges = edges () in
    let rows = Storage.Table.nrows edges in
    (* a last cancellation point before the long uncheckpointed
       dictionary/CSR construction *)
    Graph.Cancel.report check ~site:"graph_build" ();
    let runtime, source =
      match Option.bind stale (fun e -> extension k e edges) with
      | Some (rt, appended) -> (rt, Extended appended)
      | None ->
        let col i = Storage.Table.column edges i in
        ( Graph.Runtime.build_multi ~src:(List.map col k.src)
            ~dst:(List.map col k.dst),
          Built )
    in
    (* a cached graph will be traversed again: pay one O(V+E) pass now
       for the reverse CSR so every later batch can direction-optimize.
       An extended graph derives it from the stale entry's, which is out
       of the cache by now, so the old forward slots are unreachable *)
    Graph.Runtime.prepare_bidir runtime;
    locked t (fun () ->
        if Hashtbl.mem t.enabled k then
          Hashtbl.replace t.cache k
            { version; rows; runtime; edges; weights = [] });
    (runtime, edges, source)

(* A weight expression may be memoized only when it reads nothing but the
   edge table's row: a subquery reads tables whose versions the entry does
   not track, and an outer column changes with the enclosing row. *)
let rec memoizable (e : L.expr) =
  match e.L.node with
  | L.Const _ | L.Col _ -> true
  | L.Bin (_, a, b) -> memoizable a && memoizable b
  | L.Un (_, a) | L.Cast (a, _) -> memoizable a
  | L.Case (arms, default) ->
    List.for_all (fun (c, v) -> memoizable c && memoizable v) arms
    && Option.fold ~none:true ~some:memoizable default
  | L.Call (_, args) -> List.for_all memoizable args
  | L.Is_null { arg; _ } -> memoizable arg
  | L.In_list { arg; candidates; _ } ->
    memoizable arg && List.for_all memoizable candidates
  | L.Like { arg; pattern; _ } -> memoizable arg && memoizable pattern
  | L.Outer_col _ | L.Agg_call _ | L.In_subquery _ | L.Subquery _
  | L.Exists_sub _ | L.Subquery_corr _ | L.Exists_corr _
  | L.In_subquery_corr _ ->
    false

(* The cached entry that holds [runtime], if it is still current: a new
   table version replaces the whole entry, so an entry that still holds
   [runtime] is at the version its memoized vectors were computed for. *)
let entry_of t k runtime =
  match Hashtbl.find_opt t.cache (normalise k) with
  | Some e when e.runtime == runtime -> Some e
  | _ -> None

let same expr cost_ty (e, ty, _) =
  Storage.Dtype.equal ty cost_ty && L.expr_equal e expr

let find_weights t k runtime expr ~cost_ty =
  if not (memoizable expr) then None
  else
    locked t (fun () ->
        match entry_of t k runtime with
        | None -> None
        | Some e -> (
          match List.find_opt (same expr cost_ty) e.weights with
          | None -> None
          | Some ((_, _, aligned) as hit) ->
            e.weights <- hit :: List.filter (fun m -> m != hit) e.weights;
            Some aligned))

let store_weights t k runtime expr ~cost_ty aligned =
  if memoizable expr then
    locked t (fun () ->
        match entry_of t k runtime with
        | None -> ()
        | Some e ->
          let rest =
            List.filter (fun m -> not (same expr cost_ty m)) e.weights
          in
          e.weights <-
            List.filteri
              (fun i _ -> i < max_memo_weights)
              ((expr, cost_ty, aligned) :: rest))

let keys t =
  locked t (fun () -> Hashtbl.fold (fun k () acc -> k :: acc) t.enabled [])
  |> List.sort (fun a b -> String.compare a.table b.table)

let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)

(* The replica's apply loop calls this after catching up, so the first
   post-failover path query is a cache hit instead of paying the
   dominating construction cost. *)
let warm t ~catalog =
  List.fold_left
    (fun built k ->
      match Storage.Catalog.find catalog k.table with
      | None -> built
      | Some edges -> (
        let version =
          Option.value (Storage.Catalog.version catalog k.table) ~default:0
        in
        match obtain t k ~version ~edges:(fun () -> edges) with
        | _, _, Hit -> built
        | _, _, (Extended _ | Built) -> built + 1))
    0 (keys t)
