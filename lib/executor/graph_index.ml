module L = Relalg.Lplan

type key = { table : string; src : int list; dst : int list }

(* Bound on the weight memo of one entry: a handful of CHEAPEST SUM
   weight expressions per graph is the common case; each memoized vector
   costs one word per CSR slot (an int array or an unboxed float array). *)
let max_memo_weights = 4

type entry = {
  version : int;
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

let lookup t k ~version =
  let k = normalise k in
  locked t (fun () ->
      match Hashtbl.find_opt t.cache k with
      | Some e when e.version = version ->
        t.hits <- t.hits + 1;
        Some (e.runtime, e.edges)
      | Some _ ->
        Hashtbl.remove t.cache k;
        t.misses <- t.misses + 1;
        None
      | None ->
        t.misses <- t.misses + 1;
        None)

let store t k ~version runtime edges =
  let k = normalise k in
  locked t (fun () ->
      if Hashtbl.mem t.enabled k then
        Hashtbl.replace t.cache k { version; runtime; edges; weights = [] })

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

let clear_cache t = locked t (fun () -> Hashtbl.reset t.cache)
let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)

(* [warm t ~catalog] — build (or refresh) the cached graph of every
   enabled key whose base table exists in [catalog], exactly as the
   executor would on a cache miss (build_multi + prepare_bidir, so both
   traversal directions are ready).  The replica's apply loop calls this
   after catching up, so the first post-failover path query is a cache
   hit instead of paying the dominating construction cost.  Returns the
   number of graphs built; keys whose table is absent are skipped. *)
let warm t ~catalog =
  let built = ref 0 in
  List.iter
    (fun k ->
      match Storage.Catalog.find catalog k.table with
      | None -> ()
      | Some edges -> (
        let version =
          match Storage.Catalog.version catalog k.table with
          | Some v -> v
          | None -> 0
        in
        match lookup t k ~version with
        | Some _ -> ()
        | None ->
          let col i = Storage.Table.column edges i in
          let runtime =
            Graph.Runtime.build_multi ~src:(List.map col k.src)
              ~dst:(List.map col k.dst)
          in
          Graph.Runtime.prepare_bidir runtime;
          store t k ~version runtime edges;
          incr built))
    (keys t);
  !built
