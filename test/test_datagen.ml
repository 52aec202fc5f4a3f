(* Data generator and workload tests. *)

module V = Storage.Value
module T = Storage.Table

open Testjson.Support

let test_splitmix_determinism () =
  let a = Datagen.Splitmix.create ~seed:42 in
  let b = Datagen.Splitmix.create ~seed:42 in
  let xs = List.init 100 (fun _ -> Datagen.Splitmix.next a) in
  let ys = List.init 100 (fun _ -> Datagen.Splitmix.next b) in
  check tbool "same stream" true (xs = ys);
  let c = Datagen.Splitmix.create ~seed:43 in
  let zs = List.init 100 (fun _ -> Datagen.Splitmix.next c) in
  check tbool "different seed differs" false (xs = zs)

let test_splitmix_ranges () =
  let rng = Datagen.Splitmix.create ~seed:7 in
  for _ = 1 to 1000 do
    let i = Datagen.Splitmix.int rng ~bound:10 in
    if i < 0 || i >= 10 then Alcotest.fail "int out of range";
    let f = Datagen.Splitmix.float rng in
    if f < 0. || f >= 1. then Alcotest.fail "float out of range"
  done;
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Splitmix.int: bound must be positive") (fun () ->
      ignore (Datagen.Splitmix.int rng ~bound:0))

let test_splitmix_split_independent () =
  let rng = Datagen.Splitmix.create ~seed:1 in
  let child = Datagen.Splitmix.split rng in
  let xs = List.init 50 (fun _ -> Datagen.Splitmix.next rng) in
  let ys = List.init 50 (fun _ -> Datagen.Splitmix.next child) in
  check tbool "streams differ" false (xs = ys)

let small_graph () =
  Datagen.Snb.generate_custom ~persons:200 ~friendships:600 ~seed:11 ()

let test_snb_sizes () =
  let g = small_graph () in
  check tint "persons" 200 g.Datagen.Snb.n_persons;
  check tint "person rows" 200 (T.nrows g.Datagen.Snb.persons);
  check tint "directed edges = 2x friendships" 1200 g.Datagen.Snb.n_directed_edges;
  check tint "edge rows" 1200 (T.nrows g.Datagen.Snb.friends)

let test_snb_determinism () =
  let a = small_graph () and b = small_graph () in
  check tbool "same persons" true (T.equal a.Datagen.Snb.persons b.Datagen.Snb.persons);
  check tbool "same friends" true (T.equal a.Datagen.Snb.friends b.Datagen.Snb.friends);
  let c = Datagen.Snb.generate_custom ~persons:200 ~friendships:600 ~seed:12 () in
  check tbool "different seed differs" false
    (T.equal a.Datagen.Snb.friends c.Datagen.Snb.friends)

let test_snb_edges_are_symmetric () =
  let g = small_graph () in
  let f = g.Datagen.Snb.friends in
  let edges = Hashtbl.create 1024 in
  for i = 0 to T.nrows f - 1 do
    let s = T.get f ~row:i ~col:0 and d = T.get f ~row:i ~col:1 in
    match s, d with
    | V.Int a, V.Int b -> Hashtbl.replace edges (a, b) ()
    | _ -> Alcotest.fail "non-int endpoints"
  done;
  Hashtbl.iter
    (fun (a, b) () ->
      if not (Hashtbl.mem edges (b, a)) then
        Alcotest.failf "missing reverse edge %d -> %d" b a)
    edges

let test_snb_weights_and_dates_valid () =
  let g = small_graph () in
  let f = g.Datagen.Snb.friends in
  let lo = Storage.Date.of_ymd ~year:2010 ~month:1 ~day:1 in
  let hi = Storage.Date.of_ymd ~year:2012 ~month:12 ~day:31 in
  for i = 0 to T.nrows f - 1 do
    (match T.get f ~row:i ~col:3 with
    | V.Float w -> if not (w > 0.) then Alcotest.fail "non-positive weight"
    | _ -> Alcotest.fail "weight not float");
    match T.get f ~row:i ~col:2 with
    | V.Date d -> if d < lo || d > hi then Alcotest.fail "date out of range"
    | _ -> Alcotest.fail "date not a date"
  done

let test_snb_no_self_loops_or_dup_friendships () =
  let g = small_graph () in
  let f = g.Datagen.Snb.friends in
  let seen = Hashtbl.create 1024 in
  for i = 0 to T.nrows f - 1 do
    match T.get f ~row:i ~col:0, T.get f ~row:i ~col:1 with
    | V.Int a, V.Int b ->
      if a = b then Alcotest.fail "self loop";
      if Hashtbl.mem seen (a, b) then Alcotest.fail "duplicate directed edge";
      Hashtbl.add seen (a, b) ()
    | _ -> ()
  done

let test_snb_person_ids_unique () =
  let g = small_graph () in
  let ids = Datagen.Snb.person_ids g in
  let set = Hashtbl.create 256 in
  Array.iter
    (fun id ->
      if Hashtbl.mem set id then Alcotest.fail "duplicate person id";
      Hashtbl.add set id ())
    ids;
  check tint "count" 200 (Array.length ids)

let test_snb_paper_scale_factors () =
  (* ratio-scaled SF1 keeps the shape: |V| and |E| scale together *)
  let g = Datagen.Snb.generate ~scale_factor:1 ~ratio:0.02 ~seed:3 () in
  check tbool "persons close to target" true
    (abs (g.Datagen.Snb.n_persons - int_of_float (9892. *. 0.02)) <= 1);
  check tbool "edges near target" true
    (let target = 2 * int_of_float (181_000. *. 0.02) in
     (* dedup may fall slightly short on tiny graphs *)
     g.Datagen.Snb.n_directed_edges >= target - 40
     && g.Datagen.Snb.n_directed_edges <= target);
  check tbool "unknown sf" true
    (match Datagen.Snb.generate ~scale_factor:7 ~seed:1 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_snb_degree_skew () =
  (* the degree distribution should be heavy-tailed: the max out-degree
     well above the average *)
  let g = small_graph () in
  let f = g.Datagen.Snb.friends in
  let deg = Hashtbl.create 256 in
  for i = 0 to T.nrows f - 1 do
    match T.get f ~row:i ~col:0 with
    | V.Int a ->
      Hashtbl.replace deg a (1 + Option.value (Hashtbl.find_opt deg a) ~default:0)
    | _ -> ()
  done;
  let max_deg = Hashtbl.fold (fun _ d acc -> max d acc) deg 0 in
  let avg = float_of_int (T.nrows f) /. float_of_int g.Datagen.Snb.n_persons in
  check tbool "max degree >> average" true (float_of_int max_deg > 2. *. avg)

let test_workload_pairs () =
  let ids = [| 10; 20; 30; 40 |] in
  let pairs = Datagen.Workload.random_pairs ~seed:5 ~ids 100 in
  check tint "count" 100 (Array.length pairs);
  Array.iter
    (fun (a, b) ->
      if not (Array.exists (( = ) a) ids && Array.exists (( = ) b) ids) then
        Alcotest.fail "pair outside id set")
    pairs;
  let again = Datagen.Workload.random_pairs ~seed:5 ~ids 100 in
  check tbool "deterministic" true (pairs = again)

let test_workload_pairs_table () =
  let t = Datagen.Workload.pairs_table [| (1, 2); (3, 4) |] in
  check tint "rows" 2 (T.nrows t);
  check tbool "cells" true (V.equal (T.get t ~row:1 ~col:1) (V.Int 4));
  check tbool "params helper" true
    (Datagen.Workload.params_of_pair (7, 8) = [| V.Int 7; V.Int 8 |])

(* qcheck properties for random_pairs: the generator must be a pure
   function of the seed, never emit source = destination when the id set
   has two distinct values, and cover the id set roughly uniformly. *)

let gen_ids_seed =
  QCheck.Gen.(
    pair
      (list_size (int_range 1 40) (int_range 0 1_000_000))
      (int_range 0 10_000))

let prop_pairs_deterministic =
  QCheck.Test.make ~count:100 ~name:"random_pairs: same seed, same pairs"
    (QCheck.make gen_ids_seed) (fun (ids, seed) ->
      let ids = Array.of_list ids in
      let a = Datagen.Workload.random_pairs ~seed ~ids 50 in
      let b = Datagen.Workload.random_pairs ~seed ~ids 50 in
      a = b)

let prop_pairs_distinct_endpoints =
  QCheck.Test.make ~count:200
    ~name:"random_pairs: src <> dst whenever two distinct ids exist"
    (QCheck.make gen_ids_seed) (fun (ids, seed) ->
      let ids = Array.of_list ids in
      let distinct =
        Array.length ids > 1 && Array.exists (fun v -> v <> ids.(0)) ids
      in
      let pairs = Datagen.Workload.random_pairs ~seed ~ids 60 in
      Array.for_all
        (fun (s, d) ->
          Array.exists (( = ) s) ids
          && Array.exists (( = ) d) ids
          && ((not distinct) || s <> d))
        pairs)

let test_pairs_coverage () =
  (* uniformity sanity: over a small id set and many draws, every id
     shows up as a source and as a destination, and no id dominates *)
  let ids = [| 1; 2; 3; 4; 5 |] in
  let n = 5_000 in
  let pairs = Datagen.Workload.random_pairs ~seed:13 ~ids n in
  let src_count = Hashtbl.create 8 and dst_count = Hashtbl.create 8 in
  let bump h k =
    Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k))
  in
  Array.iter
    (fun (s, d) ->
      bump src_count s;
      bump dst_count d)
    pairs;
  let expect = n / Array.length ids in
  Array.iter
    (fun id ->
      let s = Option.value ~default:0 (Hashtbl.find_opt src_count id) in
      let d = Option.value ~default:0 (Hashtbl.find_opt dst_count id) in
      (* loose 3-sigma-ish band: uniform would give ~1000 each *)
      if s < expect / 2 || s > expect * 2 then
        Alcotest.failf "source %d drawn %d times (expected ~%d)" id s expect;
      if d < expect / 2 || d > expect * 2 then
        Alcotest.failf "destination %d drawn %d times (expected ~%d)" id d
          expect)
    ids

let test_snb_loads_into_engine () =
  (* the generated tables must be directly usable by the SQL engine *)
  let g = Datagen.Snb.generate_custom ~persons:60 ~friendships:150 ~seed:21 () in
  let db = Sqlgraph.Db.create () in
  Sqlgraph.Db.load_table db ~name:"persons" g.Datagen.Snb.persons;
  Sqlgraph.Db.load_table db ~name:"friends" g.Datagen.Snb.friends;
  let ids = Datagen.Snb.person_ids g in
  let pairs = Datagen.Workload.random_pairs ~seed:9 ~ids 10 in
  Array.iter
    (fun pair ->
      match
        Sqlgraph.Db.query db
          ~params:(Datagen.Workload.params_of_pair pair)
          "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)"
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "query failed: %s" (Sqlgraph.Error.to_string e))
    pairs

let () =
  Alcotest.run "datagen"
    [
      ( "splitmix",
        [
          Alcotest.test_case "determinism" `Quick test_splitmix_determinism;
          Alcotest.test_case "ranges" `Quick test_splitmix_ranges;
          Alcotest.test_case "split independence" `Quick test_splitmix_split_independent;
        ] );
      ( "snb",
        [
          Alcotest.test_case "sizes" `Quick test_snb_sizes;
          Alcotest.test_case "determinism" `Quick test_snb_determinism;
          Alcotest.test_case "symmetric edges" `Quick test_snb_edges_are_symmetric;
          Alcotest.test_case "weights and dates" `Quick test_snb_weights_and_dates_valid;
          Alcotest.test_case "no self loops / dups" `Quick test_snb_no_self_loops_or_dup_friendships;
          Alcotest.test_case "unique person ids" `Quick test_snb_person_ids_unique;
          Alcotest.test_case "paper scale factors" `Quick test_snb_paper_scale_factors;
          Alcotest.test_case "degree skew" `Quick test_snb_degree_skew;
          Alcotest.test_case "loads into the engine" `Quick test_snb_loads_into_engine;
        ] );
      ( "workload",
        [
          Alcotest.test_case "random pairs" `Quick test_workload_pairs;
          Alcotest.test_case "pairs table" `Quick test_workload_pairs_table;
          QCheck_alcotest.to_alcotest prop_pairs_deterministic;
          QCheck_alcotest.to_alcotest prop_pairs_distinct_endpoints;
          Alcotest.test_case "coverage sanity" `Quick test_pairs_coverage;
        ] );
    ]
