(* Graph runtime tests: dictionary, CSR, heaps, BFS, Dijkstra, and the
   batched pair driver — checked against brute-force references. *)

module V = Storage.Value
module C = Storage.Column
module D = Storage.Dtype

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Vertex dictionary                                                   *)
(* ------------------------------------------------------------------ *)

let test_dict_dense_ids () =
  let src = C.of_values D.TInt [ V.Int 10; V.Int 20; V.Int 10 ] in
  let dst = C.of_values D.TInt [ V.Int 20; V.Int 30; V.Int 40 ] in
  let d = Graph.Vertex_dict.build [ src; dst ] in
  check tint "cardinality" 4 (Graph.Vertex_dict.cardinality d);
  (* first-appearance order: 10, 20, 30, 40 *)
  check tbool "encode 10" true (Graph.Vertex_dict.encode d (V.Int 10) = Some 0);
  check tbool "encode 20" true (Graph.Vertex_dict.encode d (V.Int 20) = Some 1);
  check tbool "encode 40" true (Graph.Vertex_dict.encode d (V.Int 40) = Some 3);
  check tbool "missing" true (Graph.Vertex_dict.encode d (V.Int 99) = None);
  check tbool "decode" true (V.equal (Graph.Vertex_dict.decode d 2) (V.Int 30))

let test_dict_nulls_and_strings () =
  let src = C.of_values D.TStr [ V.Str "a"; V.Null; V.Str "b" ] in
  let dst = C.of_values D.TStr [ V.Str "b"; V.Str "c"; V.Null ] in
  let d = Graph.Vertex_dict.build [ src; dst ] in
  check tint "nulls are not vertices" 3 (Graph.Vertex_dict.cardinality d);
  let enc = Graph.Vertex_dict.encode_column d src in
  check tbool "null encodes to -1" true (enc = [| 0; -1; 1 |])

(* specialized (int) and generic dictionaries must agree exactly *)
let prop_dict_specialization_equivalent =
  QCheck.Test.make ~name:"vertex dict: specialized = generic on int keys"
    ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 60) (pair (int_range (-50) 50) (int_range (-50) 50)))
    (fun pairs ->
      let src = C.of_values D.TInt (List.map (fun (a, _) -> V.Int a) pairs) in
      let dst = C.of_values D.TInt (List.map (fun (_, b) -> V.Int b) pairs) in
      let spec = Graph.Vertex_dict.build ~specialize:true [ src; dst ] in
      let gen = Graph.Vertex_dict.build ~specialize:false [ src; dst ] in
      Graph.Vertex_dict.cardinality spec = Graph.Vertex_dict.cardinality gen
      && Graph.Vertex_dict.encode_column spec src
         = Graph.Vertex_dict.encode_column gen src
      && Graph.Vertex_dict.encode_column spec dst
         = Graph.Vertex_dict.encode_column gen dst
      && List.for_all
           (fun id ->
             V.equal
               (Graph.Vertex_dict.decode spec id)
               (Graph.Vertex_dict.decode gen id))
           (List.init (Graph.Vertex_dict.cardinality spec) Fun.id))

let test_dict_specialized_dates () =
  let src = C.of_values D.TDate [ V.Date 10; V.Date 20 ] in
  let dst = C.of_values D.TDate [ V.Date 20; V.Date 30 ] in
  let d = Graph.Vertex_dict.build [ src; dst ] in
  check tint "three dates" 3 (Graph.Vertex_dict.cardinality d);
  check tbool "decode re-boxes as Date" true
    (V.equal (Graph.Vertex_dict.decode d 0) (V.Date 10));
  check tbool "encode date" true
    (Graph.Vertex_dict.encode d (V.Date 30) = Some 2);
  check tbool "int does not match a date dict" true
    (Graph.Vertex_dict.encode d (V.Int 10) = None)

let test_dict_mixed_types_use_generic () =
  (* int + string columns cannot specialize but must still work *)
  let a = C.of_values D.TInt [ V.Int 1 ] in
  let b = C.of_values D.TStr [ V.Str "x" ] in
  let d = Graph.Vertex_dict.build [ a; b ] in
  check tint "two vertices" 2 (Graph.Vertex_dict.cardinality d);
  check tbool "both encode" true
    (Graph.Vertex_dict.encode d (V.Int 1) = Some 0
    && Graph.Vertex_dict.encode d (V.Str "x") = Some 1)

let test_dict_decode_bounds () =
  let d = Graph.Vertex_dict.build [ C.of_values D.TInt [ V.Int 1 ] ] in
  Alcotest.check_raises "oob" (Invalid_argument "Vertex_dict.decode: id out of range")
    (fun () -> ignore (Graph.Vertex_dict.decode d 5))

(* ------------------------------------------------------------------ *)
(* CSR                                                                 *)
(* ------------------------------------------------------------------ *)

let test_csr_structure () =
  (* edges: 0->1, 0->2, 1->2, 2->0 *)
  let csr =
    Graph.Csr.build ~vertex_count:3 ~src:[| 0; 0; 1; 2 |] ~dst:[| 1; 2; 2; 0 |]
  in
  check tint "edges" 4 (Graph.Csr.edge_count csr);
  check tint "deg 0" 2 (Graph.Csr.out_degree csr 0);
  check tint "deg 1" 1 (Graph.Csr.out_degree csr 1);
  check tint "deg 2" 1 (Graph.Csr.out_degree csr 2);
  let out = ref [] in
  Graph.Csr.iter_out csr 0 (fun ~slot:_ ~target -> out := target :: !out);
  check tbool "targets of 0" true (List.sort compare !out = [ 1; 2 ])

let test_csr_preserves_edge_rows () =
  let csr =
    Graph.Csr.build ~vertex_count:2 ~src:[| 1; 0; 1 |] ~dst:[| 0; 1; 0 |]
  in
  (* slots for vertex 1 must reference original rows 0 and 2 *)
  let rows = ref [] in
  Graph.Csr.iter_out csr 1 (fun ~slot ~target:_ ->
      rows := Graph.Ivec.get csr.Graph.Csr.edge_rows slot :: !rows);
  check tbool "rows" true (List.sort compare !rows = [ 0; 2 ])

let test_csr_skips_invalid () =
  let csr =
    Graph.Csr.build ~vertex_count:2 ~src:[| 0; -1; 0 |] ~dst:[| 1; 0; -1 |]
  in
  check tint "kept" 1 (Graph.Csr.edge_count csr)

let test_csr_length_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Csr.build: src/dst length mismatch") (fun () ->
      ignore (Graph.Csr.build ~vertex_count:1 ~src:[| 0 |] ~dst:[||]))

let test_csr_empty () =
  let csr = Graph.Csr.build ~vertex_count:0 ~src:[||] ~dst:[||] in
  check tint "no edges" 0 (Graph.Csr.edge_count csr)

(* Csr.extend over a build of the first rows equals a build over all of
   them — plain, packed and at the automatic representation — and so do
   their reverse CSRs. Small vertex counts give self-loops and parallel
   edges; -1 endpoints drop a row; the appended part may be empty. *)
let prop_csr_extend_equals_build =
  let rows k =
    QCheck.Gen.(list_size (int_range 0 k) (pair (int_range (-1) 9) (int_range (-1) 9)))
  in
  let show l =
    String.concat "; " (List.map (fun (s, d) -> Printf.sprintf "%d->%d" s d) l)
  in
  QCheck.Test.make ~name:"csr: extend (build old) new = build (old @ new), reverse too"
    ~count:300
    (QCheck.make
       ~print:(fun (n, old_rows, new_rows) ->
         Printf.sprintf "n=%d old=[%s] new=[%s]" n (show old_rows) (show new_rows))
       QCheck.Gen.(triple (int_range 1 10) (rows 30) (rows 6)))
    (fun (n, old_rows, new_rows) ->
      let ids f l =
        Array.of_list (List.map (fun r -> if f r < 0 then -1 else f r mod n) l)
      in
      let os = ids fst old_rows and od = ids snd old_rows in
      let ns = ids fst new_rows and nd = ids snd new_rows in
      List.for_all
        (fun compact ->
          let build ~src ~dst =
            match compact with
            | None -> Graph.Csr.build ~vertex_count:n ~src ~dst
            | Some compact -> Graph.Csr.build_repr ~compact ~vertex_count:n ~src ~dst
          in
          let extended =
            Graph.Csr.extend ?compact (build ~src:os ~dst:od) ~src:ns ~dst:nd
              ~first_row:(Array.length os)
          in
          let full = build ~src:(Array.append os ns) ~dst:(Array.append od nd) in
          extended = full && Graph.Csr.reverse extended = Graph.Csr.reverse full)
        [ None; Some false; Some true ])

let prop_csr_degree_sum =
  QCheck.Test.make ~name:"csr: degrees sum to edge count" ~count:200
    QCheck.(pair (int_range 1 20) (list_of_size (QCheck.Gen.int_range 0 50) (pair (int_range 0 19) (int_range 0 19))))
    (fun (n, edges) ->
      let edges = List.filter (fun (a, b) -> a < n && b < n) edges in
      let src = Array.of_list (List.map fst edges) in
      let dst = Array.of_list (List.map snd edges) in
      let csr = Graph.Csr.build ~vertex_count:n ~src ~dst in
      let total = ref 0 in
      for v = 0 to n - 1 do
        total := !total + Graph.Csr.out_degree csr v
      done;
      !total = Graph.Csr.edge_count csr && !total = List.length edges)

(* ------------------------------------------------------------------ *)
(* Heaps                                                               *)
(* ------------------------------------------------------------------ *)

(* [extract_min] returns the payload; its priority is the new floor *)
let radix_pop h =
  let payload = Graph.Radix_heap.extract_min h in
  (Graph.Radix_heap.floor h, payload)

let test_radix_heap_basics () =
  let h = Graph.Radix_heap.create () in
  check tbool "empty" true (Graph.Radix_heap.is_empty h);
  Graph.Radix_heap.insert h ~priority:5 ~payload:50;
  Graph.Radix_heap.insert h ~priority:1 ~payload:10;
  Graph.Radix_heap.insert h ~priority:3 ~payload:30;
  check tint "size" 3 (Graph.Radix_heap.size h);
  check tbool "min 1" true (radix_pop h = (1, 10));
  (* monotone inserts above the floor are fine *)
  Graph.Radix_heap.insert h ~priority:2 ~payload:20;
  check tbool "min 2" true (radix_pop h = (2, 20));
  check tbool "min 3" true (radix_pop h = (3, 30));
  check tbool "min 5" true (radix_pop h = (5, 50));
  check tbool "empty again" true (Graph.Radix_heap.is_empty h)

let test_radix_heap_monotonicity () =
  let h = Graph.Radix_heap.create () in
  Graph.Radix_heap.insert h ~priority:10 ~payload:0;
  ignore (Graph.Radix_heap.extract_min h);
  Alcotest.check_raises "below floor"
    (Invalid_argument "Radix_heap.insert: priority below the floor (monotonicity)")
    (fun () -> Graph.Radix_heap.insert h ~priority:9 ~payload:0);
  Alcotest.check_raises "negative"
    (Invalid_argument "Radix_heap.insert: negative priority") (fun () ->
      Graph.Radix_heap.insert h ~priority:(-1) ~payload:0)

let test_radix_heap_duplicates_and_clear () =
  let h = Graph.Radix_heap.create () in
  Graph.Radix_heap.insert h ~priority:4 ~payload:1;
  Graph.Radix_heap.insert h ~priority:4 ~payload:2;
  let p1, _ = radix_pop h in
  let p2, _ = radix_pop h in
  check tbool "both fours" true (p1 = 4 && p2 = 4);
  Graph.Radix_heap.insert h ~priority:7 ~payload:3;
  Graph.Radix_heap.clear h;
  check tbool "cleared" true (Graph.Radix_heap.is_empty h);
  Graph.Radix_heap.insert h ~priority:0 ~payload:9;
  check tbool "usable after clear" true (radix_pop h = (0, 9))

let test_radix_heap_empty_extract () =
  let h = Graph.Radix_heap.create () in
  Alcotest.check_raises "empty" Not_found (fun () ->
      ignore (Graph.Radix_heap.extract_min h))

(* Drain a monotone insertion sequence; output must be sorted. *)
let prop_radix_heap_sorted =
  QCheck.Test.make ~name:"radix heap: monotone drain yields sorted output"
    ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 0 100) (int_range 0 1000))
    (fun priorities ->
      let h = Graph.Radix_heap.create () in
      (* interleave inserts and extracts while respecting monotonicity *)
      let sorted_in = List.sort compare priorities in
      List.iter (fun p -> Graph.Radix_heap.insert h ~priority:p ~payload:p) sorted_in;
      let rec drain acc =
        if Graph.Radix_heap.is_empty h then List.rev acc
        else drain (fst (radix_pop h) :: acc)
      in
      drain [] = sorted_in)

let prop_radix_heap_interleaved =
  QCheck.Test.make
    ~name:"radix heap: interleaved ops match a sorted-list model" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 80) (int_range 0 500))
    (fun deltas ->
      (* priorities are floor + delta, so inserts always respect the floor *)
      let h = Graph.Radix_heap.create () in
      let model = ref [] in
      let floor = ref 0 in
      let ok = ref true in
      List.iteri
        (fun i delta ->
          let p = !floor + delta in
          Graph.Radix_heap.insert h ~priority:p ~payload:i;
          model := List.sort compare (p :: !model);
          if i mod 3 = 2 then begin
            let got, _ = radix_pop h in
            (match !model with
            | m :: rest ->
              if got <> m then ok := false;
              model := rest;
              floor := m
            | [] -> ok := false)
          end)
        deltas;
      !ok)

let test_binary_heap_model () =
  let h = Graph.Binary_heap.create ~capacity:1 () in
  let input = [ 5.; 1.; 4.; 1.; 9.; 0.5; 2. ] in
  List.iteri (fun i p -> Graph.Binary_heap.insert h ~priority:p ~payload:i) input;
  check tint "size" (List.length input) (Graph.Binary_heap.size h);
  let rec drain acc =
    if Graph.Binary_heap.is_empty h then List.rev acc
    else drain (fst (Graph.Binary_heap.extract_min h) :: acc)
  in
  check tbool "sorted" true (drain [] = List.sort compare input);
  Alcotest.check_raises "empty" Not_found (fun () ->
      ignore (Graph.Binary_heap.extract_min h))

let prop_binary_heap_sorted =
  QCheck.Test.make ~name:"binary heap: drain yields sorted output" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 0 120) (float_bound_inclusive 1000.))
    (fun priorities ->
      let h = Graph.Binary_heap.create () in
      List.iteri (fun i p -> Graph.Binary_heap.insert h ~priority:p ~payload:i) priorities;
      let rec drain acc =
        if Graph.Binary_heap.is_empty h then List.rev acc
        else drain (fst (Graph.Binary_heap.extract_min h) :: acc)
      in
      drain [] = List.sort compare priorities)

(* ------------------------------------------------------------------ *)
(* BFS and Dijkstra vs. brute force                                    *)
(* ------------------------------------------------------------------ *)

(* Reference: Bellman-Ford over the edge list. *)
let reference_distances ~n ~edges ~weights ~source =
  let dist = Array.make n max_int in
  dist.(source) <- 0;
  for _ = 1 to n do
    List.iteri
      (fun i (u, v) ->
        if dist.(u) < max_int then begin
          let cand = dist.(u) + weights.(i) in
          if cand < dist.(v) then dist.(v) <- cand
        end)
      edges
  done;
  dist

let random_graph rng n max_edges =
  let m = Random.State.int rng (max_edges + 1) in
  List.init m (fun _ -> (Random.State.int rng n, Random.State.int rng n))

let check_path_valid ~edges ~weights ~src_ids ~dst_ids outcome source target =
  (* the reported path must be a chain source -> ... -> target whose cost
     matches the reported cost *)
  match outcome with
  | Graph.Runtime.Unreachable -> true
  | Graph.Runtime.Reached { cost; edge_rows } ->
    ignore edges;
    let total = ref 0 in
    let at = ref source in
    let ok = ref true in
    Array.iter
      (fun r ->
        if src_ids.(r) <> !at then ok := false;
        at := dst_ids.(r);
        total := !total + weights.(r))
      edge_rows;
    !ok && !at = target
    && match cost with V.Int c -> c = !total | _ -> false

let make_runtime edges n =
  let src = Array.of_list (List.map fst edges) in
  let dst = Array.of_list (List.map snd edges) in
  ignore n;
  let src_col = C.of_int_array src in
  let dst_col = C.of_int_array dst in
  (Graph.Runtime.build ~src:src_col ~dst:dst_col, src, dst)

let prop_bfs_matches_reference =
  QCheck.Test.make ~name:"runtime unweighted: costs match Bellman-Ford"
    ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 2 + Random.State.int rng 15 in
      let edges = random_graph rng n 40 in
      if edges = [] then true
      else begin
        let weights = Array.make (List.length edges) 1 in
        let rt, src_ids, dst_ids = make_runtime edges n in
        let pairs =
          Array.init 6 (fun _ ->
              ( V.Int (Random.State.int rng n),
                V.Int (Random.State.int rng n) ))
        in
        let outcomes = Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted ~pairs () in
        Array.for_all2
          (fun (s, d) outcome ->
            let s = match s with V.Int x -> x | _ -> assert false in
            let d = match d with V.Int x -> x | _ -> assert false in
            (* vertices missing from the graph are unreachable by def. *)
            match Graph.Vertex_dict.encode (Graph.Runtime.dict rt) (V.Int s),
                  Graph.Vertex_dict.encode (Graph.Runtime.dict rt) (V.Int d) with
            | Some se, Some de ->
              (* reference runs over encoded ids *)
              let enc_edges =
                List.map
                  (fun (u, v) ->
                    ( Option.get (Graph.Vertex_dict.encode (Graph.Runtime.dict rt) (V.Int u)),
                      Option.get (Graph.Vertex_dict.encode (Graph.Runtime.dict rt) (V.Int v)) ))
                  edges
              in
              let ref_dist =
                reference_distances
                  ~n:(Graph.Runtime.vertex_count rt)
                  ~edges:enc_edges ~weights ~source:se
              in
              (match outcome with
              | Graph.Runtime.Unreachable -> ref_dist.(de) = max_int
              | Graph.Runtime.Reached { cost = V.Int c; _ } ->
                ref_dist.(de) = c
                && check_path_valid ~edges ~weights ~src_ids ~dst_ids outcome s d
              | Graph.Runtime.Reached _ -> false)
            | _ -> outcome = Graph.Runtime.Unreachable)
          pairs outcomes
      end)

let prop_dijkstra_matches_reference ~heap name =
  QCheck.Test.make ~name ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 2 + Random.State.int rng 12 in
      let edges = random_graph rng n 35 in
      if edges = [] then true
      else begin
        let weights =
          Array.init (List.length edges) (fun _ -> 1 + Random.State.int rng 20)
        in
        let rt, src_ids, dst_ids = make_runtime edges n in
        let pairs =
          Array.init 5 (fun _ ->
              (V.Int (Random.State.int rng n), V.Int (Random.State.int rng n)))
        in
        let outcomes =
          Graph.Runtime.run_pairs rt ~weights:(Graph.Runtime.Int_weights weights)
            ~heap ~pairs ()
        in
        Array.for_all2
          (fun (s, d) outcome ->
            let s = match s with V.Int x -> x | _ -> assert false in
            let d = match d with V.Int x -> x | _ -> assert false in
            match Graph.Vertex_dict.encode (Graph.Runtime.dict rt) (V.Int s),
                  Graph.Vertex_dict.encode (Graph.Runtime.dict rt) (V.Int d) with
            | Some se, Some de ->
              let enc_edges =
                List.map
                  (fun (u, v) ->
                    ( Option.get (Graph.Vertex_dict.encode (Graph.Runtime.dict rt) (V.Int u)),
                      Option.get (Graph.Vertex_dict.encode (Graph.Runtime.dict rt) (V.Int v)) ))
                  edges
              in
              let ref_dist =
                reference_distances
                  ~n:(Graph.Runtime.vertex_count rt)
                  ~edges:enc_edges ~weights ~source:se
              in
              (match outcome with
              | Graph.Runtime.Unreachable -> ref_dist.(de) = max_int
              | Graph.Runtime.Reached { cost = V.Int c; _ } ->
                ref_dist.(de) = c
                && check_path_valid ~edges ~weights ~src_ids ~dst_ids outcome s d
              | Graph.Runtime.Reached _ -> false)
            | _ -> outcome = Graph.Runtime.Unreachable)
          pairs outcomes
      end)

let prop_radix_equals_binary =
  QCheck.Test.make ~name:"dijkstra: radix and binary heaps agree" ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 2 + Random.State.int rng 12 in
      let edges = random_graph rng n 35 in
      if edges = [] then true
      else begin
        let weights =
          Array.init (List.length edges) (fun _ -> 1 + Random.State.int rng 50)
        in
        let rt, _, _ = make_runtime edges n in
        let pairs =
          Array.init 5 (fun _ ->
              (V.Int (Random.State.int rng n), V.Int (Random.State.int rng n)))
        in
        let costs heap =
          Array.map
            (function
              | Graph.Runtime.Unreachable -> None
              | Graph.Runtime.Reached { cost; _ } -> Some cost)
            (Graph.Runtime.run_pairs rt
               ~weights:(Graph.Runtime.Int_weights weights) ~heap ~pairs ())
        in
        costs Graph.Dijkstra.Radix = costs Graph.Dijkstra.Binary
      end)

let prop_float_weights_match_scaled_int =
  QCheck.Test.make ~name:"dijkstra: float weights track scaled int weights"
    ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 2 + Random.State.int rng 10 in
      let edges = random_graph rng n 25 in
      if edges = [] then true
      else begin
        let int_w =
          Array.init (List.length edges) (fun _ -> 1 + Random.State.int rng 30)
        in
        let float_w = Array.map float_of_int int_w in
        let rt, _, _ = make_runtime edges n in
        let pairs =
          Array.init 4 (fun _ ->
              (V.Int (Random.State.int rng n), V.Int (Random.State.int rng n)))
        in
        let ints =
          Graph.Runtime.run_pairs rt ~weights:(Graph.Runtime.Int_weights int_w)
            ~pairs ()
        in
        let floats =
          Graph.Runtime.run_pairs rt
            ~weights:(Graph.Runtime.Float_weights float_w) ~pairs ()
        in
        Array.for_all2
          (fun a b ->
            match a, b with
            | Graph.Runtime.Unreachable, Graph.Runtime.Unreachable -> true
            | Graph.Runtime.Reached { cost = V.Int ci; _ },
              Graph.Runtime.Reached { cost = V.Float cf; _ } ->
              Float.abs (float_of_int ci -. cf) < 1e-9
            | _ -> false)
          ints floats
      end)

(* ------------------------------------------------------------------ *)
(* Runtime semantics                                                   *)
(* ------------------------------------------------------------------ *)

let diamond_runtime () =
  (* 1 -> 2 (w 1), 1 -> 3 (w 10), 2 -> 3 (w 1), 3 -> 4 (w 1) *)
  let src = C.of_values D.TInt [ V.Int 1; V.Int 1; V.Int 2; V.Int 3 ] in
  let dst = C.of_values D.TInt [ V.Int 2; V.Int 3; V.Int 3; V.Int 4 ] in
  Graph.Runtime.build ~src ~dst

let test_runtime_source_equals_dest () =
  let rt = diamond_runtime () in
  let outcomes =
    Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted
      ~pairs:[| (V.Int 1, V.Int 1) |] ()
  in
  match outcomes.(0) with
  | Graph.Runtime.Reached { cost = V.Int 0; edge_rows = [||] } -> ()
  | _ -> Alcotest.fail "expected empty path with cost 0"

let test_runtime_nonexistent_vertices () =
  let rt = diamond_runtime () in
  let outcomes =
    Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted
      ~pairs:[| (V.Int 99, V.Int 1); (V.Int 1, V.Int 99); (V.Null, V.Int 1) |]
      ()
  in
  Array.iter
    (function
      | Graph.Runtime.Unreachable -> ()
      | _ -> Alcotest.fail "non-vertices must be unreachable")
    outcomes

let test_runtime_weighted_picks_cheap_detour () =
  let rt = diamond_runtime () in
  let weights = [| 1; 10; 1; 1 |] in
  let outcomes =
    Graph.Runtime.run_pairs rt ~weights:(Graph.Runtime.Int_weights weights)
      ~pairs:[| (V.Int 1, V.Int 3) |] ()
  in
  match outcomes.(0) with
  | Graph.Runtime.Reached { cost = V.Int 2; edge_rows } ->
    check tbool "two-hop detour" true (edge_rows = [| 0; 2 |])
  | _ -> Alcotest.fail "expected cost 2 via the detour"

let test_runtime_direction_matters () =
  let rt = diamond_runtime () in
  let outcomes =
    Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted
      ~pairs:[| (V.Int 4, V.Int 1) |] ()
  in
  check tbool "edges are directed" true (outcomes.(0) = Graph.Runtime.Unreachable)

let test_runtime_weight_validation () =
  let rt = diamond_runtime () in
  let attempt weights =
    match
      Graph.Runtime.run_pairs rt ~weights ~pairs:[| (V.Int 1, V.Int 4) |] ()
    with
    | exception Graph.Runtime.Weight_error _ -> true
    | _ -> false
  in
  check tbool "zero weight" true (attempt (Graph.Runtime.Int_weights [| 1; 0; 1; 1 |]));
  check tbool "negative weight" true
    (attempt (Graph.Runtime.Int_weights [| 1; -2; 1; 1 |]));
  check tbool "zero float" true
    (attempt (Graph.Runtime.Float_weights [| 1.; 0.; 1.; 1. |]));
  check tbool "nan float" true
    (attempt (Graph.Runtime.Float_weights [| 1.; Float.nan; 1.; 1. |]))

let test_runtime_batch_shares_source () =
  let rt = diamond_runtime () in
  let pairs =
    [| (V.Int 1, V.Int 2); (V.Int 1, V.Int 4); (V.Int 2, V.Int 4) |]
  in
  let outcomes = Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted ~pairs () in
  let cost i =
    match outcomes.(i) with
    | Graph.Runtime.Reached { cost = V.Int c; _ } -> c
    | _ -> -1
  in
  check tint "1->2" 1 (cost 0);
  check tint "1->4" 2 (cost 1);
  check tint "2->4" 2 (cost 2)

(* parallel batched traversal must be bit-identical to sequential *)
let prop_parallel_equals_sequential =
  QCheck.Test.make ~name:"runtime: domains=4 matches domains=1" ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 4 + Random.State.int rng 20 in
      let m = 5 + Random.State.int rng 60 in
      let edges =
        List.init m (fun _ -> (Random.State.int rng n, Random.State.int rng n))
      in
      let src = C.of_int_array (Array.of_list (List.map fst edges)) in
      let dst = C.of_int_array (Array.of_list (List.map snd edges)) in
      let rt = Graph.Runtime.build ~src ~dst in
      let pairs =
        Array.init 24 (fun _ ->
            (V.Int (Random.State.int rng n), V.Int (Random.State.int rng n)))
      in
      let seq =
        Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted ~pairs ()
      in
      let par =
        Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted ~domains:4
          ~pairs ()
      in
      seq = par)

let test_runtime_parallel_weighted () =
  let rt = diamond_runtime () in
  let weights = [| 1; 10; 1; 1 |] in
  let pairs =
    [| (V.Int 1, V.Int 3); (V.Int 2, V.Int 4); (V.Int 1, V.Int 4) |]
  in
  let seq =
    Graph.Runtime.run_pairs rt ~weights:(Graph.Runtime.Int_weights weights)
      ~pairs ()
  in
  let par =
    Graph.Runtime.run_pairs rt ~weights:(Graph.Runtime.Int_weights weights)
      ~domains:3 ~pairs ()
  in
  check tbool "identical outcomes" true (seq = par)

(* One giant source (walks a long chain) plus hundreds of one-hop sources:
   enough distinct sources for a dozen MS-BFS waves, skewed enough that
   some worker drains its own deque while others still hold work. *)
let skewed_setup () =
  let chain_len = 400 in
  let tiny = 700 in
  let hub = chain_len in
  let edges =
    List.init chain_len (fun i -> (i, i + 1))
    @ List.init tiny (fun i -> (1000 + i, hub))
  in
  let src = C.of_int_array (Array.of_list (List.map fst edges)) in
  let dst = C.of_int_array (Array.of_list (List.map snd edges)) in
  let rt = Graph.Runtime.build ~src ~dst in
  let pairs =
    Array.append
      [| (V.Int 0, V.Int hub) |]
      (Array.init tiny (fun i -> (V.Int (1000 + i), V.Int hub)))
  in
  (rt, pairs, tiny + 1)

(* A skewed source distribution must produce actual steals. Stealing is
   timing-dependent (the OS decides when workers run), so retry a few
   times; [oversubscribe] forces multiple workers even on one core. *)
let test_sched_skewed_steals () =
  let rt, pairs, _ = skewed_setup () in
  let stole = ref false in
  let attempts = ref 0 in
  while (not !stole) && !attempts < 10 do
    incr attempts;
    let before = (Graph.Runtime.sched_counters rt).Graph.Runtime.sc_steals in
    ignore
      (Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted
         ~engine:`Batched ~domains:4 ~oversubscribe:true ~pairs ());
    let after = (Graph.Runtime.sched_counters rt).Graph.Runtime.sc_steals in
    if after > before then stole := true
  done;
  check tbool "steals observed under skew" true !stole;
  let sc = Graph.Runtime.sched_counters rt in
  check tbool "wave tasks executed" true (sc.Graph.Runtime.sc_tasks > 0)

(* Deterministic counter absorption: the wave partition is fixed by the
   batch alone (never by worker count or steal order), so the per-worker
   counters folded in at the join must sum to identical totals for every
   domain count — and searches must equal the distinct-source count. *)
let test_sched_counter_conservation () =
  let rt, pairs, nsources = skewed_setup () in
  let delta domains =
    let b = Graph.Runtime.traversal_counters rt in
    ignore
      (Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted
         ~engine:`Batched ~domains ~oversubscribe:true ~pairs ());
    let a = Graph.Runtime.traversal_counters rt in
    Graph.Workspace.
      ( a.searches - b.searches,
        a.settled - b.settled,
        a.edges_scanned - b.edges_scanned,
        a.waves - b.waves,
        a.dir_switches - b.dir_switches )
  in
  let d1 = delta 1 in
  let d2 = delta 2 in
  let d4 = delta 4 in
  let d8 = delta 8 in
  check tbool "domains=1 = domains=2" true (d1 = d2);
  check tbool "domains=2 = domains=4" true (d2 = d4);
  check tbool "domains=4 = domains=8" true (d4 = d8);
  let searches, settled, edges, waves, _ = d2 in
  check tint "searches = distinct sources" nsources searches;
  check tbool "settled counted" true (settled > 0);
  check tbool "edges counted" true (edges > 0);
  check tint "waves = ceil(sources/63)" ((nsources + 62) / 63) waves

let test_runtime_reachable_api () =
  let rt = diamond_runtime () in
  let r =
    Graph.Runtime.reachable rt
      ~pairs:[| (V.Int 1, V.Int 4); (V.Int 4, V.Int 2); (V.Int 3, V.Int 3) |]
  in
  check tbool "results" true (r = [| true; false; true |])

(* The bidirectional kernel answers exactly the cost-only single pair
   on a runtime with its reverse CSR; every other shape keeps the old
   engines. Costs agree either way, and paths:false drops edge_rows. *)
let test_runtime_bidir_selection () =
  let rt = diamond_runtime () in
  let run ?engine ?paths pairs =
    let notes = ref [] in
    let out =
      Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted ?engine
        ?paths ~note:(fun k v -> notes := (k, v) :: !notes) ~pairs ()
    in
    (out, !notes = [ ("search", "bidir") ])
  in
  let one = [| (V.Int 1, V.Int 4); (V.Int 1, V.Int 4) |] in
  check tbool "no reverse CSR" false (snd (run ~paths:false one));
  Graph.Runtime.prepare_bidir rt;
  let out, bidir = run ~paths:false one in
  check tbool "cost-only single pair" true bidir;
  check tbool "cost, no path, fanned out to the duplicate" true
    (Array.for_all
       (( = ) (Graph.Runtime.Reached { cost = V.Int 2; edge_rows = [||] }))
       out);
  check tbool "path requested" false (snd (run one));
  check tbool "forced scalar" false (snd (run ~engine:`Scalar ~paths:false one));
  check tbool "two destinations" false
    (snd (run ~paths:false [| (V.Int 1, V.Int 4); (V.Int 1, V.Int 3) |]));
  check tbool "two sources" false
    (snd (run ~paths:false [| (V.Int 1, V.Int 4); (V.Int 2, V.Int 4) |]));
  let out, _ = run ~paths:false [| (V.Int 1, V.Int 4); (V.Int 2, V.Int 4) |] in
  check tbool "other engines drop paths too" true
    (Array.for_all
       (function
         | Graph.Runtime.Reached { edge_rows; _ } -> edge_rows = [||]
         | Graph.Runtime.Unreachable -> false)
       out)

let test_runtime_stats () =
  let rt = diamond_runtime () in
  let s = Graph.Runtime.stats rt in
  check tint "vertices" 4 s.Graph.Runtime.vertex_count;
  check tint "edges" 4 s.Graph.Runtime.edge_count;
  check tbool "build time recorded" true (s.Graph.Runtime.total_seconds >= 0.)

(* ------------------------------------------------------------------ *)
(* All shortest paths                                                  *)
(* ------------------------------------------------------------------ *)

let test_all_paths_diamond () =
  (* 0->1, 0->2, 1->3, 2->3: two shortest paths 0->3 *)
  let csr =
    Graph.Csr.build ~vertex_count:4 ~src:[| 0; 0; 1; 2 |] ~dst:[| 1; 2; 3; 3 |]
  in
  let dag = Graph.All_paths.build csr ~source:0 in
  check tbool "distance" true (Graph.All_paths.distance dag 3 = Some 2);
  check tint "two paths" 2 (Graph.All_paths.count_paths dag ~target:3);
  let paths = Graph.All_paths.enumerate dag ~target:3 () in
  check tint "enumerated" 2 (List.length paths);
  check tbool "valid edge rows" true
    (List.for_all (fun p -> Array.length p = 2) paths);
  check tbool "distinct" true
    (match paths with [ a; b ] -> a <> b | _ -> false);
  check tint "source itself" 1 (Graph.All_paths.count_paths dag ~target:0);
  check tbool "empty path to source" true
    (Graph.All_paths.enumerate dag ~target:0 () = [ [||] ])

let test_all_paths_unreachable_and_limit () =
  let csr =
    Graph.Csr.build ~vertex_count:3 ~src:[| 0 |] ~dst:[| 1 |]
  in
  let dag = Graph.All_paths.build csr ~source:0 in
  check tint "unreachable count" 0 (Graph.All_paths.count_paths dag ~target:2);
  check tbool "unreachable enumerate" true
    (Graph.All_paths.enumerate dag ~target:2 () = []);
  (* limit: a 2^3-path lattice capped at 5 *)
  let src = [| 0; 0; 1; 2; 3; 4; 5; 6; 7; 8 |] in
  let dst = [| 1; 2; 3; 3; 4; 4; 0; 0; 0; 0 |] in
  ignore (src, dst);
  let layers k =
    (* vertices 0..2k; vertex 2i+1 and 2i+2 between layer i and i+1 *)
    let edges = ref [] in
    for i = 0 to k - 1 do
      let a = if i = 0 then 0 else (2 * i) - 1 and b = if i = 0 then 0 else 2 * i in
      let c = (2 * i) + 1 and d = (2 * i) + 2 in
      if i = 0 then edges := (0, c) :: (0, d) :: !edges
      else edges := (a, c) :: (a, d) :: (b, c) :: (b, d) :: !edges
    done;
    (* final sink *)
    let sink = (2 * k) + 1 in
    edges := ((2 * k) - 1, sink) :: (2 * k, sink) :: !edges;
    (sink, List.rev !edges)
  in
  let sink, edges = layers 3 in
  let csr2 =
    Graph.Csr.build ~vertex_count:(sink + 1)
      ~src:(Array.of_list (List.map fst edges))
      ~dst:(Array.of_list (List.map snd edges))
  in
  let dag2 = Graph.All_paths.build csr2 ~source:0 in
  check tint "2^3 paths" 8 (Graph.All_paths.count_paths dag2 ~target:sink);
  check tint "limit respected" 5
    (List.length (Graph.All_paths.enumerate dag2 ~target:sink ~limit:5 ()))

(* brute force: all simple paths by DFS, keep the minimal length ones *)
let brute_force_shortest_paths edges ~source ~target =
  let rec dfs v visited path =
    if v = target then [ List.rev path ]
    else
      List.concat_map
        (fun (i, (a, b)) ->
          if a = v && not (List.mem b visited) then
            dfs b (b :: visited) (i :: path)
          else [])
        (List.mapi (fun i e -> (i, e)) edges)
  in
  let all = dfs source [ source ] [] in
  match all with
  | [] -> []
  | _ ->
    let minlen = List.fold_left (fun m p -> min m (List.length p)) max_int all in
    List.filter (fun p -> List.length p = minlen) all

let prop_all_paths_match_brute_force =
  QCheck.Test.make ~name:"all_paths: counts and sets match brute force"
    ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 3 + Random.State.int rng 5 in
      let m = Random.State.int rng 12 in
      let edges =
        List.init m (fun _ -> (Random.State.int rng n, Random.State.int rng n))
        |> List.filter (fun (a, b) -> a <> b)
      in
      if edges = [] then true
      else begin
        let csr =
          Graph.Csr.build ~vertex_count:n
            ~src:(Array.of_list (List.map fst edges))
            ~dst:(Array.of_list (List.map snd edges))
        in
        let source = Random.State.int rng n in
        let target = Random.State.int rng n in
        let dag = Graph.All_paths.build csr ~source in
        let expected =
          if source = target then [ [] ]
          else brute_force_shortest_paths edges ~source ~target
        in
        let got = Graph.All_paths.enumerate dag ~target () in
        let norm paths = List.sort compare paths in
        Graph.All_paths.count_paths dag ~target = List.length expected
        && norm (List.map Array.to_list got) = norm expected
      end)

let test_csr_timings () =
  let _, t =
    Graph.Csr.build_timed ~vertex_count:3 ~src:[| 0; 1; 2 |] ~dst:[| 1; 2; 0 |]
  in
  check tbool "phases sum to total" true
    (Float.abs (t.Graph.Csr.count_phase +. t.Graph.Csr.prefix_phase
                +. t.Graph.Csr.scatter_phase -. t.Graph.Csr.total)
    < 1e-6)

let () =
  Alcotest.run "graph"
    [
      ( "vertex_dict",
        [
          Alcotest.test_case "dense ids" `Quick test_dict_dense_ids;
          Alcotest.test_case "nulls and strings" `Quick test_dict_nulls_and_strings;
          Alcotest.test_case "decode bounds" `Quick test_dict_decode_bounds;
          Alcotest.test_case "specialized dates" `Quick test_dict_specialized_dates;
          Alcotest.test_case "mixed types fall back" `Quick test_dict_mixed_types_use_generic;
          QCheck_alcotest.to_alcotest prop_dict_specialization_equivalent;
        ] );
      ( "csr",
        [
          Alcotest.test_case "structure" `Quick test_csr_structure;
          Alcotest.test_case "edge-row provenance" `Quick test_csr_preserves_edge_rows;
          Alcotest.test_case "skips invalid slots" `Quick test_csr_skips_invalid;
          Alcotest.test_case "length mismatch" `Quick test_csr_length_mismatch;
          Alcotest.test_case "empty graph" `Quick test_csr_empty;
          Alcotest.test_case "timed build phases" `Quick test_csr_timings;
          QCheck_alcotest.to_alcotest prop_csr_degree_sum;
          QCheck_alcotest.to_alcotest prop_csr_extend_equals_build;
        ] );
      ( "heaps",
        [
          Alcotest.test_case "radix basics" `Quick test_radix_heap_basics;
          Alcotest.test_case "radix monotonicity" `Quick test_radix_heap_monotonicity;
          Alcotest.test_case "radix duplicates/clear" `Quick test_radix_heap_duplicates_and_clear;
          Alcotest.test_case "radix empty extract" `Quick test_radix_heap_empty_extract;
          Alcotest.test_case "binary model" `Quick test_binary_heap_model;
          QCheck_alcotest.to_alcotest prop_radix_heap_sorted;
          QCheck_alcotest.to_alcotest prop_radix_heap_interleaved;
          QCheck_alcotest.to_alcotest prop_binary_heap_sorted;
        ] );
      ( "search",
        [
          QCheck_alcotest.to_alcotest prop_bfs_matches_reference;
          QCheck_alcotest.to_alcotest
            (prop_dijkstra_matches_reference ~heap:Graph.Dijkstra.Radix
               "dijkstra(radix): costs match Bellman-Ford");
          QCheck_alcotest.to_alcotest
            (prop_dijkstra_matches_reference ~heap:Graph.Dijkstra.Binary
               "dijkstra(binary): costs match Bellman-Ford");
          QCheck_alcotest.to_alcotest prop_radix_equals_binary;
          QCheck_alcotest.to_alcotest prop_float_weights_match_scaled_int;
        ] );
      ( "all-paths",
        [
          Alcotest.test_case "diamond" `Quick test_all_paths_diamond;
          Alcotest.test_case "unreachable and limit" `Quick
            test_all_paths_unreachable_and_limit;
          QCheck_alcotest.to_alcotest prop_all_paths_match_brute_force;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "source = destination" `Quick test_runtime_source_equals_dest;
          Alcotest.test_case "non-vertices" `Quick test_runtime_nonexistent_vertices;
          Alcotest.test_case "weighted detour" `Quick test_runtime_weighted_picks_cheap_detour;
          Alcotest.test_case "directedness" `Quick test_runtime_direction_matters;
          Alcotest.test_case "weight validation" `Quick test_runtime_weight_validation;
          Alcotest.test_case "batched shared source" `Quick test_runtime_batch_shares_source;
          Alcotest.test_case "reachable api" `Quick test_runtime_reachable_api;
          Alcotest.test_case "parallel weighted" `Quick test_runtime_parallel_weighted;
          QCheck_alcotest.to_alcotest prop_parallel_equals_sequential;
          Alcotest.test_case "skewed sources steal" `Quick
            test_sched_skewed_steals;
          Alcotest.test_case "counter conservation" `Quick
            test_sched_counter_conservation;
          Alcotest.test_case "build stats" `Quick test_runtime_stats;
          Alcotest.test_case "bidirectional selection" `Quick
            test_runtime_bidir_selection;
        ] );
    ]
