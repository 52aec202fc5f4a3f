(* Graph runtime tests: dictionary, CSR, heaps, BFS, Dijkstra, and the
   batched pair driver — checked against brute-force references. *)

module V = Storage.Value
module C = Storage.Column
module D = Storage.Dtype

open Testjson.Support

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

(* Csr.extend_reverse after each step of a chain of 1-5 extensions
   equals Csr.reverse of the extended CSR, word for word. Plain and
   packed graphs, and a packed graph extended at the automatic
   representation (so the derived reverse changes representation too);
   -1 endpoints, self-loops, parallel edges, empty batches and new
   in-edges into vertices that had none come from the small vertex
   counts. *)
let prop_csr_extend_reverse_equals_reverse =
  let rows k =
    QCheck.Gen.(list_size (int_range 0 k) (pair (int_range (-1) 11) (int_range (-1) 11)))
  in
  let show l =
    String.concat "; " (List.map (fun (s, d) -> Printf.sprintf "%d->%d" s d) l)
  in
  QCheck.Test.make
    ~name:"csr: extend_reverse (reverse old) = reverse (extend old), 1-5 steps"
    ~count:300
    (QCheck.make
       ~print:(fun (n, old_rows, chain) ->
         Printf.sprintf "n=%d old=[%s] chain=[%s]" n (show old_rows)
           (String.concat " | " (List.map show chain)))
       QCheck.Gen.(
         triple (int_range 1 12) (rows 20) (list_size (int_range 1 5) (rows 6))))
    (fun (n, old_rows, chain) ->
      let ids f l =
        Array.of_list (List.map (fun r -> if f r < 0 then -1 else f r mod n) l)
      in
      List.for_all
        (fun (base, step) ->
          let rec go csr rev first = function
            | [] -> true
            | batch :: rest ->
              let src = ids fst batch and dst = ids snd batch in
              let ext = Graph.Csr.extend ?compact:step csr ~src ~dst ~first_row:first in
              let derived =
                Graph.Csr.extend_reverse ext ~rev ~old_offsets:csr.Graph.Csr.offsets
                  ~src ~dst
              in
              derived = Graph.Csr.reverse ext
              && go ext derived (first + Array.length src) rest
          in
          let src = ids fst old_rows and dst = ids snd old_rows in
          let g = Graph.Csr.build_repr ~compact:base ~vertex_count:n ~src ~dst in
          go g (Graph.Csr.reverse g) (Array.length src) chain)
        [ (false, None); (true, Some true); (true, None) ])

let test_csr_extend_reverse_cases () =
  let n = 4 in
  (* 0 -> 1, 0 -> 2, 2 -> 1: vertices 0 and 3 have no in-edge *)
  let g = Graph.Csr.build ~vertex_count:n ~src:[| 0; 0; 2 |] ~dst:[| 1; 2; 1 |] in
  let rev = Graph.Csr.reverse g in
  let step ~src ~dst =
    let ext = Graph.Csr.extend g ~src ~dst ~first_row:3 in
    Graph.Csr.extend_reverse ext ~rev ~old_offsets:g.Graph.Csr.offsets ~src ~dst
    = Graph.Csr.reverse ext
  in
  check tbool "no appended row" true (step ~src:[||] ~dst:[||]);
  check tbool "no kept appended row" true (step ~src:[| -1; 1 |] ~dst:[| 2; -1 |]);
  check tbool "into vertices with no in-edge, self-loop" true
    (step ~src:[| 3; 1; 3 |] ~dst:[| 0; 3; 3 |]);
  check tbool "parallel edges, merged between old in-edges" true
    (step ~src:[| 1; 1; 0 |] ~dst:[| 1; 1; 1 |]);
  Alcotest.check_raises "another graph's reverse"
    (Invalid_argument "Csr.extend_reverse: not the reverse of the extended graph")
    (fun () ->
      ignore
        (Graph.Csr.extend_reverse g ~rev ~old_offsets:g.Graph.Csr.offsets
           ~src:[| 0 |] ~dst:[| 1 |]))

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

(* Peeks and filters against a sorted-list model, with priorities of
   every bit width up to 40 above the floor, so every bucket is used. *)
let prop_radix_heap_peek_filter =
  QCheck.Test.make
    ~name:"radix heap: peek, filter, wide priorities match a model" ~count:300
    QCheck.(
      make
        ~print:Print.(list (pair int int))
        Gen.(
          list_size (int_range 1 80)
            (pair (int_range 0 4)
               (int_range 0 40 >>= fun bits -> int_range 0 (1 lsl bits)))))
    (fun ops ->
      let h = Graph.Radix_heap.create () in
      let model = ref [] and floor = ref 0 and ok = ref true in
      let expect b = if not b then ok := false in
      List.iteri
        (fun i (op, delta) ->
          match (op, !model) with
          | (0 | 1), _ ->
            let p = !floor + delta in
            Graph.Radix_heap.insert h ~priority:p ~payload:i;
            model := List.sort compare ((p, i) :: !model)
          | 2, (p, _) :: _ ->
            (* equal priorities may leave in any order: drop the one
               that left *)
            let got = radix_pop h in
            expect (fst got = p && List.mem got !model);
            model := List.filter (( <> ) got) !model;
            floor := p
          | 3, (p, _) :: _ ->
            expect (Graph.Radix_heap.min_priority h = p);
            floor := p
          | (2 | 3), [] -> expect (Graph.Radix_heap.is_empty h)
          | _ ->
            let keep p v = (p + v) mod 3 <> 0 in
            Graph.Radix_heap.filter h keep;
            model := List.filter (fun (p, v) -> keep p v) !model)
        ops;
      !ok && Graph.Radix_heap.size h = List.length !model)

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

(* Weights in 1..3 or 1..50: the narrow range makes equal-cost paths
   common, and the tie rule must pick the same one on both heaps. *)
let prop_radix_equals_binary =
  QCheck.Test.make ~name:"dijkstra: radix = binary, same path"
    ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 2 + Random.State.int rng 12 in
      let edges = random_graph rng n 35 in
      if edges = [] then true
      else begin
        let max_w = if Random.State.bool rng then 3 else 50 in
        let weights =
          Array.init (List.length edges) (fun _ ->
              1 + Random.State.int rng max_w)
        in
        let rt, _, _ = make_runtime edges n in
        let pairs = Array.init (n * n) (fun i -> (V.Int (i / n), V.Int (i mod n))) in
        let run heap =
          Graph.Runtime.run_pairs rt
            ~weights:(Graph.Runtime.Int_weights weights) ~heap ~pairs ()
        in
        run Graph.Dijkstra.Radix = run Graph.Dijkstra.Binary
      end)

(* The bidirectional search returns run_int's (cost, path) byte for byte,
   and the same cost without the path. Tie-heavy weights (1..3) or wide
   ones (1..50), parallel edges and self-loops, every pair including
   source = destination and unreachable ones, over a plain, a packed and
   an extended CSR; one workspace serves every search. *)
let prop_bidir_equals_run_int =
  QCheck.Test.make ~name:"dijkstra: bidirectional = run_int, cost and path"
    ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 1 + Random.State.int rng 12 in
      let m = Random.State.int rng 40 in
      let src = Array.init m (fun _ -> Random.State.int rng n) in
      let dst = Array.init m (fun _ -> Random.State.int rng n) in
      let max_w = if Random.State.bool rng then 3 else 50 in
      let per_row = Array.init m (fun _ -> 1 + Random.State.int rng max_w) in
      let k = Random.State.int rng (m + 1) in
      let csrs =
        [
          Graph.Csr.build ~vertex_count:n ~src ~dst;
          Graph.Csr.build_repr ~compact:true ~vertex_count:n ~src ~dst;
          Graph.Csr.extend
            (Graph.Csr.build ~vertex_count:n ~src:(Array.sub src 0 k)
               ~dst:(Array.sub dst 0 k))
            ~src:(Array.sub src k (m - k)) ~dst:(Array.sub dst k (m - k))
            ~first_row:k;
        ]
      in
      let pairs = List.init (n * n) (fun i -> (i / n, i mod n)) in
      List.for_all
        (fun csr ->
          let weights =
            Array.init (Graph.Csr.edge_count csr) (fun slot ->
                per_row.(Graph.Ivec.get csr.Graph.Csr.edge_rows slot))
          in
          let rev = Graph.Csr.reverse csr in
          let ws = Graph.Workspace.create n in
          let path ~source ~dest =
            Graph.Path_tree.edge_rows ws csr ~source ~dst:dest
          in
          List.for_all
            (fun (source, dest) ->
              Graph.Dijkstra.run_int ws csr ~weights ~source
                ~targets:[| dest |] ~heap:Graph.Dijkstra.Radix;
              let one_sided =
                if Graph.Workspace.visited ws dest then
                  Some (ws.Graph.Workspace.dist_int.(dest), path ~source ~dest)
                else None
              in
              let bidir ~paths =
                Graph.Dijkstra.bidir_int ws csr ~rev ~weights ~source ~dest
                  ~paths
              in
              let cost = bidir ~paths:false in
              let two_sided =
                Option.map (fun c -> (c, path ~source ~dest)) (bidir ~paths:true)
              in
              one_sided = two_sided && cost = Option.map fst one_sided)
            pairs)
        csrs)

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
  let tasks = ref 0 in
  while (not !stole) && !attempts < 10 do
    incr attempts;
    let counts = Graph.Runtime.fresh_counts () in
    ignore
      (Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted
         ~engine:`Batched ~domains:4 ~oversubscribe:true ~counts ~pairs ());
    tasks := counts.Graph.Runtime.tasks;
    if counts.Graph.Runtime.steals > 0 then stole := true
  done;
  check tbool "steals observed under skew" true !stole;
  check tbool "wave tasks executed" true (!tasks > 0)

(* Deterministic counter absorption: the wave partition is fixed by the
   batch alone (never by worker count or steal order), so the per-worker
   counters folded in at the join must sum to identical totals for every
   domain count — and searches must equal the distinct-source count. *)
let test_sched_counter_conservation () =
  let rt, pairs, nsources = skewed_setup () in
  let delta domains =
    let counts = Graph.Runtime.fresh_counts () in
    ignore
      (Graph.Runtime.run_pairs rt ~weights:Graph.Runtime.Unweighted
         ~engine:`Batched ~domains ~oversubscribe:true ~counts ~pairs ());
    let a = counts.Graph.Runtime.trav in
    Graph.Workspace.(a.searches, a.settled, a.edges_scanned, a.waves, a.dir_switches)
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

(* The weighted single pair takes the bidirectional route with or without
   its path, on the radix heap and the [`Auto] engine only; the outcome is
   the one-sided one either way. A non-vertex endpoint never searches. *)
let test_runtime_weighted_bidir_selection () =
  let rt = diamond_runtime () in
  let run ?engine ?heap ?paths ?(weights = Graph.Runtime.Int_weights [| 1; 10; 1; 1 |])
      pairs =
    let notes = ref [] in
    let out =
      Graph.Runtime.run_pairs rt ~weights ?engine ?heap ?paths
        ~note:(fun k v -> notes := (k, v) :: !notes) ~pairs ()
    in
    (out, !notes = [ ("search", "bidir") ])
  in
  let one = [| (V.Int 1, V.Int 4); (V.Int 1, V.Int 4) |] in
  let want = Graph.Runtime.Reached { cost = V.Int 3; edge_rows = [| 0; 2; 3 |] } in
  check tbool "no reverse CSR" false (snd (run one));
  check tbool "one-sided answer" true (Array.for_all (( = ) want) (fst (run one)));
  Graph.Runtime.prepare_bidir rt;
  let out, bidir = run one in
  check tbool "single pair with path" true bidir;
  check tbool "same cost and path, fanned out" true (Array.for_all (( = ) want) out);
  let out, bidir = run ~paths:false one in
  check tbool "cost-only single pair" true bidir;
  check tbool "cost, no path" true
    (Array.for_all
       (( = ) (Graph.Runtime.Reached { cost = V.Int 3; edge_rows = [||] }))
       out);
  check tbool "binary heap" false (snd (run ~heap:Graph.Dijkstra.Binary one));
  check tbool "forced scalar" false (snd (run ~engine:`Scalar one));
  check tbool "float weights" false
    (snd (run ~weights:(Graph.Runtime.Float_weights [| 1.; 10.; 1.; 1. |]) one));
  check tbool "two destinations" false
    (snd (run [| (V.Int 1, V.Int 4); (V.Int 1, V.Int 3) |]));
  let out, bidir = run [| (V.Int 1, V.Int 99) |] in
  check tbool "non-vertex endpoint" true
    ((not bidir) && out = [| Graph.Runtime.Unreachable |]);
  let out, bidir = run [| (V.Int 4, V.Int 1) |] in
  check tbool "unreachable" true (bidir && out = [| Graph.Runtime.Unreachable |])

(* A runtime extended in a chain keeps its reverse CSR derived, never
   rebuilt, and answers every single pair as a fresh build of the same
   rows: the bidirectional BFS (cost only) and the bidirectional radix
   Dijkstra with its path. Appended sources are old source keys and
   appended destinations old keys, so every step extends. *)
let test_runtime_extend_chain_bidir () =
  let rng = Random.State.make [| 31 |] in
  let n = 24 in
  let m0 = 60 in
  let src = ref (List.init m0 (fun _ -> Random.State.int rng n)) in
  let dst = ref (List.init m0 (fun _ -> Random.State.int rng n)) in
  let col l = C.of_values D.TInt (List.map (fun k -> V.Int k) l) in
  let rt = ref (Graph.Runtime.build ~src:(col !src) ~dst:(col !dst)) in
  Graph.Runtime.prepare_bidir !rt;
  check tbool "first reverse built" true
    ((Graph.Runtime.stats !rt).Graph.Runtime.reverse = Some Graph.Runtime.Built);
  let keys l = List.sort_uniq compare l in
  for step = 1 to 5 do
    let old_src = Array.of_list (keys !src) in
    let old_keys = Array.of_list (keys (!src @ !dst)) in
    let pick a = a.(Random.State.int rng (Array.length a)) in
    let k = Random.State.int rng 5 in
    let from = List.length !src in
    src := !src @ List.init k (fun _ -> pick old_src);
    dst := !dst @ List.init k (fun _ -> pick old_keys);
    (match Graph.Runtime.extend !rt ~src:(col !src) ~dst:(col !dst) ~from with
    | Some ext -> rt := ext
    | None -> Alcotest.failf "step %d: extension refused" step);
    check tbool "no reverse before prepare_bidir" false (Graph.Runtime.has_bidir !rt);
    Graph.Runtime.prepare_bidir !rt;
    check tbool "has_bidir after the chain step" true (Graph.Runtime.has_bidir !rt);
    check tbool "reverse derived" true
      ((Graph.Runtime.stats !rt).Graph.Runtime.reverse = Some Graph.Runtime.Derived);
    let fresh = Graph.Runtime.build ~src:(col !src) ~dst:(col !dst) in
    Graph.Runtime.prepare_bidir fresh;
    let per_row =
      Array.init (List.length !src) (fun _ -> 1 + Random.State.int rng 4)
    in
    for s = 0 to n - 1 do
      for d = 0 to n - 1 do
        let pairs = [| (V.Int s, V.Int d) |] in
        let answer rt ~weights ~paths =
          let bidir = ref false in
          let out =
            Graph.Runtime.run_pairs rt ~weights ~paths
              ~note:(fun k v -> if k = "search" && v = "bidir" then bidir := true)
              ~pairs ()
          in
          (out, !bidir)
        in
        List.iter
          (fun (weights, paths) ->
            let got, bidir = answer !rt ~weights ~paths in
            let want, _ = answer fresh ~weights ~paths in
            if not (bidir && got = want) then
              Alcotest.failf "step %d, pair %d -> %d: bidir %b, outcome differs"
                step s d bidir)
          [
            (Graph.Runtime.Unweighted, false);
            (Graph.Runtime.Int_weights per_row, true);
          ]
      done
    done
  done

(* An extension, reverse included, allocates the new forward and reverse
   slot arrays (4E' words on a plain graph) plus O(V + appended): no
   per-edge boxing, no second copy. *)
let test_runtime_extend_allocation () =
  let rng = Random.State.make [| 7 |] in
  let n = 2_000 and m0 = 40_000 and k = 4 in
  let src = Array.init (m0 + k) (fun _ -> Random.State.int rng n) in
  let dst = Array.init (m0 + k) (fun _ -> Random.State.int rng n) in
  let col a = C.of_values D.TInt (Array.to_list (Array.map (fun x -> V.Int x) a)) in
  let scol = col src and dcol = col dst in
  let rt =
    Graph.Runtime.build ~src:(C.of_values D.TInt (List.init m0 (fun i -> V.Int src.(i))))
      ~dst:(C.of_values D.TInt (List.init m0 (fun i -> V.Int dst.(i))))
  in
  Graph.Runtime.prepare_bidir rt;
  (* minor words from [Gc.minor_words], major and promoted ones from
     [Gc.counters] ([quick_stat]'s lag until the next collection or
     slice); emptying the minor heap first means the window promotes only
     its own words *)
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  Gc.minor ();
  let before = words () in
  let ext =
    match Graph.Runtime.extend rt ~src:scol ~dst:dcol ~from:m0 with
    | Some ext -> ext
    | None -> Alcotest.fail "extension refused"
  in
  Graph.Runtime.prepare_bidir ext;
  let allocated = words () -. before in
  let e = Graph.Runtime.edge_count ext in
  let bound = float_of_int ((4 * e) + (8 * (n + 1)) + (64 * k) + 4096) in
  check tbool "reverse derived" true
    ((Graph.Runtime.stats ext).Graph.Runtime.reverse = Some Graph.Runtime.Derived);
  if allocated > bound then
    Alcotest.failf "extension allocated %.0f words, bound %.0f (E=%d, V=%d)"
      allocated bound e n

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

(* All_paths as the independent third oracle.  Over small random graphs
   (self-loops, parallel edges, s = t and unreachable pairs), for every
   ordered pair of values: the one-sided BFS, the bidirectional BFS and
   MS-BFS at 1 and 2 workers agree with the DAG's hop count, and every
   path they return is one of the DAG's shortest paths and the
   canonical walk back (at each vertex, the DAG in-edge with the least
   forward CSR slot).  The oracle CSR is built over the runtime's
   dictionary ids, so its slots are the runtime's. *)
let prop_all_paths_oracle =
  QCheck.Test.make ~count:60
    ~name:"all_paths oracle: BFS, bidir BFS, MS-BFS at 1/2 workers agree"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let open Graph in
      let rng = Random.State.make [| seed |] in
      let n = 1 + Random.State.int rng 7 in
      let m = 1 + Random.State.int rng 14 in
      let src = Array.init m (fun _ -> Random.State.int rng n) in
      let dst = Array.init m (fun _ -> Random.State.int rng n) in
      let rt = Runtime.build ~src:(C.of_int_array src) ~dst:(C.of_int_array dst) in
      Runtime.prepare_bidir rt;
      let dict = Runtime.dict rt in
      let nv = Vertex_dict.cardinality dict in
      let id v = Option.get (Vertex_dict.encode dict (V.Int v)) in
      let csr = Csr.build ~vertex_count:nv ~src:(Array.map id src) ~dst:(Array.map id dst) in
      let rev = Csr.reverse csr and ws = Workspace.create nv in
      (* every value 0..n: the value n is no vertex *)
      let pairs = Array.init ((n + 1) * (n + 1)) (fun i -> (V.Int (i / (n + 1)), V.Int (i mod (n + 1)))) in
      let msbfs =
        List.map
          (fun domains ->
            Runtime.run_pairs rt ~weights:Runtime.Unweighted ~engine:`Batched ~domains
              ~oversubscribe:true ~pairs ())
          [ 1; 2 ]
      in
      let rec walk_back dag ~source v acc =
        if v = source then Array.of_list acc
        else begin
          let best = ref (max_int, -1) and dv = All_paths.distance dag v in
          for u = 0 to nv - 1 do
            if dv <> None && Option.map succ (All_paths.distance dag u) = dv then
              Csr.iter_out csr u (fun ~slot ~target ->
                  if target = v && slot < fst !best then best := (slot, u))
          done;
          let slot, u = !best in
          walk_back dag ~source u (Ivec.get csr.Csr.edge_rows slot :: acc)
        end
      in
      Array.for_all Fun.id
        (Array.mapi
           (fun i (a, b) ->
             let outs = List.map (fun o -> o.(i)) msbfs in
             match (Vertex_dict.encode dict a, Vertex_dict.encode dict b) with
             | Some s, Some t ->
               let dag = All_paths.build csr ~source:s in
               let hops = All_paths.distance dag t in
               let shortest = All_paths.enumerate dag ~target:t ~limit:100_000 () in
               let canonical p =
                 Some (Array.length p) = hops && List.mem p shortest
                 && p = walk_back dag ~source:s t []
               in
               Bfs.run ws csr ~source:s ~targets:[| t |];
               (if Workspace.visited ws t then
                  Some ws.Workspace.dist_int.(t) = hops
                  && canonical (Path_tree.edge_rows ws csr ~source:s ~dst:t)
                else hops = None)
               && Bfs.distance ws csr ~rev ~source:s ~dest:t = hops
               && List.for_all
                    (function
                      | Runtime.Unreachable -> hops = None
                      | Runtime.Reached { cost; edge_rows } ->
                        Some cost = Option.map (fun h -> V.Int h) hops && canonical edge_rows)
                    outs
             | _ -> List.for_all (( = ) Runtime.Unreachable) outs)
           pairs))

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
          QCheck_alcotest.to_alcotest prop_csr_extend_reverse_equals_reverse;
          Alcotest.test_case "extend_reverse edge cases" `Quick
            test_csr_extend_reverse_cases;
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
          QCheck_alcotest.to_alcotest prop_radix_heap_peek_filter;
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
          QCheck_alcotest.to_alcotest prop_bidir_equals_run_int;
          QCheck_alcotest.to_alcotest prop_float_weights_match_scaled_int;
        ] );
      ( "all-paths",
        [
          Alcotest.test_case "diamond" `Quick test_all_paths_diamond;
          Alcotest.test_case "unreachable and limit" `Quick
            test_all_paths_unreachable_and_limit;
          QCheck_alcotest.to_alcotest prop_all_paths_match_brute_force;
          QCheck_alcotest.to_alcotest prop_all_paths_oracle;
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
          Alcotest.test_case "weighted bidirectional selection" `Quick
            test_runtime_weighted_bidir_selection;
          Alcotest.test_case "extension chain keeps a derived reverse" `Quick
            test_runtime_extend_chain_bidir;
          Alcotest.test_case "extension allocates 4E + O(V + appended)" `Quick
            test_runtime_extend_allocation;
        ] );
    ]
