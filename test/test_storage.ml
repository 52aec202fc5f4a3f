(* Unit and property tests for the storage layer. *)

module V = Storage.Value
module D = Storage.Dtype

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Dtype                                                               *)
(* ------------------------------------------------------------------ *)

let test_dtype_names () =
  check tstr "int" "INTEGER" (D.name D.TInt);
  check tstr "float" "DOUBLE" (D.name D.TFloat);
  check tstr "path" "PATH" (D.name D.TPath);
  check tbool "parse int" true (D.of_name "integer" = Some D.TInt);
  check tbool "parse bigint synonym" true (D.of_name "BIGINT" = Some D.TInt);
  check tbool "parse varchar" true (D.of_name "VarChar" = Some D.TStr);
  check tbool "parse text synonym" true (D.of_name "TEXT" = Some D.TStr);
  check tbool "parse real synonym" true (D.of_name "REAL" = Some D.TFloat);
  check tbool "parse date" true (D.of_name "DATE" = Some D.TDate);
  check tbool "PATH is not creatable" true (D.of_name "PATH" = None);
  check tbool "unknown" true (D.of_name "BLOB" = None)

let test_dtype_numeric () =
  check tbool "int numeric" true (D.is_numeric D.TInt);
  check tbool "float numeric" true (D.is_numeric D.TFloat);
  check tbool "str not" false (D.is_numeric D.TStr);
  check tbool "date not" false (D.is_numeric D.TDate);
  check tbool "bool not" false (D.is_numeric D.TBool);
  check tbool "path not" false (D.is_numeric D.TPath)

(* ------------------------------------------------------------------ *)
(* Date                                                                *)
(* ------------------------------------------------------------------ *)

let test_date_epoch () =
  check tint "epoch day zero" 0 (Storage.Date.of_ymd ~year:1970 ~month:1 ~day:1);
  check tint "day one" 1 (Storage.Date.of_ymd ~year:1970 ~month:1 ~day:2);
  check tint "before epoch" (-1) (Storage.Date.of_ymd ~year:1969 ~month:12 ~day:31)

let test_date_roundtrip_known () =
  List.iter
    (fun (y, m, d) ->
      let t = Storage.Date.of_ymd ~year:y ~month:m ~day:d in
      check (Alcotest.triple tint tint tint)
        (Printf.sprintf "%04d-%02d-%02d" y m d)
        (y, m, d) (Storage.Date.to_ymd t))
    [
      (1970, 1, 1); (2000, 2, 29); (2010, 3, 24); (2010, 12, 2);
      (2011, 1, 1); (1900, 3, 1); (2400, 2, 29); (1582, 10, 15);
    ]

let test_date_strings () =
  check tstr "format" "2010-03-24"
    (Storage.Date.to_string (Storage.Date.of_ymd ~year:2010 ~month:3 ~day:24));
  check tbool "parse" true
    (Storage.Date.of_string "2010-03-24"
    = Some (Storage.Date.of_ymd ~year:2010 ~month:3 ~day:24));
  check tbool "reject garbage" true (Storage.Date.of_string "not-a-date" = None);
  check tbool "reject bad month" true (Storage.Date.of_string "2010-13-01" = None)

let test_date_leap_years () =
  check tbool "2000 leap" true (Storage.Date.is_leap_year 2000);
  check tbool "1900 not leap" false (Storage.Date.is_leap_year 1900);
  check tbool "2012 leap" true (Storage.Date.is_leap_year 2012);
  check tbool "2011 not" false (Storage.Date.is_leap_year 2011);
  check tint "feb 2012" 29 (Storage.Date.days_in_month ~year:2012 ~month:2);
  check tint "feb 2011" 28 (Storage.Date.days_in_month ~year:2011 ~month:2)

let test_date_invalid () =
  Alcotest.check_raises "bad day" (Invalid_argument "Date.of_ymd: bad day")
    (fun () -> ignore (Storage.Date.of_ymd ~year:2011 ~month:2 ~day:29))

let prop_date_roundtrip =
  QCheck.Test.make ~name:"date: of_ymd/to_ymd roundtrip over +-200 years"
    ~count:1000
    QCheck.(int_range (-73000) 73000)
    (fun t ->
      let y, m, d = Storage.Date.to_ymd t in
      Storage.Date.of_ymd ~year:y ~month:m ~day:d = t)

let prop_date_monotone =
  QCheck.Test.make ~name:"date: successive days differ by one" ~count:500
    QCheck.(int_range (-73000) 73000)
    (fun t ->
      let y, m, d = Storage.Date.to_ymd (t + 1) in
      Storage.Date.of_ymd ~year:y ~month:m ~day:d = t + 1)

(* ------------------------------------------------------------------ *)
(* Value                                                               *)
(* ------------------------------------------------------------------ *)

let test_value_compare () =
  check tbool "int eq" true (V.compare (V.Int 3) (V.Int 3) = 0);
  check tbool "int lt" true (V.compare (V.Int 2) (V.Int 3) < 0);
  check tbool "cross numeric eq" true (V.compare (V.Int 2) (V.Float 2.0) = 0);
  check tbool "cross numeric lt" true (V.compare (V.Int 2) (V.Float 2.5) < 0);
  check tbool "null first" true (V.compare V.Null (V.Int (-100)) < 0);
  check tbool "strings" true (V.compare (V.Str "abc") (V.Str "abd") < 0);
  check tbool "dates" true (V.compare (V.Date 10) (V.Date 20) < 0)

let test_value_hash_consistent () =
  check tbool "Int/Float 2 hash alike" true (V.hash (V.Int 2) = V.hash (V.Float 2.));
  check tbool "equal implies compare 0" true (V.equal (V.Int 2) (V.Float 2.))

let test_value_cast () =
  let ok v ty expect =
    match V.cast v ty with
    | Ok got -> check tbool "cast ok" true (V.equal got expect)
    | Error m -> Alcotest.failf "cast failed: %s" m
  in
  ok (V.Int 3) D.TFloat (V.Float 3.);
  ok (V.Float 3.9) D.TInt (V.Int 3);
  ok (V.Str "42") D.TInt (V.Int 42);
  ok (V.Str "2.5") D.TFloat (V.Float 2.5);
  ok (V.Str "2010-03-24") D.TDate
    (V.Date (Storage.Date.of_ymd ~year:2010 ~month:3 ~day:24));
  ok (V.Bool true) D.TInt (V.Int 1);
  ok (V.Int 0) D.TBool (V.Bool false);
  ok V.Null D.TInt V.Null;
  ok (V.Date 0) D.TStr (V.Str "1970-01-01");
  check tbool "bad cast errors" true
    (match V.cast (V.Str "xyz") D.TInt with Error _ -> true | Ok _ -> false);
  check tbool "path does not cast" true
    (match V.cast (V.Path { tag = Obj.magic 0; rows = [||] }) D.TInt with
    | Error _ -> true
    | Ok _ -> false)

(* CAST(CAST(x AS VARCHAR) AS DOUBLE) = x, bit for bit, for every finite
   x: the VARCHAR text is Value.float_text, not a 6-digit %g. *)
let prop_float_varchar_roundtrip =
  let finite =
    QCheck.Gen.(
      oneof
        [
          float;
          map Int64.float_of_bits int64;
          map (fun (m, e) -> Float.ldexp (float_of_int m) e)
            (pair (int_range (-1_000_000) 1_000_000) (int_range (-60) 60));
        ]
      |> map (fun x -> if Float.is_finite x then x else 0.1))
  in
  QCheck.Test.make ~name:"value: CAST(CAST(x AS VARCHAR) AS DOUBLE) = x"
    ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%h") finite)
    (fun x ->
      match V.cast (V.Float x) D.TStr with
      | Ok (V.Str text as s) -> (
        match V.cast s D.TFloat with
        | Ok (V.Float y) ->
          text = V.float_text x && Int64.bits_of_float y = Int64.bits_of_float x
        | _ -> false)
      | _ -> false)

let test_value_display () =
  check tstr "null" "NULL" (V.to_display V.Null);
  check tstr "int" "42" (V.to_display (V.Int 42));
  check tstr "float whole" "2.0" (V.to_display (V.Float 2.));
  check tstr "bool" "true" (V.to_display (V.Bool true));
  check tstr "date" "1970-01-01" (V.to_display (V.Date 0))

let prop_value_compare_total =
  let gen =
    QCheck.Gen.oneof
      [
        QCheck.Gen.return V.Null;
        QCheck.Gen.map (fun i -> V.Int i) QCheck.Gen.int;
        QCheck.Gen.map (fun f -> V.Float f) (QCheck.Gen.float_bound_inclusive 1e6);
        QCheck.Gen.map (fun b -> V.Bool b) QCheck.Gen.bool;
        QCheck.Gen.map (fun s -> V.Str s) QCheck.Gen.string_small;
        QCheck.Gen.map (fun d -> V.Date d) (QCheck.Gen.int_range (-10000) 10000);
      ]
  in
  let arb = QCheck.make gen in
  QCheck.Test.make ~name:"value: compare is antisymmetric" ~count:1000
    (QCheck.pair arb arb)
    (fun (a, b) -> V.compare a b = -V.compare b a)

(* ------------------------------------------------------------------ *)
(* Nullmask                                                            *)
(* ------------------------------------------------------------------ *)

let test_nullmask_basic () =
  let m = Storage.Nullmask.create () in
  check tint "empty" 0 (Storage.Nullmask.length m);
  Storage.Nullmask.append m false;
  Storage.Nullmask.append m true;
  Storage.Nullmask.append m false;
  check tint "len" 3 (Storage.Nullmask.length m);
  check tbool "0" false (Storage.Nullmask.get m 0);
  check tbool "1" true (Storage.Nullmask.get m 1);
  check tbool "2" false (Storage.Nullmask.get m 2);
  check tint "count" 1 (Storage.Nullmask.null_count m);
  let c = Storage.Nullmask.copy m in
  Storage.Nullmask.append m true;
  Storage.Nullmask.append c false;
  check tint "count after append" 2 (Storage.Nullmask.null_count m);
  check tint "copy count" 1 (Storage.Nullmask.null_count c);
  check tbool "copy bit" false (Storage.Nullmask.get c 3);
  check tbool "source bit" true (Storage.Nullmask.get m 3)

let test_nullmask_growth () =
  let m = Storage.Nullmask.create ~capacity:1 () in
  for i = 0 to 999 do
    Storage.Nullmask.append m (i mod 3 = 0)
  done;
  check tint "len" 1000 (Storage.Nullmask.length m);
  check tint "count" 334 (Storage.Nullmask.null_count m);
  let ok = ref true in
  for i = 0 to 999 do
    if Storage.Nullmask.get m i <> (i mod 3 = 0) then ok := false
  done;
  check tbool "bits" true !ok

let test_nullmask_bounds () =
  let m = Storage.Nullmask.create () in
  Storage.Nullmask.append m true;
  Alcotest.check_raises "oob get"
    (Invalid_argument "Nullmask.get: index out of bounds") (fun () ->
      ignore (Storage.Nullmask.get m 1))

(* ------------------------------------------------------------------ *)
(* Column                                                              *)
(* ------------------------------------------------------------------ *)

module C = Storage.Column

let test_column_roundtrip () =
  let vals = [ V.Int 1; V.Null; V.Int 3; V.Int (-7) ] in
  let c = C.of_values D.TInt vals in
  check tint "len" 4 (C.length c);
  check tbool "values" true (List.for_all2 V.equal vals (C.to_list c));
  check tint "nulls" 1 (C.null_count c);
  check tbool "is_null" true (C.is_null c 1)

let test_column_types () =
  let cases =
    [
      (D.TFloat, [ V.Float 1.5; V.Null; V.Float (-2.) ]);
      (D.TBool, [ V.Bool true; V.Bool false; V.Null ]);
      (D.TStr, [ V.Str "a"; V.Str ""; V.Null ]);
      (D.TDate, [ V.Date 0; V.Date 14692; V.Null ]);
    ]
  in
  List.iter
    (fun (ty, vals) ->
      let c = C.of_values ty vals in
      check tbool (D.name ty) true (List.for_all2 V.equal vals (C.to_list c)))
    cases

let test_column_int_widens_to_float () =
  let c = C.of_values D.TFloat [ V.Int 2; V.Float 0.5 ] in
  check tbool "widened" true (V.equal (C.get c 0) (V.Float 2.))

let test_column_type_mismatch () =
  let c = C.create D.TInt in
  Alcotest.check_raises "str into int"
    (Invalid_argument "Column.append: cell x does not fit column type INTEGER")
    (fun () -> C.append c (V.Str "x"))

let test_column_take () =
  let c = C.of_values D.TInt [ V.Int 10; V.Int 20; V.Int 30; V.Null ] in
  let t = C.take c [| 3; 1; 1; 0 |] in
  check tbool "gather" true
    (List.for_all2 V.equal [ V.Null; V.Int 20; V.Int 20; V.Int 10 ] (C.to_list t))

let test_column_take_empty_then_append () =
  (* regression: a zero-row gather must stay appendable *)
  let c = C.of_values D.TInt [ V.Int 1; V.Int 2 ] in
  let empty = C.take c [||] in
  check tint "empty" 0 (C.length empty);
  C.append empty (V.Int 9);
  check tbool "append works" true (V.equal (C.get empty 0) (V.Int 9))

let test_column_raw_views () =
  let c = C.of_values D.TInt [ V.Int 1; V.Null; V.Int 3 ] in
  (match C.raw_int c with
  | Some a ->
    check tbool "payload" true (a.(0) = 1 && a.(2) = 3)
  | None -> Alcotest.fail "expected an int backing array");
  check tbool "null flags" true
    (List.map (C.is_null c) [ 0; 1; 2 ] = [ false; true; false ]);
  check tbool "raw_float of int col" true (C.raw_float c = None)

let test_column_fast_accessors () =
  let c = C.of_values D.TInt [ V.Int 5; V.Int 6 ] in
  check tint "int_at" 6 (C.int_at c 1);
  let f = C.of_values D.TFloat [ V.Float 1.5 ] in
  check (Alcotest.float 0.0) "float_at" 1.5 (C.float_at f 0);
  let s = C.of_values D.TStr [ V.Str "hi" ] in
  check tstr "str_at" "hi" (C.str_at s 0);
  let b = C.of_values D.TBool [ V.Bool true ] in
  check tbool "bool_at" true (C.bool_at b 0);
  Alcotest.check_raises "wrong accessor"
    (Invalid_argument "Column.int_at: not an int column") (fun () ->
      ignore (C.int_at s 0))

let test_column_growth () =
  let c = C.create ~capacity:1 D.TInt in
  for i = 0 to 9999 do
    C.append c (if i mod 7 = 0 then V.Null else V.Int i)
  done;
  check tint "len" 10000 (C.length c);
  check tbool "spot" true (V.equal (C.get c 9999) (V.Int 9999));
  check tbool "null spot" true (V.equal (C.get c 7000) V.Null)

let test_column_of_arrays () =
  let c = C.of_int_array [| 1; 2; 3 |] in
  check tint "len" 3 (C.length c);
  check tint "get" 2 (C.int_at c 1);
  let f = C.of_float_array [| 0.5 |] in
  check (Alcotest.float 0.0) "float" 0.5 (C.float_at f 0)

let test_column_equal_copy () =
  let c = C.of_values D.TStr [ V.Str "a"; V.Null ] in
  let d = C.copy c in
  check tbool "copy equal" true (C.equal c d);
  C.append d (V.Str "b");
  check tbool "diverged" false (C.equal c d)

let prop_column_roundtrip =
  let arb =
    QCheck.list_of_size (QCheck.Gen.int_range 0 200)
      (QCheck.option QCheck.small_signed_int)
  in
  QCheck.Test.make ~name:"column: append/get roundtrip (int + null)" ~count:200
    arb
    (fun ints ->
      let vals =
        List.map (function None -> V.Null | Some i -> V.Int i) ints
      in
      let c = C.of_values D.TInt vals in
      List.for_all2 V.equal vals (C.to_list c))

(* A copy shares its source's storage: model-check random append/copy
   sequences over a pool of columns against plain value lists. [Rebuild]
   adds a column with a copy's cells in storage of its own, so
   [equal_prefix] is exercised on shared and unshared pairs alike. *)

type V.nested += Test_path

type pool_op = Append of int * V.t | Copy of int | Rebuild of int

let dtypes = [ D.TInt; D.TFloat; D.TBool; D.TStr; D.TDate; D.TPath ]

let gen_cell ty =
  let open QCheck.Gen in
  let cell =
    match ty with
    | D.TInt -> map (fun i -> V.Int i) small_signed_int
    | D.TFloat -> map (fun f -> V.Float f) (float_bound_inclusive 100.)
    | D.TBool -> map (fun b -> V.Bool b) bool
    | D.TStr -> map (fun s -> V.Str s) (string_size ~gen:printable (0 -- 3))
    | D.TDate -> map (fun d -> V.Date d) (int_range (-100) 100)
    | D.TPath ->
      map
        (fun l -> V.Path { tag = Test_path; rows = Array.of_list l })
        (list_size (0 -- 3) (0 -- 9))
  in
  frequency [ (1, return V.Null); (4, cell) ]

let gen_pool_run =
  let open QCheck.Gen in
  let* ty = oneofl dtypes in
  let op =
    frequency
      [
        (6, map2 (fun k v -> Append (k, v)) nat (gen_cell ty));
        (2, map (fun k -> Copy k) nat);
        (1, map (fun k -> Rebuild k) nat);
      ]
  in
  let* ops = list_size (0 -- 300) op in
  let* pairs = list_size (1 -- 20) (triple nat nat (0 -- 100)) in
  return (ty, ops, pairs)

let print_pool_run (ty, ops, pairs) =
  let op = function
    | Append (k, v) -> Printf.sprintf "append %d %s" k (V.to_display v)
    | Copy k -> Printf.sprintf "copy %d" k
    | Rebuild k -> Printf.sprintf "rebuild %d" k
  in
  Printf.sprintf "%s: [%s] pairs [%s]" (D.name ty)
    (String.concat "; " (List.map op ops))
    (String.concat "; "
       (List.map (fun (i, j, n) -> Printf.sprintf "(%d,%d,%d)" i j n) pairs))

let prop_column_shared_storage =
  QCheck.Test.make ~name:"column: copies sharing storage match their models"
    ~count:300
    (QCheck.make ~print:print_pool_run gen_pool_run)
    (fun (ty, ops, pairs) ->
      (* each slot: a column and its cells, in row order *)
      let pool = ref [| (C.create ~capacity:1 ty, []) |] in
      let slot k = !pool.(k mod Array.length !pool) in
      let push c cells = pool := Array.append !pool [| (c, cells) |] in
      List.iter
        (function
          | Append (k, v) ->
            let k = k mod Array.length !pool in
            let c, cells = !pool.(k) in
            C.append c v;
            !pool.(k) <- (c, cells @ [ v ])
          | Copy k ->
            let c, cells = slot k in
            push (C.copy c) cells
          | Rebuild k ->
            let _, cells = slot k in
            push (C.of_values ty cells) cells)
        ops;
      let matches (c, cells) =
        let n = List.length cells in
        C.length c = n
        && List.for_all2 V.equal (C.to_list c) cells
        && List.for_all
             (fun i ->
               let v = List.nth cells i in
               V.equal (C.get c i) v && C.is_null c i = V.is_null v)
             (List.init n Fun.id)
        && C.null_count c = List.length (List.filter V.is_null cells)
      in
      let rec prefix_equal n a b =
        n = 0
        ||
        match a, b with
        | x :: a, y :: b -> V.equal x y && prefix_equal (n - 1) a b
        | _ -> false
      in
      let prefix_agrees (i, j, n) =
        let a, ma = slot i and b, mb = slot j in
        C.equal_prefix a b n
        = (n <= List.length ma && n <= List.length mb && prefix_equal n ma mb)
      in
      Array.for_all matches !pool && List.for_all prefix_agrees pairs)

(* A copy that appends moves to storage sized from its length. Sized from
   the shared buffer's capacity instead, each copy-then-append round (as
   in a WITH RECURSIVE step) would double the buffer: the allocation bound
   catches that within ~17 rounds instead of running out of memory.  Only
   the copy and the append are measured, on this domain: words allocated
   in the minor heap plus those allocated straight in the major heap (a
   large buffer goes there), so nothing else the process does counts.
   The minor part is [Gc.minor_words]: on OCaml 5.1 the first field of
   [Gc.counters] leaves out most of the words allocated since the last
   minor collection. *)
let test_column_copy_append_rounds () =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let bytes = ref 0. in
  let c = ref (C.of_values D.TInt [ V.Int 0 ]) in
  for i = 1 to 64 do
    let before = words () in
    let d = C.copy !c in
    C.append d (V.Int i);
    bytes := !bytes +. ((words () -. before) *. float_of_int (Sys.word_size / 8));
    c := d;
    if !bytes > 1e6 then Alcotest.failf "round %d: %.0f bytes allocated" i !bytes
  done;
  check tbool "cells" true
    (List.equal V.equal (C.to_list !c) (List.init 65 (fun i -> V.Int i)))

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)
(* ------------------------------------------------------------------ *)

module S = Storage.Schema

let test_schema_basic () =
  let s = S.of_pairs [ ("id", D.TInt); ("name", D.TStr) ] in
  check tint "arity" 2 (S.arity s);
  check tbool "index ci" true (S.index_of s "NAME" = Some 1);
  check tbool "missing" true (S.index_of s "nope" = None);
  check tbool "names" true (S.names s = [ "id"; "name" ])

let test_schema_duplicates () =
  Alcotest.check_raises "dup" (Invalid_argument "Schema.make: duplicate column \"ID\"")
    (fun () -> ignore (S.of_pairs [ ("id", D.TInt); ("ID", D.TStr) ]));
  (* unsafe_make tolerates duplicates (join intermediates) *)
  let s =
    S.unsafe_make
      [ { S.name = "id"; ty = D.TInt }; { S.name = "id"; ty = D.TInt } ]
  in
  check tint "unsafe arity" 2 (S.arity s)

let test_schema_ops () =
  let a = S.of_pairs [ ("x", D.TInt) ] in
  let b = S.of_pairs [ ("y", D.TStr) ] in
  let ab = S.append a b in
  check tint "append arity" 2 (S.arity ab);
  let r = S.rename ab [ "u"; "v" ] in
  check tbool "rename" true (S.names r = [ "u"; "v" ]);
  let p = S.project ab [| 1 |] in
  check tbool "project" true (S.names p = [ "y" ])

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

module T = Storage.Table

let sample_table () =
  T.of_rows
    (S.of_pairs [ ("id", D.TInt); ("name", D.TStr) ])
    [
      [ V.Int 1; V.Str "ann" ];
      [ V.Int 2; V.Str "bob" ];
      [ V.Int 3; V.Null ];
    ]

let test_table_basics () =
  let t = sample_table () in
  check tint "nrows" 3 (T.nrows t);
  check tint "arity" 2 (T.arity t);
  check tbool "cell" true (V.equal (T.get t ~row:1 ~col:1) (V.Str "bob"));
  check tbool "row" true
    (Array.for_all2 V.equal (T.row t 2) [| V.Int 3; V.Null |]);
  check tbool "column_by_name ci" true
    (match T.column_by_name t "NAME" with Some _ -> true | None -> false)

let test_table_take_project () =
  let t = sample_table () in
  let sub = T.take t [| 2; 0 |] in
  check tint "take rows" 2 (T.nrows sub);
  check tbool "take order" true (V.equal (T.get sub ~row:0 ~col:0) (V.Int 3));
  let p = T.project t [| 1 |] in
  check tint "project arity" 1 (T.arity p);
  check tbool "project cell" true (V.equal (T.get p ~row:0 ~col:0) (V.Str "ann"))

let test_table_concat () =
  let t = sample_table () in
  let h = T.concat_horizontal t (T.project t [| 0 |]) in
  check tint "horiz arity" 3 (T.arity h);
  let v = T.concat_vertical t (sample_table ()) in
  check tint "vert rows" 6 (T.nrows v)

let test_table_mismatches () =
  let t = sample_table () in
  Alcotest.check_raises "bad row arity"
    (Invalid_argument "Table.append_row: arity mismatch") (fun () ->
      T.append_row t [| V.Int 9 |]);
  let one_row = T.take t [| 0 |] in
  Alcotest.check_raises "horiz rows"
    (Invalid_argument "Table.concat_horizontal: row counts differ") (fun () ->
      ignore (T.concat_horizontal t one_row))

let test_table_of_columns_checks () =
  let s = S.of_pairs [ ("x", D.TInt) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.of_columns: arity mismatch")
    (fun () -> ignore (T.of_columns s []));
  check tbool "type check" true
    (match T.of_columns s [ C.of_values D.TStr [ V.Str "a" ] ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Catalog                                                             *)
(* ------------------------------------------------------------------ *)

let test_catalog () =
  let cat = Storage.Catalog.create () in
  let t = sample_table () in
  Storage.Catalog.add cat "People" t;
  check tbool "find ci" true
    (match Storage.Catalog.find cat "PEOPLE" with Some _ -> true | None -> false);
  check tbool "version" true (Storage.Catalog.version cat "people" = Some 0);
  Storage.Catalog.touch cat "people";
  check tbool "touched" true (Storage.Catalog.version cat "people" = Some 1);
  Storage.Catalog.replace cat "people" t;
  check tbool "replaced" true (Storage.Catalog.version cat "people" = Some 2);
  Alcotest.check_raises "dup add"
    (Invalid_argument "Catalog.add: table \"people\" already exists") (fun () ->
      Storage.Catalog.add cat "people" t);
  check tbool "drop" true (Storage.Catalog.drop cat "people");
  check tbool "drop again" false (Storage.Catalog.drop cat "people");
  check tbool "gone" true (Storage.Catalog.find cat "people" = None)

let () =
  Alcotest.run "storage"
    [
      ( "dtype",
        [
          Alcotest.test_case "names and parsing" `Quick test_dtype_names;
          Alcotest.test_case "numeric classification" `Quick test_dtype_numeric;
        ] );
      ( "date",
        [
          Alcotest.test_case "epoch anchors" `Quick test_date_epoch;
          Alcotest.test_case "known roundtrips" `Quick test_date_roundtrip_known;
          Alcotest.test_case "string io" `Quick test_date_strings;
          Alcotest.test_case "leap years" `Quick test_date_leap_years;
          Alcotest.test_case "invalid dates" `Quick test_date_invalid;
          QCheck_alcotest.to_alcotest prop_date_roundtrip;
          QCheck_alcotest.to_alcotest prop_date_monotone;
        ] );
      ( "value",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "hash consistency" `Quick test_value_hash_consistent;
          Alcotest.test_case "cast" `Quick test_value_cast;
          QCheck_alcotest.to_alcotest prop_float_varchar_roundtrip;
          Alcotest.test_case "display" `Quick test_value_display;
          QCheck_alcotest.to_alcotest prop_value_compare_total;
        ] );
      ( "nullmask",
        [
          Alcotest.test_case "basics" `Quick test_nullmask_basic;
          Alcotest.test_case "growth" `Quick test_nullmask_growth;
          Alcotest.test_case "bounds" `Quick test_nullmask_bounds;
        ] );
      ( "column",
        [
          Alcotest.test_case "roundtrip with nulls" `Quick test_column_roundtrip;
          Alcotest.test_case "all types" `Quick test_column_types;
          Alcotest.test_case "int widens to float" `Quick test_column_int_widens_to_float;
          Alcotest.test_case "type mismatch" `Quick test_column_type_mismatch;
          Alcotest.test_case "take" `Quick test_column_take;
          Alcotest.test_case "empty take stays appendable" `Quick
            test_column_take_empty_then_append;
          Alcotest.test_case "raw views" `Quick test_column_raw_views;
          Alcotest.test_case "fast accessors" `Quick test_column_fast_accessors;
          Alcotest.test_case "growth" `Quick test_column_growth;
          Alcotest.test_case "of arrays" `Quick test_column_of_arrays;
          Alcotest.test_case "equal and copy" `Quick test_column_equal_copy;
          QCheck_alcotest.to_alcotest prop_column_roundtrip;
          Alcotest.test_case "copy then append, 64 rounds" `Quick
            test_column_copy_append_rounds;
          QCheck_alcotest.to_alcotest prop_column_shared_storage;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema_basic;
          Alcotest.test_case "duplicates" `Quick test_schema_duplicates;
          Alcotest.test_case "append rename project" `Quick test_schema_ops;
        ] );
      ( "table",
        [
          Alcotest.test_case "basics" `Quick test_table_basics;
          Alcotest.test_case "take and project" `Quick test_table_take_project;
          Alcotest.test_case "concat" `Quick test_table_concat;
          Alcotest.test_case "mismatch errors" `Quick test_table_mismatches;
          Alcotest.test_case "of_columns checks" `Quick test_table_of_columns_checks;
        ] );
      ("catalog", [ Alcotest.test_case "lifecycle" `Quick test_catalog ]);
    ]
