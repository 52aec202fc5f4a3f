module L = Relalg.Lplan
module V = Storage.Value
module C = Storage.Column
module D = Storage.Dtype

(* Operands are read in place. A numeric operand's payload is a constant
   or an array read over rows [0, n): a table column's backing store
   (possibly longer than n) or a result computed here. Its NULL flags are
   a row test, absent when no row can be NULL; a column's test reads its
   null mask, and only when the column holds a NULL. A predicate is a
   pair of row tests. Nothing copies a column or spreads a constant over
   n rows: the only table-sized arrays are the results of arithmetic, of
   a CAST that changes the payload, and of [eval_column].

   Reading a backing store in place is safe because storage is
   append-only (see Column): only an owner writes, and only at slots at
   or past its own length, so no write lands inside [0, n). For the same
   reason a result never takes a backing store as its own: [view] names
   the column an operand reads unchanged, and [eval_column] returns a
   [Column.copy] of it, which shares the storage without owning it. *)
type ints = Int of int | Ints of int array

type floats =
  | Float of float
  | Floats of float array
  | Widened of int array (* an int payload read as floats *)

type 'a vec = { v : 'a; null : (int -> bool) option; view : C.t option }

(* Kleene logic: [yes r] when row [r] is TRUE, [no r] when it is FALSE;
   a NULL row is neither. *)
type bvec = { yes : int -> bool; no : int -> bool }

let[@inline] iat v r = match v with Int c -> c | Ints a -> a.(r)

(* Bind the result with [let] before float arithmetic or
   [Float.compare]: passed straight on, it is boxed. *)
let[@inline] fat v r =
  match v with
  | Float c -> c
  | Floats a -> a.(r)
  | Widened a -> float_of_int a.(r)

let[@inline] iop op x y =
  match op with Sql.Ast.Add -> x + y | Sql.Ast.Sub -> x - y | _ -> x * y

let[@inline] fop op (x : float) y =
  match op with Sql.Ast.Add -> x +. y | Sql.Ast.Sub -> x -. y | _ -> x *. y

let column_nulls col =
  if C.null_count col > 0 then Some (C.is_null col) else None

let either a b =
  match a, b with
  | None, n | n, None -> n
  | Some f, Some g -> Some (fun r -> f r || g r)

let fresh v null = { v; null; view = None }

let int_arith n op a b =
  let null = either a.null b.null in
  match a.v, b.v with
  | Int x, Int y -> fresh (Int (iop op x y)) null
  | av, bv ->
    let out = Array.make n 0 in
    for r = 0 to n - 1 do
      out.(r) <- iop op (iat av r) (iat bv r)
    done;
    fresh (Ints out) null

let float_arith n op a b =
  let null = either a.null b.null in
  match a.v, b.v with
  | Float x, Float y -> fresh (Float (fop op x y)) null
  | av, bv ->
    let out = Array.create_float n in
    for r = 0 to n - 1 do
      let x = fat av r and y = fat bv r in
      out.(r) <- fop op x y
    done;
    fresh (Floats out) null

let float_payload n = function
  | Floats a -> a
  | v ->
    let out = Array.create_float n in
    for r = 0 to n - 1 do
      let x = fat v r in
      out.(r) <- x
    done;
    out

(* Value.cast: FLOAT to INTEGER truncates toward zero *)
let to_int n { v; null; _ } =
  match v with
  | Float c -> fresh (Int (int_of_float c)) null
  | v ->
    let out = Array.make n 0 in
    for r = 0 to n - 1 do
      let x = fat v r in
      out.(r) <- int_of_float x
    done;
    fresh (Ints out) null

let rec int_vec table (e : L.expr) : ints vec option =
  let n = Storage.Table.nrows table in
  match e.L.node with
  | L.Const (V.Int c) -> Some (fresh (Int c) None)
  | L.Const V.Null when D.equal e.L.ty D.TInt ->
    Some (fresh (Int 0) (Some (fun _ -> true)))
  | L.Col i when D.equal (C.dtype (Storage.Table.column table i)) D.TInt -> (
    let col = Storage.Table.column table i in
    match C.raw_int col with
    | Some backing ->
      Some { v = Ints backing; null = column_nulls col; view = Some col }
    | None -> None)
  | L.Bin (((Sql.Ast.Add | Sql.Ast.Sub | Sql.Ast.Mul) as op), a, b)
    when D.equal e.L.ty D.TInt -> (
    match int_vec table a, int_vec table b with
    | Some va, Some vb -> Some (int_arith n op va vb)
    | _ -> None)
  | L.Cast (a, D.TInt) -> (
    (* Value.cast: INTEGER is the identity *)
    match int_vec table a with
    | Some v -> Some v
    | None -> Option.map (to_int n) (float_vec table a))
  | _ -> None

and float_vec table (e : L.expr) : floats vec option =
  let n = Storage.Table.nrows table in
  match e.L.node with
  | L.Const (V.Float c) -> Some (fresh (Float c) None)
  | L.Col i when D.equal (C.dtype (Storage.Table.column table i)) D.TFloat -> (
    let col = Storage.Table.column table i in
    match C.raw_float col with
    | Some backing ->
      Some { v = Floats backing; null = column_nulls col; view = Some col }
    | None -> None)
  | L.Bin (((Sql.Ast.Add | Sql.Ast.Sub | Sql.Ast.Mul) as op), a, b)
    when D.equal e.L.ty D.TFloat -> (
    match widen table a, widen table b with
    | Some va, Some vb -> Some (float_arith n op va vb)
    | _ -> None)
  | L.Cast (a, D.TFloat) -> widen table a
  | _ -> None

(* a float view of an int or float subexpression *)
and widen table sub =
  match float_vec table sub with
  | Some v -> Some v
  | None -> (
    match int_vec table sub with
    | Some { v = Int c; null; _ } -> Some (fresh (Float (float_of_int c)) null)
    | Some { v = Ints a; null; _ } -> Some (fresh (Widened a) null)
    | None -> None)

(* [holds op c]: does [op] hold of two values that compare as [c]? *)
let holds op c =
  match op with
  | Sql.Ast.Lt -> c < 0
  | Sql.Ast.Le -> c <= 0
  | Sql.Ast.Gt -> c > 0
  | Sql.Ast.Ge -> c >= 0
  | Sql.Ast.Eq -> c = 0
  | _ -> c <> 0

let int_test op a b r = holds op (Int.compare (iat a r) (iat b r))

(* Float.compare, as Value.compare orders floats: NaN equals itself and
   sorts below every other float *)
let float_test op a b r =
  let x = fat a r and y = fat b r in
  holds op (Float.compare x y)

let of_test test = function
  | None -> { yes = test; no = (fun r -> not (test r)) }
  | Some is_null ->
    {
      yes = (fun r -> (not (is_null r)) && test r);
      no = (fun r -> (not (is_null r)) && not (test r));
    }

let constant b = { yes = (fun _ -> b); no = (fun _ -> not b) }

let rec bool_vec table (e : L.expr) : bvec option =
  match e.L.node with
  | L.Const (V.Bool b) -> Some (constant b)
  | L.Col i when D.equal (C.dtype (Storage.Table.column table i)) D.TBool ->
    let col = Storage.Table.column table i in
    Some (of_test (C.bool_at col) (column_nulls col))
  | L.Bin
      ( ((Sql.Ast.Eq | Sql.Ast.Neq | Sql.Ast.Lt | Sql.Ast.Le | Sql.Ast.Gt
         | Sql.Ast.Ge) as op),
        a,
        b ) -> (
    match int_vec table a, int_vec table b with
    | Some va, Some vb ->
      Some (of_test (int_test op va.v vb.v) (either va.null vb.null))
    | _ -> (
      match widen table a, widen table b with
      | Some va, Some vb ->
        Some (of_test (float_test op va.v vb.v) (either va.null vb.null))
      | _ -> None))
  | L.Bin (Sql.Ast.And, a, b) -> (
    match bool_vec table a, bool_vec table b with
    | Some va, Some vb ->
      (* Kleene: false wins over NULL *)
      Some
        {
          yes = (fun r -> va.yes r && vb.yes r);
          no = (fun r -> va.no r || vb.no r);
        }
    | _ -> None)
  | L.Bin (Sql.Ast.Or, a, b) -> (
    match bool_vec table a, bool_vec table b with
    | Some va, Some vb ->
      Some
        {
          yes = (fun r -> va.yes r || vb.yes r);
          no = (fun r -> va.no r && vb.no r);
        }
    | _ -> None)
  | L.Un (Sql.Ast.Not, a) ->
    Option.map (fun va -> { yes = va.no; no = va.yes }) (bool_vec table a)
  | L.Is_null { negated; arg } -> (
    let of_nulls = function
      | None -> Some (constant negated)
      | Some is_null -> Some (of_test (fun r -> is_null r <> negated) None)
    in
    match int_vec table arg with
    | Some { null; _ } -> of_nulls null
    | None -> (
      match float_vec table arg with
      | Some { null; _ } -> of_nulls null
      | None -> None))
  | _ -> None

(* One result array per call, or none: a column read unchanged comes
   back as an O(1) [Column.copy]. *)
let eval_column ?(check = Graph.Cancel.none) table (e : L.expr) =
  (* one cooperative cancellation point per vectorized primitive; the
     loops themselves are tight array passes the governor need not enter *)
  Graph.Cancel.report check ~site:"vectorized" ();
  let n = Storage.Table.nrows table in
  match e.L.ty with
  | D.TInt ->
    Option.map
      (fun { v; null; view } ->
        match view, v with
        | Some col, _ -> C.copy col
        | None, Ints out -> C.of_int_array ?null out
        | None, Int c -> C.of_int_array ?null (Array.make n c))
      (int_vec table e)
  | D.TFloat ->
    Option.map
      (fun { v; null; view } ->
        match view with
        | Some col -> C.copy col
        | None -> C.of_float_array ?null (float_payload n v))
      (float_vec table e)
  | D.TBool ->
    Option.map
      (fun { yes; no } ->
        match e.L.node with
        | L.Col i -> C.copy (Storage.Table.column table i)
        | _ -> C.init_bool ~null:(fun r -> not (yes r || no r)) n yes)
      (bool_vec table e)
  | _ -> None

(* Count the hits, then fill the one array they need. *)
let eval_filter ?(check = Graph.Cancel.none) table pred =
  Graph.Cancel.report check ~site:"vectorized" ();
  match bool_vec table pred with
  | None -> None
  | Some { yes; _ } ->
    let n = Storage.Table.nrows table in
    let count = ref 0 in
    for r = 0 to n - 1 do
      if yes r then incr count
    done;
    let hits = Array.make !count 0 in
    let k = ref 0 in
    for r = 0 to n - 1 do
      if yes r then begin
        hits.(!k) <- r;
        incr k
      end
    done;
    Some hits
