module L = Relalg.Lplan
module V = Storage.Value
module C = Storage.Column
module D = Storage.Dtype

(* Intermediate vectors: unboxed payloads + a null flag per row. The
   generic evaluator's NULL propagation is reproduced by OR-ing masks;
   And/Or get Kleene logic explicitly. Everything is plain array loops —
   the point of this module is to avoid per-row boxing. *)
type ivec = { idata : int array; inull : bool array }
type fvec = { fdata : float array; fnull : bool array }
type bvec = { bdata : bool array; bnull : bool array }

let rec int_vec table (e : L.expr) : ivec option =
  let n = Storage.Table.nrows table in
  match e.L.node with
  | L.Const (V.Int c) ->
    Some { idata = Array.make n c; inull = Array.make n false }
  | L.Const V.Null when D.equal e.L.ty D.TInt ->
    Some { idata = Array.make n 0; inull = Array.make n true }
  | L.Col i when D.equal (C.dtype (Storage.Table.column table i)) D.TInt -> (
    let col = Storage.Table.column table i in
    match C.raw_int col with
    | Some backing ->
      Some
        {
          idata = Array.sub backing 0 n;
          inull = C.null_flags col;
        }
    | None -> None)
  | L.Bin (((Sql.Ast.Add | Sql.Ast.Sub | Sql.Ast.Mul) as op), a, b)
    when D.equal e.L.ty D.TInt -> (
    match int_vec table a, int_vec table b with
    | Some va, Some vb ->
      let idata = Array.make n 0 and inull = Array.make n false in
      (match op with
      | Sql.Ast.Add ->
        for r = 0 to n - 1 do
          idata.(r) <- va.idata.(r) + vb.idata.(r)
        done
      | Sql.Ast.Sub ->
        for r = 0 to n - 1 do
          idata.(r) <- va.idata.(r) - vb.idata.(r)
        done
      | _ ->
        for r = 0 to n - 1 do
          idata.(r) <- va.idata.(r) * vb.idata.(r)
        done);
      for r = 0 to n - 1 do
        inull.(r) <- va.inull.(r) || vb.inull.(r)
      done;
      Some { idata; inull }
    | _ -> None)
  | L.Cast (a, D.TInt) -> (
    (* Value.cast: INTEGER is the identity, FLOAT truncates toward zero *)
    match int_vec table a with
    | Some v -> Some v
    | None -> (
      match float_vec table a with
      | Some { fdata; fnull } ->
        Some { idata = Array.map int_of_float fdata; inull = fnull }
      | None -> None))
  | _ -> None

and float_vec table (e : L.expr) : fvec option =
  let n = Storage.Table.nrows table in
  match e.L.node with
  | L.Const (V.Float c) ->
    Some { fdata = Array.make n c; fnull = Array.make n false }
  | L.Col i when D.equal (C.dtype (Storage.Table.column table i)) D.TFloat -> (
    let col = Storage.Table.column table i in
    match C.raw_float col with
    | Some backing ->
      Some
        {
          fdata = Array.sub backing 0 n;
          fnull = C.null_flags col;
        }
    | None -> None)
  | L.Bin (((Sql.Ast.Add | Sql.Ast.Sub | Sql.Ast.Mul) as op), a, b)
    when D.equal e.L.ty D.TFloat -> (
    match widen table a, widen table b with
    | Some va, Some vb ->
      let fdata = Array.make n 0. and fnull = Array.make n false in
      (match op with
      | Sql.Ast.Add ->
        for r = 0 to n - 1 do
          fdata.(r) <- va.fdata.(r) +. vb.fdata.(r)
        done
      | Sql.Ast.Sub ->
        for r = 0 to n - 1 do
          fdata.(r) <- va.fdata.(r) -. vb.fdata.(r)
        done
      | _ ->
        for r = 0 to n - 1 do
          fdata.(r) <- va.fdata.(r) *. vb.fdata.(r)
        done);
      for r = 0 to n - 1 do
        fnull.(r) <- va.fnull.(r) || vb.fnull.(r)
      done;
      Some { fdata; fnull }
    | _ -> None)
  | L.Cast (a, D.TFloat) -> widen table a
  | _ -> None

(* a float view of an int or float subexpression *)
and widen table sub =
  match float_vec table sub with
  | Some v -> Some v
  | None -> (
    match int_vec table sub with
    | Some { idata; inull } ->
      Some { fdata = Array.map float_of_int idata; fnull = inull }
    | None -> None)

type cmp_op = CLt | CLe | CGt | CGe | CEq | CNeq

let rec bool_vec table (e : L.expr) : bvec option =
  let n = Storage.Table.nrows table in
  let compare_branches op a b =
    match int_vec table a, int_vec table b with
    | Some va, Some vb ->
      let bdata = Array.make n false and bnull = Array.make n false in
      let da = va.idata and db = vb.idata in
      (match op with
      | CLt -> for r = 0 to n - 1 do bdata.(r) <- da.(r) < db.(r) done
      | CLe -> for r = 0 to n - 1 do bdata.(r) <- da.(r) <= db.(r) done
      | CGt -> for r = 0 to n - 1 do bdata.(r) <- da.(r) > db.(r) done
      | CGe -> for r = 0 to n - 1 do bdata.(r) <- da.(r) >= db.(r) done
      | CEq -> for r = 0 to n - 1 do bdata.(r) <- da.(r) = db.(r) done
      | CNeq -> for r = 0 to n - 1 do bdata.(r) <- da.(r) <> db.(r) done);
      for r = 0 to n - 1 do
        bnull.(r) <- va.inull.(r) || vb.inull.(r)
      done;
      Some { bdata; bnull }
    | _ -> (
      match widen table a, widen table b with
      | Some va, Some vb ->
        let bdata = Array.make n false and bnull = Array.make n false in
        let da = va.fdata and db = vb.fdata in
        (match op with
        | CLt -> for r = 0 to n - 1 do bdata.(r) <- da.(r) < db.(r) done
        | CLe -> for r = 0 to n - 1 do bdata.(r) <- da.(r) <= db.(r) done
        | CGt -> for r = 0 to n - 1 do bdata.(r) <- da.(r) > db.(r) done
        | CGe -> for r = 0 to n - 1 do bdata.(r) <- da.(r) >= db.(r) done
        | CEq -> for r = 0 to n - 1 do bdata.(r) <- da.(r) = db.(r) done
        | CNeq -> for r = 0 to n - 1 do bdata.(r) <- da.(r) <> db.(r) done);
        for r = 0 to n - 1 do
          bnull.(r) <- va.fnull.(r) || vb.fnull.(r)
        done;
        Some { bdata; bnull }
      | _ -> None)
  in
  match e.L.node with
  | L.Const (V.Bool b) ->
    Some { bdata = Array.make n b; bnull = Array.make n false }
  | L.Col i when D.equal (C.dtype (Storage.Table.column table i)) D.TBool ->
    let col = Storage.Table.column table i in
    let bdata = Array.make n false and bnull = Array.make n false in
    for r = 0 to n - 1 do
      if C.is_null col r then bnull.(r) <- true
      else bdata.(r) <- C.bool_at col r
    done;
    Some { bdata; bnull }
  | L.Bin (Sql.Ast.Eq, a, b) -> compare_branches CEq a b
  | L.Bin (Sql.Ast.Neq, a, b) -> compare_branches CNeq a b
  | L.Bin (Sql.Ast.Lt, a, b) -> compare_branches CLt a b
  | L.Bin (Sql.Ast.Le, a, b) -> compare_branches CLe a b
  | L.Bin (Sql.Ast.Gt, a, b) -> compare_branches CGt a b
  | L.Bin (Sql.Ast.Ge, a, b) -> compare_branches CGe a b
  | L.Bin (Sql.Ast.And, a, b) -> (
    match bool_vec table a, bool_vec table b with
    | Some va, Some vb ->
      let bdata = Array.make n false and bnull = Array.make n false in
      for r = 0 to n - 1 do
        (* Kleene: false wins over NULL *)
        let fa = (not va.bnull.(r)) && not va.bdata.(r) in
        let fb = (not vb.bnull.(r)) && not vb.bdata.(r) in
        if fa || fb then ()
        else if va.bnull.(r) || vb.bnull.(r) then bnull.(r) <- true
        else bdata.(r) <- true
      done;
      Some { bdata; bnull }
    | _ -> None)
  | L.Bin (Sql.Ast.Or, a, b) -> (
    match bool_vec table a, bool_vec table b with
    | Some va, Some vb ->
      let bdata = Array.make n false and bnull = Array.make n false in
      for r = 0 to n - 1 do
        let ta = (not va.bnull.(r)) && va.bdata.(r) in
        let tb = (not vb.bnull.(r)) && vb.bdata.(r) in
        if ta || tb then bdata.(r) <- true
        else if va.bnull.(r) || vb.bnull.(r) then bnull.(r) <- true
      done;
      Some { bdata; bnull }
    | _ -> None)
  | L.Un (Sql.Ast.Not, a) -> (
    match bool_vec table a with
    | Some va ->
      Some { bdata = Array.map not va.bdata; bnull = va.bnull }
    | None -> None)
  | L.Is_null { negated; arg } -> (
    let of_nulls nulls =
      Some
        {
          bdata = (if negated then Array.map not nulls else Array.copy nulls);
          bnull = Array.make n false;
        }
    in
    match int_vec table arg with
    | Some { inull; _ } -> of_nulls inull
    | None -> (
      match float_vec table arg with
      | Some { fnull; _ } -> of_nulls fnull
      | None -> None))
  | _ -> None

let eval_column ?(check = Graph.Cancel.none) table (e : L.expr) =
  (* one cooperative cancellation point per vectorized primitive; the
     loops themselves are tight array passes the governor need not enter *)
  Graph.Cancel.report check ~site:"vectorized" ();
  match e.L.ty with
  | D.TInt -> (
    match int_vec table e with
    | Some { idata; inull } -> Some (C.of_int_array ~nulls:inull idata)
    | None -> None)
  | D.TFloat -> (
    match float_vec table e with
    | Some { fdata; fnull } -> Some (C.of_float_array ~nulls:fnull fdata)
    | None -> None)
  | D.TBool -> (
    match bool_vec table e with
    | Some { bdata; bnull } -> Some (C.of_bool_array ~nulls:bnull bdata)
    | None -> None)
  | _ -> None

let eval_filter ?(check = Graph.Cancel.none) table pred =
  Graph.Cancel.report check ~site:"vectorized" ();
  match bool_vec table pred with
  | None -> None
  | Some { bdata; bnull } ->
    let n = Array.length bdata in
    let count = ref 0 in
    for r = 0 to n - 1 do
      if bdata.(r) && not bnull.(r) then incr count
    done;
    let out = Array.make !count 0 in
    let k = ref 0 in
    for r = 0 to n - 1 do
      if bdata.(r) && not bnull.(r) then begin
        out.(!k) <- r;
        incr k
      end
    done;
    Some out
