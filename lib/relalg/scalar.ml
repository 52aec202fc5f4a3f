exception Runtime_error of string

module V = Storage.Value
module D = Storage.Dtype

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let numeric_pair a b =
  match a, b with
  | V.Int x, V.Int y -> `Int (x, y)
  | V.Int x, V.Float y -> `Float (float_of_int x, y)
  | V.Float x, V.Int y -> `Float (x, float_of_int y)
  | V.Float x, V.Float y -> `Float (x, y)
  | _ -> err "expected numeric operands, got %s and %s" (V.to_display a) (V.to_display b)

let arith op_name fi ff a b =
  match a, b with
  | V.Null, _ | _, V.Null -> V.Null
  (* date arithmetic: DATE +- INT days, DATE - DATE -> days *)
  | V.Date d, V.Int n when op_name = "+" -> V.Date (d + n)
  | V.Int n, V.Date d when op_name = "+" -> V.Date (d + n)
  | V.Date d, V.Int n when op_name = "-" -> V.Date (d - n)
  | V.Date d1, V.Date d2 when op_name = "-" -> V.Int (d1 - d2)
  | _ -> (
    match numeric_pair a b with
    | `Int (x, y) -> V.Int (fi x y)
    | `Float (x, y) -> V.Float (ff x y))

(* Each operand reads as CAST(... AS VARCHAR) renders it, so a DOUBLE
   keeps the digits that read back as the same double. *)
let concat a b =
  let text = function V.Float x -> V.float_text x | v -> V.to_display v in
  match a, b with
  | V.Null, _ | _, V.Null -> V.Null
  | _ -> V.Str (text a ^ text b)

let compare_vals cmp a b =
  match a, b with
  | V.Null, _ | _, V.Null -> V.Null
  | _ -> V.Bool (cmp (V.compare a b) 0)

(* Kleene three-valued logic. *)
let logic_and a b =
  match a, b with
  | V.Bool false, _ | _, V.Bool false -> V.Bool false
  | V.Bool true, V.Bool true -> V.Bool true
  | (V.Null | V.Bool _), (V.Null | V.Bool _) -> V.Null
  | _ -> err "AND expects booleans"

let logic_or a b =
  match a, b with
  | V.Bool true, _ | _, V.Bool true -> V.Bool true
  | V.Bool false, V.Bool false -> V.Bool false
  | (V.Null | V.Bool _), (V.Null | V.Bool _) -> V.Null
  | _ -> err "OR expects booleans"

let apply_bin op a b =
  match op with
  | Sql.Ast.Add -> arith "+" ( + ) ( +. ) a b
  | Sql.Ast.Sub -> arith "-" ( - ) ( -. ) a b
  | Sql.Ast.Mul -> arith "*" ( * ) ( *. ) a b
  | Sql.Ast.Div -> (
    match a, b with
    | V.Null, _ | _, V.Null -> V.Null
    | _ -> (
      match numeric_pair a b with
      | `Int (_, 0) -> err "division by zero"
      | `Int (x, y) -> V.Int (x / y)
      | `Float (x, y) ->
        if y = 0. then err "division by zero" else V.Float (x /. y)))
  | Sql.Ast.Mod -> (
    match a, b with
    | V.Null, _ | _, V.Null -> V.Null
    | V.Int _, V.Int 0 -> err "modulo by zero"
    | V.Int x, V.Int y -> V.Int (x mod y)
    | _ -> err "%% expects integer operands")
  | Sql.Ast.Concat -> concat a b
  | Sql.Ast.Eq -> compare_vals ( = ) a b
  | Sql.Ast.Neq -> compare_vals ( <> ) a b
  | Sql.Ast.Lt -> compare_vals ( < ) a b
  | Sql.Ast.Le -> compare_vals ( <= ) a b
  | Sql.Ast.Gt -> compare_vals ( > ) a b
  | Sql.Ast.Ge -> compare_vals ( >= ) a b
  | Sql.Ast.And -> logic_and a b
  | Sql.Ast.Or -> logic_or a b

let apply_un op a =
  match op, a with
  | _, V.Null -> V.Null
  | Sql.Ast.Neg, V.Int x -> V.Int (-x)
  | Sql.Ast.Neg, V.Float x -> V.Float (-.x)
  | Sql.Ast.Neg, _ -> err "unary minus expects a numeric operand"
  | Sql.Ast.Not, V.Bool b -> V.Bool (not b)
  | Sql.Ast.Not, _ -> err "NOT expects a boolean operand"

let apply_cast v ty =
  match V.cast v ty with Ok v' -> v' | Error msg -> raise (Runtime_error msg)

(* LIKE via memoised dynamic programming over the pattern. *)
let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  let memo = Hashtbl.create 16 in
  let rec go pi si =
    match Hashtbl.find_opt memo (pi, si) with
    | Some r -> r
    | None ->
      let r =
        if pi = np then si = ns
        else
          match pattern.[pi] with
          | '%' -> go (pi + 1) si || (si < ns && go pi (si + 1))
          | '_' -> si < ns && go (pi + 1) (si + 1)
          | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
      in
      Hashtbl.add memo (pi, si) r;
      r
  in
  go 0 0

let apply_builtin b args =
  match b, args with
  | Lplan.Abs, [ V.Null ] -> V.Null
  | Lplan.Abs, [ V.Int x ] -> V.Int (abs x)
  | Lplan.Abs, [ V.Float x ] -> V.Float (Float.abs x)
  | Lplan.Abs, [ v ] -> err "ABS expects a numeric argument, got %s" (V.to_display v)
  | Lplan.Upper, [ V.Null ] -> V.Null
  | Lplan.Upper, [ V.Str s ] -> V.Str (String.uppercase_ascii s)
  | Lplan.Upper, [ v ] -> err "UPPER expects a string, got %s" (V.to_display v)
  | Lplan.Lower, [ V.Null ] -> V.Null
  | Lplan.Lower, [ V.Str s ] -> V.Str (String.lowercase_ascii s)
  | Lplan.Lower, [ v ] -> err "LOWER expects a string, got %s" (V.to_display v)
  | Lplan.Length, [ V.Null ] -> V.Null
  | Lplan.Length, [ V.Str s ] -> V.Int (String.length s)
  | Lplan.Length, [ v ] -> err "LENGTH expects a string, got %s" (V.to_display v)
  | Lplan.Coalesce, args -> (
    match List.find_opt (fun v -> not (V.is_null v)) args with
    | Some v -> v
    | None -> V.Null)
  | Lplan.Trim, [ V.Null ] | Lplan.Ltrim, [ V.Null ] | Lplan.Rtrim, [ V.Null ]
    ->
    V.Null
  | Lplan.Trim, [ V.Str s ] -> V.Str (String.trim s)
  | Lplan.Ltrim, [ V.Str s ] ->
    let n = String.length s in
    let rec first i = if i < n && s.[i] = ' ' then first (i + 1) else i in
    let i = first 0 in
    V.Str (String.sub s i (n - i))
  | Lplan.Rtrim, [ V.Str s ] ->
    let rec last i = if i > 0 && s.[i - 1] = ' ' then last (i - 1) else i in
    V.Str (String.sub s 0 (last (String.length s)))
  | (Lplan.Trim | Lplan.Ltrim | Lplan.Rtrim), [ v ] ->
    err "TRIM expects a string, got %s" (V.to_display v)
  | Lplan.Substr, ([ s; start ] | [ s; start; _ ])
    when V.is_null s || V.is_null start ->
    V.Null
  | Lplan.Substr, [ _; _; V.Null ] -> V.Null
  | Lplan.Substr, [ V.Str s; V.Int start ] ->
    (* SQL: 1-based start through end of string *)
    let n = String.length s in
    let i = max 0 (start - 1) in
    V.Str (if i >= n then "" else String.sub s i (n - i))
  | Lplan.Substr, [ V.Str s; V.Int start; V.Int len ] ->
    let n = String.length s in
    let i = max 0 (start - 1) in
    let l = max 0 (min len (n - i)) in
    V.Str (if i >= n then "" else String.sub s i l)
  | Lplan.Substr, _ -> err "SUBSTR expects (string, int [, int])"
  | Lplan.Replace, [ a; b; c ] when V.is_null a || V.is_null b || V.is_null c
    ->
    V.Null
  | Lplan.Replace, [ V.Str s; V.Str from_s; V.Str to_s ] ->
    if from_s = "" then V.Str s
    else begin
      let buf = Buffer.create (String.length s) in
      let fl = String.length from_s in
      let i = ref 0 in
      let n = String.length s in
      while !i < n do
        if !i + fl <= n && String.sub s !i fl = from_s then begin
          Buffer.add_string buf to_s;
          i := !i + fl
        end
        else begin
          Buffer.add_char buf s.[!i];
          incr i
        end
      done;
      V.Str (Buffer.contents buf)
    end
  | Lplan.Replace, _ -> err "REPLACE expects three strings"
  | Lplan.Round, [ V.Null ] | Lplan.Round, [ V.Null; _ ]
  | Lplan.Round, [ _; V.Null ] ->
    V.Null
  | Lplan.Round, [ v ] -> (
    match v with
    | V.Int x -> V.Float (float_of_int x)
    | V.Float x -> V.Float (Float.round x)
    | _ -> err "ROUND expects a number")
  | Lplan.Round, [ v; V.Int digits ] -> (
    let scale = 10. ** float_of_int digits in
    match v with
    | V.Int x -> V.Float (float_of_int x)
    | V.Float x -> V.Float (Float.round (x *. scale) /. scale)
    | _ -> err "ROUND expects a number")
  | Lplan.Round, _ -> err "ROUND expects (number [, int])"
  | (Lplan.Floor | Lplan.Ceil | Lplan.Sqrt | Lplan.Sign), [ V.Null ] -> V.Null
  | Lplan.Floor, [ V.Int x ] -> V.Int x
  | Lplan.Floor, [ V.Float x ] -> V.Int (int_of_float (Float.floor x))
  | Lplan.Ceil, [ V.Int x ] -> V.Int x
  | Lplan.Ceil, [ V.Float x ] -> V.Int (int_of_float (Float.ceil x))
  | Lplan.Sqrt, [ v ] -> (
    match v with
    | V.Int x when x >= 0 -> V.Float (sqrt (float_of_int x))
    | V.Float x when x >= 0. -> V.Float (sqrt x)
    | _ -> err "SQRT of a negative number")
  | Lplan.Sign, [ V.Int x ] -> V.Int (compare x 0)
  | Lplan.Sign, [ V.Float x ] -> V.Int (compare x 0.)
  | (Lplan.Floor | Lplan.Ceil | Lplan.Sign), _ ->
    err "expected one numeric argument"
  | Lplan.Power, [ a; b ] when V.is_null a || V.is_null b -> V.Null
  | Lplan.Power, [ a; b ] -> (
    match V.to_float a, V.to_float b with
    | Some x, Some y -> V.Float (x ** y)
    | _ -> err "POWER expects numeric arguments")
  | Lplan.Power, _ -> err "POWER expects two arguments"
  | (Lplan.Year | Lplan.Month | Lplan.Day), [ V.Null ] -> V.Null
  | (Lplan.Year | Lplan.Month | Lplan.Day), [ V.Date d ] ->
    let y, m, day = Storage.Date.to_ymd d in
    (match b, () with
    | Lplan.Year, () -> V.Int y
    | Lplan.Month, () -> V.Int m
    | _ -> V.Int day)
  | (Lplan.Year | Lplan.Month | Lplan.Day), [ v ] ->
    err "date part of a non-date %s" (V.to_display v)
  | (Lplan.Year | Lplan.Month | Lplan.Day), _ ->
    err "date part expects one argument"
  | ( ( Lplan.Abs | Lplan.Upper | Lplan.Lower | Lplan.Length | Lplan.Trim
      | Lplan.Ltrim | Lplan.Rtrim | Lplan.Sqrt ),
      _ ) ->
    err "wrong number of arguments to built-in function"

let is_true = function
  | V.Bool true -> true
  | V.Bool false | V.Null -> false
  | v -> err "filter predicate must be boolean, got %s" (V.to_display v)

(* SQL IN semantics: TRUE on a match; NULL when there is no match but some
   candidate is NULL; FALSE otherwise. NOT IN negates the non-NULL cases. *)
let in_list ~negated arg candidates =
  if V.is_null arg then V.Null
  else
    let found =
      List.exists (fun c -> (not (V.is_null c)) && V.equal arg c) candidates
    in
    let has_null = List.exists V.is_null candidates in
    if found then V.Bool (not negated)
    else if has_null then V.Null
    else V.Bool negated

let like ~negated arg pattern =
  match arg, pattern with
  | V.Null, _ | _, V.Null -> V.Null
  | V.Str s, V.Str p ->
    let m = like_match ~pattern:p s in
    V.Bool (if negated then not m else m)
  | _ -> err "LIKE expects string operands"
