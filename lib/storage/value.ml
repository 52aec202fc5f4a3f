type nested = ..

type t =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | Date of Date.t
  | Path of { tag : nested; rows : int array }
  | Tuple of t array

let dtype_of = function
  | Null -> None
  | Int _ -> Some Dtype.TInt
  | Float _ -> Some Dtype.TFloat
  | Bool _ -> Some Dtype.TBool
  | Str _ -> Some Dtype.TStr
  | Date _ -> Some Dtype.TDate
  | Path _ -> Some Dtype.TPath
  | Tuple _ -> None

let is_null = function Null -> true | _ -> false

let type_rank = function
  | Null -> 0
  | Int _ | Float _ -> 1
  | Bool _ -> 2
  | Str _ -> 3
  | Date _ -> 4
  | Path _ -> 5
  | Tuple _ -> 6

(* Paths order by row-id sequence: arbitrary but total, so sorting and
   grouping stay well-defined when a path column sneaks into them. *)
let compare_paths a b =
  let la = Array.length a and lb = Array.length b in
  let rec loop i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

let rec compare a b =
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Bool x, Bool y -> Bool.compare x y
  | Str x, Str y -> String.compare x y
  | Date x, Date y -> Int.compare x y
  | Path { rows = x; _ }, Path { rows = y; _ } -> compare_paths x y
  | Tuple x, Tuple y ->
    let lx = Array.length x and ly = Array.length y in
    let rec loop i =
      if i >= lx && i >= ly then 0
      else if i >= lx then -1
      else if i >= ly then 1
      else
        let c = compare x.(i) y.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0
  | (Null | Int _ | Float _ | Bool _ | Str _ | Date _ | Path _ | Tuple _), _
    ->
    Int.compare (type_rank a) (type_rank b)

let equal a b = compare a b = 0

let rec hash = function
  | Null -> 0x6e756c6c
  | Int x -> Hashtbl.hash (float_of_int x)
  | Float x -> Hashtbl.hash x
  | Bool b -> Hashtbl.hash b
  | Str s -> Hashtbl.hash s
  | Date d -> Hashtbl.hash (`Date d)
  | Path { rows; _ } -> Hashtbl.hash (`Path rows)
  | Tuple xs -> Array.fold_left (fun acc v -> (acc * 31) + hash v) 19 xs

let to_int = function
  | Int x -> Some x
  | Float x when Float.is_integer x -> Some (int_of_float x)
  | Bool b -> Some (if b then 1 else 0)
  | _ -> None

let to_float = function
  | Int x -> Some (float_of_int x)
  | Float x -> Some x
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None

let rec to_display = function
  | Null -> "NULL"
  | Int x -> string_of_int x
  | Float x ->
    if Float.is_integer x && Float.abs x < 1e15 then
      Printf.sprintf "%.1f" x
    else Printf.sprintf "%g" x
  | Bool b -> if b then "true" else "false"
  | Str s -> s
  | Date d -> Date.to_string d
  | Path { rows; _ } -> Printf.sprintf "<path: %d edges>" (Array.length rows)
  | Tuple xs ->
    Printf.sprintf "(%s)"
      (String.concat ", " (Array.to_list (Array.map to_display xs)))

let float_text x =
  let exact text = Float.equal (float_of_string text) x in
  let display = to_display (Float x) in
  if exact display then display
  else
    let rec shortest p =
      let text = Printf.sprintf "%.*g" p x in
      if p >= 17 || exact text then text else shortest (p + 1)
    in
    shortest 15

let cast v ty =
  let fail () =
    Error
      (Printf.sprintf "cannot cast %s to %s" (to_display v) (Dtype.name ty))
  in
  match v, ty with
  | Null, _ -> Ok Null
  | Int _, Dtype.TInt | Float _, TFloat | Bool _, TBool | Str _, TStr
  | Date _, TDate | Path _, TPath ->
    Ok v
  | Int x, TFloat -> Ok (Float (float_of_int x))
  | Float x, TInt -> Ok (Int (int_of_float x)) (* SQL truncation toward 0 *)
  | Bool b, TInt -> Ok (Int (if b then 1 else 0))
  | Int x, TBool -> Ok (Bool (x <> 0))
  | Int x, TStr -> Ok (Str (string_of_int x))
  | Float x, TStr -> Ok (Str (to_display (Float x)))
  | Bool b, TStr -> Ok (Str (if b then "true" else "false"))
  | Date d, TStr -> Ok (Str (Date.to_string d))
  | Str s, TInt -> (
    match int_of_string_opt (String.trim s) with
    | Some x -> Ok (Int x)
    | None -> fail ())
  | Str s, TFloat -> (
    match float_of_string_opt (String.trim s) with
    | Some x -> Ok (Float x)
    | None -> fail ())
  | Str s, TBool -> (
    match String.lowercase_ascii (String.trim s) with
    | "true" | "t" | "1" -> Ok (Bool true)
    | "false" | "f" | "0" -> Ok (Bool false)
    | _ -> fail ())
  | Str s, TDate -> (
    match Date.of_string (String.trim s) with
    | Some d -> Ok (Date d)
    | None -> fail ())
  | Date d, TInt -> Ok (Int d)
  | Int x, TDate -> Ok (Date x)
  | (Float _ | Bool _), TDate | Date _, (TFloat | TBool) | Float _, TBool
  | Bool _, TFloat ->
    fail ()
  | Path _, (TInt | TFloat | TBool | TStr | TDate)
  | (Int _ | Float _ | Bool _ | Str _ | Date _), TPath
  | Tuple _, _ ->
    fail ()

let pp ppf v = Format.pp_print_string ppf (to_display v)
