type data =
  | DInt of int array    (* also backs TDate *)
  | DFloat of float array
  | DBool of Bytes.t
  | DStr of string array
  | DBox of Value.t array (* boxed cells: backs TPath *)

(* Storage is append-only: [append] writes the slot at [len] and nothing
   writes below a column's length. So [copy] shares [data] instead of
   copying it. A column either owns its storage or shares it with the
   column it was copied from. Only the owner writes into [data], and only
   at slots at or above its own length; every copy's length is at or
   below that, so a writer appending to the owner and a reader of a copy
   never touch the same slot. A sharing column's first [append] moves it
   to private storage. *)
type t = {
  ty : Dtype.t;
  mutable data : data;
  mutable len : int;
  nulls : Nullmask.t;
  mutable owner : bool;
}

let data_capacity = function
  | DInt a -> Array.length a
  | DFloat a -> Array.length a
  | DBool b -> Bytes.length b
  | DStr a -> Array.length a
  | DBox a -> Array.length a

let alloc ty n =
  match ty with
  | Dtype.TInt | Dtype.TDate -> DInt (Array.make n 0)
  | Dtype.TFloat -> DFloat (Array.make n 0.)
  | Dtype.TBool -> DBool (Bytes.make n '\000')
  | Dtype.TStr -> DStr (Array.make n "")
  | Dtype.TPath -> DBox (Array.make n Value.Null)

let create ?(capacity = 16) ty =
  let capacity = max capacity 1 in
  {
    ty;
    data = alloc ty capacity;
    len = 0;
    nulls = Nullmask.create ();
    owner = true;
  }

let dtype t = t.ty
let length t = t.len

(* Move the [len] rows to a fresh buffer of twice that many slots. Sized
   from the length, not the old capacity: a copy's buffer may be far
   larger than its rows, and doubling that on every copy-then-append
   round would grow without bound. A gather of zero rows leaves a
   zero-capacity buffer: never double 0. *)
let grow t =
  let fresh = alloc t.ty (2 * max 1 t.len) in
  (match t.data, fresh with
  | DInt src, DInt dst -> Array.blit src 0 dst 0 t.len
  | DFloat src, DFloat dst -> Array.blit src 0 dst 0 t.len
  | DBool src, DBool dst -> Bytes.blit src 0 dst 0 t.len
  | DStr src, DStr dst -> Array.blit src 0 dst 0 t.len
  | DBox src, DBox dst -> Array.blit src 0 dst 0 t.len
  | (DInt _ | DFloat _ | DBool _ | DStr _ | DBox _), _ -> assert false);
  t.data <- fresh;
  t.owner <- true

let append t v =
  if (not t.owner) || t.len = data_capacity t.data then grow t;
  let store_default () = () in
  (match v, t.data with
  | Value.Null, _ -> store_default ()
  | Value.Int x, DInt a when Dtype.equal t.ty Dtype.TInt -> a.(t.len) <- x
  | Value.Date d, DInt a when Dtype.equal t.ty Dtype.TDate -> a.(t.len) <- d
  | Value.Float x, DFloat a -> a.(t.len) <- x
  | Value.Int x, DFloat a -> a.(t.len) <- float_of_int x
  | Value.Bool b, DBool bytes ->
    Bytes.set bytes t.len (if b then '\001' else '\000')
  | Value.Str s, DStr a -> a.(t.len) <- s
  | (Value.Path _ as p), DBox a -> a.(t.len) <- p
  | ( Value.Int _ | Value.Float _ | Value.Bool _ | Value.Str _ | Value.Date _
    | Value.Path _ | Value.Tuple _ ),
    _ ->
    invalid_arg
      (Printf.sprintf "Column.append: cell %s does not fit column type %s"
         (Value.to_display v) (Dtype.name t.ty)));
  Nullmask.append t.nulls (Value.is_null v);
  t.len <- t.len + 1

let of_values ty vs =
  let t = create ~capacity:(max 1 (List.length vs)) ty in
  List.iter (append t) vs;
  t

let mask_init n null =
  let m = Nullmask.create ~capacity:n () in
  for i = 0 to n - 1 do
    Nullmask.append m (match null with None -> false | Some f -> f i)
  done;
  m

(* The array becomes the column's storage. Its length is the column's,
   so the column's first append grows into a fresh buffer and never
   writes into it. *)
let of_int_array ?null a =
  let len = Array.length a in
  {
    ty = Dtype.TInt;
    data = DInt a;
    len;
    nulls = mask_init len null;
    owner = true;
  }

let of_float_array ?null a =
  let len = Array.length a in
  {
    ty = Dtype.TFloat;
    data = DFloat a;
    len;
    nulls = mask_init len null;
    owner = true;
  }

let init_bool ?null n f =
  {
    ty = Dtype.TBool;
    data = DBool (Bytes.init n (fun i -> if f i then '\001' else '\000'));
    len = n;
    nulls = mask_init n null;
    owner = true;
  }

let is_null t i = Nullmask.get t.nulls i
let null_count t = Nullmask.null_count t.nulls

let check_bounds t i name =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Column.%s: index %d out of bounds" name i)

let get t i =
  check_bounds t i "get";
  if Nullmask.get t.nulls i then Value.Null
  else
    match t.data, t.ty with
    | DInt a, Dtype.TDate -> Value.Date a.(i)
    | DInt a, _ -> Value.Int a.(i)
    | DFloat a, _ -> Value.Float a.(i)
    | DBool b, _ -> Value.Bool (Bytes.get b i <> '\000')
    | DStr a, _ -> Value.Str a.(i)
    | DBox a, _ -> a.(i)

let int_at t i =
  match t.data with
  | DInt a -> a.(i)
  | DFloat _ | DBool _ | DStr _ | DBox _ ->
    invalid_arg "Column.int_at: not an int column"

let float_at t i =
  match t.data with
  | DFloat a -> a.(i)
  | DInt a -> float_of_int a.(i)
  | DBool _ | DStr _ | DBox _ ->
    invalid_arg "Column.float_at: not a numeric column"

let str_at t i =
  match t.data with
  | DStr a -> a.(i)
  | DInt _ | DFloat _ | DBool _ | DBox _ ->
    invalid_arg "Column.str_at: not a string column"

let bool_at t i =
  match t.data with
  | DBool b -> Bytes.get b i <> '\000'
  | DInt _ | DFloat _ | DStr _ | DBox _ ->
    invalid_arg "Column.bool_at: not a bool column"

(* Gather without per-cell boxing: specialised per payload kind. *)
let take t idx =
  let m = Array.length idx in
  let bounds i =
    if i < 0 || i >= t.len then
      invalid_arg "Column.take: row index out of bounds"
  in
  Array.iter bounds idx;
  let nulls = Nullmask.create ~capacity:m () in
  for k = 0 to m - 1 do
    Nullmask.append nulls (Nullmask.get t.nulls idx.(k))
  done;
  let data =
    match t.data with
    | DInt a -> DInt (Array.map (fun i -> a.(i)) idx)
    | DFloat a -> DFloat (Array.map (fun i -> a.(i)) idx)
    | DBool b ->
      let out = Bytes.create m in
      for k = 0 to m - 1 do
        Bytes.set out k (Bytes.get b idx.(k))
      done;
      DBool out
    | DStr a -> DStr (Array.map (fun i -> a.(i)) idx)
    | DBox a -> DBox (Array.map (fun i -> a.(i)) idx)
  in
  { ty = t.ty; data; len = m; nulls; owner = true }

let to_list t =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (get t i :: acc) in
  loop (t.len - 1) []

let iter f t =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

(* O(1): the copy shares [data] (see [t]) and the null mask's bits. The
   server publishes a copy of each changed table on every commit, so this
   is on the write hot path. *)
let copy t = { t with nulls = Nullmask.copy t.nulls; owner = false }

let same_null_flags a b n =
  let rec loop i = i >= n || (is_null a i = is_null b i && loop (i + 1)) in
  not (Nullmask.any_null a.nulls || Nullmask.any_null b.nulls) || loop 0

(* Columns that share storage hold the same payload on every row below
   both lengths, so only their null flags are compared: the graph index
   checks a whole key column this way on every edge INSERT. Other int
   payloads are compared unboxed, where boxing each cell costs tens of
   milliseconds at SF1. A NULL row's payload is not compared. *)
let equal_prefix a b n =
  Dtype.equal a.ty b.ty && n <= a.len && n <= b.len
  && (a == b
     ||
     if a.data == b.data then same_null_flags a b n
     else
       match a.data, b.data with
       | DInt x, DInt y ->
         let nulls = Nullmask.any_null a.nulls || Nullmask.any_null b.nulls in
         let rec loop i =
           i >= n
           || (if nulls then
                 let null = is_null a i in
                 null = is_null b i && (null || x.(i) = y.(i))
               else x.(i) = y.(i))
              && loop (i + 1)
         in
         loop 0
       | _ ->
         let rec loop i =
           i >= n || (Value.equal (get a i) (get b i) && loop (i + 1))
         in
         loop 0)

let equal a b = a.len = b.len && equal_prefix a b a.len

(* Raw views for the column-at-a-time evaluator: the returned arrays are
   the backing store (length may exceed [length t]); callers must not
   mutate them and must ignore slots past [length t]. *)
let raw_int t = match t.data with DInt a -> Some a | _ -> None
let raw_float t = match t.data with DFloat a -> Some a | _ -> None

let pp ppf t =
  Format.fprintf ppf "@[<hov 1>[%s:" (Dtype.name t.ty);
  iter (fun v -> Format.fprintf ppf "@ %a" Value.pp v) t;
  Format.fprintf ppf "]@]"
