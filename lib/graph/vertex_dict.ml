(* Two implementations behind one interface:

   - a generic dictionary over Value.t, for any key type;
   - a specialized integer dictionary used when every input column is
     TInt: int-keyed hashing, and encode_column reads raw ints straight
     out of the column without boxing a Value per row.

   The specialization matters because dictionary construction dominates
   the whole shortest-path query (ablation A4 in EXPERIMENTS.md): on the
   LDBC-style workload all vertex keys are integers, so this is the
   common case. [build ~specialize:false] forces the generic path for the
   A6 ablation. *)

module Value_tbl = Hashtbl.Make (struct
  type t = Storage.Value.t

  let equal = Storage.Value.equal
  let hash = Storage.Value.hash
end)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type t =
  | Generic of {
      ids : int Value_tbl.t;
      values : Storage.Value.t array; (* dense id -> original value *)
    }
  | Ints of {
      ids : int Int_tbl.t;
      values : int array; (* dense id -> original int key *)
      dtype : Storage.Dtype.t; (* TInt or TDate: how to re-box on decode *)
    }

let all_int_like cols =
  match cols with
  | [] -> None
  | first :: _ ->
    let ty = Storage.Column.dtype first in
    if
      (Storage.Dtype.equal ty Storage.Dtype.TInt
      || Storage.Dtype.equal ty Storage.Dtype.TDate)
      && List.for_all
           (fun c -> Storage.Dtype.equal (Storage.Column.dtype c) ty)
           cols
    then Some ty
    else None

let build_generic cols =
  let ids = Value_tbl.create 1024 in
  let values = ref [] in
  let next = ref 0 in
  let add v =
    if (not (Storage.Value.is_null v)) && not (Value_tbl.mem ids v) then begin
      Value_tbl.add ids v !next;
      values := v :: !values;
      incr next
    end
  in
  List.iter (fun col -> Storage.Column.iter add col) cols;
  Generic { ids; values = Array.of_list (List.rev !values) }

let build_ints dtype cols =
  let ids = Int_tbl.create 1024 in
  let values = ref [] in
  let next = ref 0 in
  List.iter
    (fun col ->
      let n = Storage.Column.length col in
      for i = 0 to n - 1 do
        if not (Storage.Column.is_null col i) then begin
          let v = Storage.Column.int_at col i in
          if not (Int_tbl.mem ids v) then begin
            Int_tbl.add ids v !next;
            values := v :: !values;
            incr next
          end
        end
      done)
    cols;
  Ints { ids; values = Array.of_list (List.rev !values); dtype }

let build ?(specialize = true) cols =
  match if specialize then all_int_like cols else None with
  | Some ty -> build_ints ty cols
  | None -> build_generic cols

(* Composite keys (§2's multi-attribute node addressing): each group is
   the column tuple of one endpoint; a vertex key is the Tuple of the
   group's cells at one row. NULL in any component means "no vertex"
   (mirroring the single-attribute NULL rule). Singleton groups take the
   plain (possibly specialized) path. *)
let build_groups ?specialize groups =
  match groups with
  | [] -> invalid_arg "Vertex_dict.build_groups: no groups"
  | _ when List.for_all (fun g -> List.length g = 1) groups ->
    build ?specialize (List.concat groups)
  | _ ->
    let width = List.length (List.hd groups) in
    if not (List.for_all (fun g -> List.length g = width) groups) then
      invalid_arg "Vertex_dict.build_groups: groups of different widths";
    let ids = Value_tbl.create 1024 in
    let values = ref [] in
    let next = ref 0 in
    List.iter
      (fun group ->
        let cols = Array.of_list group in
        let n = Storage.Column.length cols.(0) in
        for row = 0 to n - 1 do
          let cells = Array.map (fun c -> Storage.Column.get c row) cols in
          if not (Array.exists Storage.Value.is_null cells) then begin
            let key = Storage.Value.Tuple cells in
            if not (Value_tbl.mem ids key) then begin
              Value_tbl.add ids key !next;
              values := key :: !values;
              incr next
            end
          end
        done)
      groups;
    Generic { ids; values = Array.of_list (List.rev !values) }


let cardinality = function
  | Generic { values; _ } -> Array.length values
  | Ints { values; _ } -> Array.length values

let encode t v =
  match t, v with
  | Generic { ids; _ }, _ -> Value_tbl.find_opt ids v
  | Ints { ids; dtype; _ }, Storage.Value.Int x
    when Storage.Dtype.equal dtype Storage.Dtype.TInt ->
    Int_tbl.find_opt ids x
  | Ints { ids; dtype; _ }, Storage.Value.Date x
    when Storage.Dtype.equal dtype Storage.Dtype.TDate ->
    Int_tbl.find_opt ids x
  | Ints _, _ -> None

let decode t id =
  let bounds n =
    if id < 0 || id >= n then invalid_arg "Vertex_dict.decode: id out of range"
  in
  match t with
  | Generic { values; _ } ->
    bounds (Array.length values);
    values.(id)
  | Ints { values; dtype; _ } ->
    bounds (Array.length values);
    if Storage.Dtype.equal dtype Storage.Dtype.TDate then
      Storage.Value.Date values.(id)
    else Storage.Value.Int values.(id)

let encode_column ?(from = 0) t col =
  let n = Storage.Column.length col - from in
  match t with
  | Ints { ids; dtype; _ }
    when Storage.Dtype.equal (Storage.Column.dtype col) dtype ->
    (* unboxed fast path *)
    Array.init n (fun i ->
        let i = from + i in
        if Storage.Column.is_null col i then -1
        else
          match Int_tbl.find_opt ids (Storage.Column.int_at col i) with
          | Some id -> id
          | None -> -1)
  | _ ->
    Array.init n (fun i ->
        match encode t (Storage.Column.get col (from + i)) with
        | Some id -> id
        | None -> -1)
(* Encode one endpoint's columns row-wise; -1 marks non-vertices. *)
let encode_columns t cols =
  match cols with
  | [ col ] -> encode_column t col
  | _ ->
    let cols = Array.of_list cols in
    let n = Storage.Column.length cols.(0) in
    Array.init n (fun row ->
        let cells = Array.map (fun c -> Storage.Column.get c row) cols in
        if Array.exists Storage.Value.is_null cells then -1
        else
          match encode t (Storage.Value.Tuple cells) with
          | Some id -> id
          | None -> -1)
