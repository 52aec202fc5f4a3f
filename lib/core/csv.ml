(* The exception lives in [Error] so [Db.guard] can catch it by name
   without a csv -> db -> csv dependency cycle; re-exported here under
   its historical name. *)
exception Csv_error = Error.Csv_error

let err fmt = Printf.ksprintf (fun s -> raise (Csv_error s)) fmt

(* The fields of the row being scanned. Field [k] is the span
   [src.(k)].[off.(k) .. off.(k) + len.(k)): a slice of the file text
   itself, or of a fresh string when the field held a quote or a stray
   CR. The arrays are reused row after row, so a span is valid only
   inside the callback that receives it. *)
type row = {
  mutable count : int;
  mutable src : string array;
  mutable off : int array;
  mutable len : int array;
}

let push r src off len =
  if r.count = Array.length r.off then begin
    let grow a fill =
      let b = Array.make (2 * r.count) fill in
      Array.blit a 0 b 0 r.count;
      b
    in
    r.src <- grow r.src "";
    r.off <- grow r.off 0;
    r.len <- grow r.len 0
  end;
  (* the file text fills most slots: skip the write barrier then *)
  if r.src.(r.count) != src then r.src.(r.count) <- src;
  r.off.(r.count) <- off;
  r.len.(r.count) <- len;
  r.count <- r.count + 1

let field r k = String.sub r.src.(k) r.off.(k) r.len.(k)

(* The quoted run whose text starts at [p] goes into [buf] with its
   doubled quotes undoubled; the position after its closing quote. *)
let rec quoted buf line s p =
  match String.index_from_opt s p '"' with
  | None -> err "unterminated quoted field"
  | Some q ->
    for x = p to q - 1 do
      if s.[x] = '\n' then incr line
    done;
    Buffer.add_substring buf s p (q - p);
    if q + 1 < String.length s && s.[q + 1] = '"' then begin
      Buffer.add_char buf '"';
      quoted buf line s (q + 2)
    end
    else q + 1

(* One pass over [s]. Quoted fields take doubled quotes and may open
   mid-field; a quoted newline stays inside its field; an unquoted CR is
   dropped; blank lines are skipped; the final newline is optional.
   Calls [f line row] per row, [line] being the file line the row starts
   on. A field with neither quote nor CR is handed over in place; only
   the others are copied out. *)
let scan f s =
  let n = String.length s in
  let r =
    {
      count = 0;
      src = Array.make 8 "";
      off = Array.make 8 0;
      len = Array.make 8 0;
    }
  in
  let buf = Buffer.create 64 in
  let line = ref 1 in
  let row_line = ref 1 in
  let i = ref 0 in
  (* a field still follows a trailing comma, even at the end of [s] *)
  while !i < n || r.count > 0 do
    let start = !i in
    let j = ref start in
    while
      !j < n
      &&
      match String.unsafe_get s !j with
      | ',' | '\n' | '"' | '\r' -> false
      | _ -> true
    do
      incr j
    done;
    let j = !j in
    (* [stop]: the field's ',' or '\n', or [n]; [content]: the field
       has a character or a quote, so a lone field still makes a row *)
    let stop = ref j and content = ref (j > start) in
    if j >= n || s.[j] = ',' || s.[j] = '\n' then push r s start (j - start)
    else if s.[j] = '\r' && (j + 1 = n || s.[j + 1] = '\n') then begin
      push r s start (j - start);
      stop := j + 1
    end
    else begin
      Buffer.clear buf;
      Buffer.add_substring buf s start (j - start);
      while !stop < n && s.[!stop] <> ',' && s.[!stop] <> '\n' do
        match s.[!stop] with
        | '"' ->
          content := true;
          stop := quoted buf line s (!stop + 1)
        | '\r' -> incr stop
        | c ->
          content := true;
          Buffer.add_char buf c;
          incr stop
      done;
      push r (Buffer.contents buf) 0 (Buffer.length buf)
    end;
    let stop = !stop in
    if stop < n && s.[stop] = ',' then i := stop + 1
    else begin
      if r.count > 1 || !content then f !row_line r;
      r.count <- 0;
      if stop < n then begin
        incr line;
        row_line := !line
      end;
      i := stop + 1
    end
  done

let parse_string s =
  let rows = ref [] in
  scan (fun _ r -> rows := List.init r.count (field r) :: !rows) s;
  List.rev !rows

(* The fallback for every spelling the fast paths below do not take: it
   owns the accepted forms and the error messages, exactly as [CAST]. *)
let cast_cell ty text =
  match Storage.Value.cast (Storage.Value.Str text) ty with
  | Ok v -> v
  | Error m -> err "CSV: %s" m

let rec all_digits s p stop =
  p >= stop || (s.[p] >= '0' && s.[p] <= '9' && all_digits s (p + 1) stop)

(* [-]digits with at most 18 digits, so the value fits in an int *)
let plain_int s off len =
  let first = if s.[off] = '-' then off + 1 else off in
  let stop = off + len in
  stop - first >= 1 && stop - first <= 18 && all_digits s first stop

let read_int s off len =
  let neg = s.[off] = '-' in
  let acc = ref 0 in
  for p = (if neg then off + 1 else off) to off + len - 1 do
    acc := (10 * !acc) + Char.code s.[p] - 48
  done;
  if neg then - !acc else !acc

(* The field's cell in a column of type [ty]; [""] is NULL. *)
let cell ty src off len =
  let open Storage in
  if len = 0 then Value.Null
  else
    match ty with
    | Dtype.TInt when plain_int src off len -> Value.Int (read_int src off len)
    | Dtype.TStr -> Value.Str (String.sub src off len)
    | Dtype.TFloat -> (
      let text = String.sub src off len in
      match float_of_string_opt text with
      | Some x -> Value.Float x
      | None -> cast_cell ty text)
    | Dtype.TDate -> (
      let text = String.sub src off len in
      match Date.of_string text with
      | Some d -> Value.Date d
      | None -> cast_cell ty text)
    | Dtype.TInt | Dtype.TBool | Dtype.TPath ->
      cast_cell ty (String.sub src off len)

(* A table under construction: one column per schema field, each row
   appended cell by cell straight from the scanner's spans. *)
type loader = {
  schema : Storage.Schema.t;
  tys : Storage.Dtype.t array;
  cols : Storage.Column.t array;
  mutable nrows : int;
}

let loader schema =
  let tys =
    Array.of_list
      (List.map
         (fun (f : Storage.Schema.field) -> f.Storage.Schema.ty)
         (Storage.Schema.fields schema))
  in
  { schema; tys; cols = Array.map Storage.Column.create tys; nrows = 0 }

let append_row ld line r =
  let arity = Array.length ld.cols in
  if r.count <> arity then
    err "CSV line %d has %d fields, expected %d" line r.count arity;
  for k = 0 to arity - 1 do
    Storage.Column.append ld.cols.(k)
      (cell ld.tys.(k) r.src.(k) r.off.(k) r.len.(k))
  done;
  ld.nrows <- ld.nrows + 1

let finish ld =
  Storage.Table.of_columns ~nrows:ld.nrows ld.schema (Array.to_list ld.cols)

let table_of_string ~schema ?(header = true) s =
  let ld = loader schema in
  let skip = ref header in
  scan (fun line r -> if !skip then skip := false else append_row ld line r) s;
  finish ld

let load_file db ~path ~table ~schema ?(header = true) () =
  Db.protect (fun () ->
      let text = In_channel.with_open_text path In_channel.input_all in
      let t = table_of_string ~schema ~header text in
      Db.load_table db ~name:table t;
      Storage.Table.nrows t)

(* Header-derived import: every column VARCHAR, names from the header
   row (falling back to c0, c1, ... when a header cell is empty). The
   CLI's \i meta-command uses this so ad-hoc files load without a
   declared schema — and fails through the same guard as statements. *)
let import_untyped db ~path ~table =
  Db.protect (fun () ->
      let text = In_channel.with_open_text path In_channel.input_all in
      let ld = ref None in
      scan
        (fun line r ->
          match !ld with
          | Some ld -> append_row ld line r
          | None ->
            let column i =
              let name = String.trim (field r i) in
              let name = if name = "" then Printf.sprintf "c%d" i else name in
              { Storage.Schema.name; ty = Storage.Dtype.TStr }
            in
            ld :=
              Some (loader (Storage.Schema.make (List.init r.count column))))
        text;
      match !ld with
      | None -> err "CSV import: %s is empty" path
      | Some ld ->
        let t = finish ld in
        Db.load_table db ~name:table t;
        Storage.Table.nrows t)

let save_file rs ~path =
  Db.protect (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Resultset.to_csv rs)))
