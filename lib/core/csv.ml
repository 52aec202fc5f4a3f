(* The exception lives in [Error] so [Db.guard] can catch it by name
   without a csv -> db -> csv dependency cycle; re-exported here under
   its historical name. *)
exception Csv_error = Error.Csv_error

let err fmt = Printf.ksprintf (fun s -> raise (Csv_error s)) fmt

(* A small state machine over the raw text; handles quoted fields with
   doubled quotes, bare CR before LF, and a missing final newline. Calls
   [f line fields] per row, [line] being the file line the row starts on
   (blank lines are skipped, a quoted newline stays inside its field). *)
let iter_rows f s =
  let n = String.length s in
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let started = ref false in
  (* row has content *)
  let line = ref 1 in
  let row_line = ref 1 in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let flush_row () =
    flush_field ();
    let row = List.rev !fields in
    fields := [];
    started := false;
    f !row_line row
  in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    (match c with
    | '"' ->
      started := true;
      incr i;
      let closed = ref false in
      while not !closed do
        if !i >= n then err "unterminated quoted field"
        else if s.[!i] = '"' then
          if !i + 1 < n && s.[!i + 1] = '"' then begin
            Buffer.add_char buf '"';
            i := !i + 2
          end
          else begin
            closed := true;
            incr i
          end
        else begin
          if s.[!i] = '\n' then incr line;
          Buffer.add_char buf s.[!i];
          incr i
        end
      done;
      decr i
    | ',' ->
      started := true;
      flush_field ()
    | '\n' ->
      if !started || Buffer.length buf > 0 || !fields <> [] then flush_row ();
      incr line;
      row_line := !line
    | '\r' -> () (* swallow; the \n does the work *)
    | c ->
      started := true;
      Buffer.add_char buf c);
    incr i
  done;
  if !started || Buffer.length buf > 0 || !fields <> [] then flush_row ()

let parse_string s =
  let rows = ref [] in
  iter_rows (fun _ row -> rows := row :: !rows) s;
  List.rev !rows

let cell_of_string ty text =
  if text = "" then Storage.Value.Null
  else
    match Storage.Value.cast (Storage.Value.Str text) ty with
    | Ok v -> v
    | Error m -> err "CSV: %s" m

(* The row step of typed and untyped loads alike. *)
let append_line table line fields =
  let schema = Storage.Table.schema table in
  let arity = Storage.Schema.arity schema in
  if List.length fields <> arity then
    err "CSV line %d has %d fields, expected %d" line (List.length fields)
      arity;
  Storage.Table.append_row table
    (Array.of_list
       (List.mapi
          (fun col text ->
            cell_of_string (Storage.Schema.field schema col).Storage.Schema.ty
              text)
          fields))

let table_of_string ~schema ?(header = true) s =
  let table = Storage.Table.create schema in
  let skip = ref header in
  iter_rows
    (fun line fields ->
      if !skip then skip := false else append_line table line fields)
    s;
  table

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
      let loaded = ref None in
      iter_rows
        (fun line fields ->
          match !loaded with
          | Some t -> append_line t line fields
          | None ->
            let column i name =
              let name = String.trim name in
              let name = if name = "" then Printf.sprintf "c%d" i else name in
              { Storage.Schema.name; ty = Storage.Dtype.TStr }
            in
            loaded :=
              Some
                (Storage.Table.create
                   (Storage.Schema.make (List.mapi column fields))))
        text;
      match !loaded with
      | None -> err "CSV import: %s is empty" path
      | Some t ->
        Db.load_table db ~name:table t;
        Storage.Table.nrows t)

let save_file rs ~path =
  Db.protect (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Resultset.to_csv rs)))
