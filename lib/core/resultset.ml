type t = Storage.Table.t

let of_table t = t
let to_table t = t
let column_names t = Storage.Schema.names (Storage.Table.schema t)

let nrows = Storage.Table.nrows
let ncols = Storage.Table.arity
let rows t = Storage.Table.to_rows t
let cell t ~row ~col = Storage.Table.get t ~row ~col

let value t =
  if nrows t <> 1 || ncols t <> 1 then
    invalid_arg
      (Printf.sprintf "Resultset.value: result is %dx%d, expected 1x1"
         (nrows t) (ncols t));
  cell t ~row:0 ~col:0

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

(* A DOUBLE's CSV text reads back as the same float: the display text
   when it does, else the shortest of 15, 16 and 17 significant digits
   that does (17 always do for a finite double). *)
let float_text x =
  let exact text = Float.equal (float_of_string text) x in
  let display = Storage.Value.to_display (Storage.Value.Float x) in
  if exact display then display
  else
    let rec shortest p =
      let text = Printf.sprintf "%.*g" p x in
      if p >= 17 || exact text then text else shortest (p + 1)
    in
    shortest 15

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (String.concat "," (List.map csv_escape (column_names t)));
  Buffer.add_char buf '\n';
  for row = 0 to nrows t - 1 do
    let cells =
      List.init (ncols t) (fun col ->
          (* the CSV convention: NULL is the empty field (so saved tables
             round-trip through Csv.table_of_string) *)
          match cell t ~row ~col with
          | Storage.Value.Null -> ""
          | Storage.Value.Float x -> float_text x
          | v -> csv_escape (Storage.Value.to_display v))
    in
    Buffer.add_string buf (String.concat "," cells);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let to_string t =
  let names = Array.of_list (column_names t) in
  let n = nrows t and m = ncols t in
  let cells =
    Array.init n (fun row ->
        Array.init m (fun col -> Storage.Value.to_display (cell t ~row ~col)))
  in
  let width col =
    Array.fold_left
      (fun acc r -> max acc (String.length r.(col)))
      (String.length names.(col))
      cells
  in
  let widths = Array.init m width in
  let buf = Buffer.create 256 in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let rule () =
    for col = 0 to m - 1 do
      Buffer.add_string buf (if col = 0 then "+-" else "-+-");
      Buffer.add_string buf (String.make widths.(col) '-')
    done;
    Buffer.add_string buf "-+\n"
  in
  rule ();
  for col = 0 to m - 1 do
    Buffer.add_string buf (if col = 0 then "| " else " | ");
    Buffer.add_string buf (pad names.(col) widths.(col))
  done;
  Buffer.add_string buf " |\n";
  rule ();
  Array.iter
    (fun r ->
      for col = 0 to m - 1 do
        Buffer.add_string buf (if col = 0 then "| " else " | ");
        Buffer.add_string buf (pad r.(col) widths.(col))
      done;
      Buffer.add_string buf " |\n")
    cells;
  rule ();
  Buffer.add_string buf
    (Printf.sprintf "%d row%s\n" n (if n = 1 then "" else "s"));
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)
