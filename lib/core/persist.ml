let manifest_file = "_manifest.csv"

(* A signal landing mid-write makes [Unix.write] raise [EINTR] (nothing
   written) or return short (partially written).  Treat EINTR as a
   zero-byte transfer and stay in the short-write loop — the SIGINT
   cancellation handler makes interrupts routine. *)
let write_retry op =
  match op () with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0

let write_all fd s =
  let n = String.length s in
  let w = ref 0 in
  while !w < n do
    w := !w + write_retry (fun () -> Unix.write_substring fd s !w (n - !w))
  done

(* fsync a file or directory by path (directory fsync persists the
   entry rename itself, not just the bytes). *)
let fsync_path path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

(* [lstat], so a symlink is removed, never followed into its target. *)
let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let write_file_synced path text =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd text;
      Unix.fsync fd)

(* Render every table into (filename, contents) pairs, re-raising the
   paper's §3.3 rule for path-typed columns before any byte is written. *)
let render db =
  let catalog = Db.catalog db in
  let manifest = Buffer.create 256 in
  Buffer.add_string manifest "table,column,type\n";
  let files =
    List.map
      (fun name ->
        let table = Option.get (Storage.Catalog.find catalog name) in
        let schema = Storage.Table.schema table in
        List.iter
          (fun (f : Storage.Schema.field) ->
            if Storage.Dtype.equal f.Storage.Schema.ty Storage.Dtype.TPath
            then
              raise
                (Relalg.Scalar.Runtime_error
                   (Printf.sprintf
                      "table %s column %s: paths cannot be permanently \
                       stored (flatten with UNNEST first)"
                      name f.Storage.Schema.name));
            Buffer.add_string manifest
              (Printf.sprintf "%s,%s,%s\n" name f.Storage.Schema.name
                 (Storage.Dtype.name f.Storage.Schema.ty)))
          (Storage.Schema.fields schema);
        (name ^ ".csv", Resultset.to_csv (Resultset.of_table table)))
      (Storage.Catalog.names catalog)
  in
  files @ [ (manifest_file, Buffer.contents manifest) ]

(* Atomic save: render everything, write into a temp sibling directory
   (fsyncing each file), then rename into place. A crash — or an armed
   fault at the persist_write/persist_rename sites — leaves either the
   previous save or the new one, never a half-written mix. An existing
   non-empty target that carries no manifest is refused outright: it is
   not a sqlgraph save, and overwriting it would scribble CSVs over
   arbitrary user data. *)
let save db ~dir =
  Db.protect (fun () ->
      if Sys.file_exists dir then begin
        if not (Sys.is_directory dir) then
          raise (Sys_error (dir ^ ": exists and is not a directory"));
        if
          Array.length (Sys.readdir dir) > 0
          && not (Sys.file_exists (Filename.concat dir manifest_file))
        then
          raise
            (Sys_error
               (Printf.sprintf
                  "refusing to overwrite %s: directory is not empty and has \
                   no %s (not a sqlgraph save)"
                  dir manifest_file))
      end;
      let files = render db in
      let tmp = Printf.sprintf "%s.tmp.%d" dir (Unix.getpid ()) in
      rm_rf tmp;
      Sys.mkdir tmp 0o755;
      (try
         Fault.hit ~site:"persist_write";
         List.iter
           (fun (name, text) ->
             write_file_synced (Filename.concat tmp name) text)
           files;
         fsync_path tmp;
         Fault.hit ~site:"persist_rename";
         if Sys.file_exists dir then begin
           let old = Printf.sprintf "%s.old.%d" dir (Unix.getpid ()) in
           rm_rf old;
           Sys.rename dir old;
           (try Sys.rename tmp dir
            with e ->
              (* best effort: put the previous save back *)
              (try Sys.rename old dir with _ -> ());
              raise e);
           rm_rf old
         end
         else Sys.rename tmp dir
       with e ->
         (try rm_rf tmp with _ -> ());
         raise e);
      (* persist the directory entry itself *)
      try fsync_path (Filename.dirname dir) with _ -> ())

let load ~dir =
  Db.protect (fun () ->
      let manifest_text =
        In_channel.with_open_text
          (Filename.concat dir manifest_file)
          In_channel.input_all
      in
      let rows =
        match Csv.parse_string manifest_text with
        | _header :: rows -> rows
        | [] -> raise (Csv.Csv_error "empty manifest")
      in
      (* group manifest rows by table, preserving column order *)
      let tables = Hashtbl.create 8 in
      let order = ref [] in
      List.iter
        (fun row ->
          match row with
          | [ table; column; ty_name ] ->
            let ty =
              match Storage.Dtype.of_name ty_name with
              | Some ty -> ty
              | None ->
                raise (Csv.Csv_error ("unknown type in manifest: " ^ ty_name))
            in
            (match Hashtbl.find_opt tables table with
            | Some cols -> Hashtbl.replace tables table ((column, ty) :: cols)
            | None ->
              order := table :: !order;
              Hashtbl.replace tables table [ (column, ty) ])
          | _ -> raise (Csv.Csv_error "malformed manifest row"))
        rows;
      let db = Db.create () in
      (* one [ckpt_load] span per table, closed with its row count *)
      List.iter
        (fun table ->
          let cols = List.rev (Hashtbl.find tables table) in
          let schema = Storage.Schema.of_pairs cols in
          let sp =
            Telemetry.Trace.begin_span ~attrs:[ ("table", table) ] "ckpt_load"
          in
          match
            Csv.table_of_string ~schema
              (In_channel.with_open_text
                 (Filename.concat dir (table ^ ".csv"))
                 In_channel.input_all)
          with
          | t ->
            Telemetry.Trace.end_span
              ~attrs:[ ("rows", string_of_int (Storage.Table.nrows t)) ]
              sp;
            Db.load_table db ~name:table t
          | exception e ->
            Telemetry.Trace.end_span sp;
            raise e)
        (List.rev !order);
      db)
