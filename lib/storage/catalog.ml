type entry = { mutable table : Table.t; mutable version : int }

type t = {
  tables : (string, entry) Hashtbl.t;
  mutable clock : int;
      (* next version to hand out: one counter for every name, so a
         table dropped and created again never repeats a version a cache
         may still hold for the old one *)
  virtuals : (string, unit -> Table.t) Hashtbl.t;
      (* read-only system tables (the sqlgraph_stat family), materialized fresh on
         every scan; deliberately invisible to [find]/[names] so DML,
         BEGIN snapshots, persistence and server publication never see
         them *)
}

let norm = String.lowercase_ascii

let create () =
  { tables = Hashtbl.create 16; clock = 0; virtuals = Hashtbl.create 8 }

let tick t =
  let v = t.clock in
  t.clock <- v + 1;
  v

let add t name table =
  let key = norm name in
  if Hashtbl.mem t.tables key then
    invalid_arg (Printf.sprintf "Catalog.add: table %S already exists" name);
  Hashtbl.replace t.tables key { table; version = tick t }

let replace t name table =
  let key = norm name in
  match Hashtbl.find_opt t.tables key with
  | Some e ->
    e.table <- table;
    e.version <- tick t
  | None -> Hashtbl.replace t.tables key { table; version = tick t }

let replace_at t name table ~version =
  let key = norm name in
  t.clock <- max t.clock (version + 1);
  match Hashtbl.find_opt t.tables key with
  | Some e ->
    e.table <- table;
    e.version <- version
  | None -> Hashtbl.replace t.tables key { table; version }

let find t name =
  Option.map (fun e -> e.table) (Hashtbl.find_opt t.tables (norm name))

let mem t name = Hashtbl.mem t.tables (norm name)

let drop t name =
  let key = norm name in
  if Hashtbl.mem t.tables key then begin
    Hashtbl.remove t.tables key;
    true
  end
  else false

let version t name =
  Option.map (fun e -> e.version) (Hashtbl.find_opt t.tables (norm name))

let touch t name =
  match Hashtbl.find_opt t.tables (norm name) with
  | Some e -> e.version <- tick t
  | None -> ()

let names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tables [] |> List.sort String.compare

let register_virtual t name provider =
  Hashtbl.replace t.virtuals (norm name) provider

let virtual_provider t name = Hashtbl.find_opt t.virtuals (norm name)
