type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

(* NaN (e.g. gov_budget_remaining_ms with no timeout) and infinities have
   no JSON spelling; emit null rather than an invalid document. *)
let num f = if Float.is_finite f then Float f else Null

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Defence in depth: [num] maps non-finite floats to [Null] at
   construction time, but a [Float nan] built directly must still never
   produce an invalid document, so the emitter repeats the check (pinned
   by the round-trip property in test/test_telemetry.ml). *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let to_string j =
  let buf = Buffer.create 256 in
  let rec go indent j =
    let pad n = String.make (2 * n) ' ' in
    match j with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      (* %.17g round-trips doubles; trim is not worth the dependency *)
      Buffer.add_string buf (float_repr f)
    | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 1));
          go (indent + 1) item)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 1));
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          go (indent + 1) v)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf '}'
  in
  go 0 j;
  Buffer.contents buf

(* One-line rendering for NDJSON sinks (--json-metrics-append, the
   slow-query log): same data as [to_string], no newlines. *)
let to_compact_string j =
  let buf = Buffer.create 256 in
  let rec go j =
    match j with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go j;
  Buffer.contents buf

(* The [session] section of sqlgraph-metrics-v1: the Db registry's
   cumulative counters/gauges/histograms. *)
let registry_json reg =
  let fields =
    Telemetry.Registry.fold reg ~init:[] ~f:(fun acc name ~help:_ m ->
        let v =
          match m with
          | Telemetry.Registry.Counter c -> Int c
          | Telemetry.Registry.Gauge g -> num g
          | Telemetry.Registry.Histogram p ->
            Obj
              [
                ("count", Int p.Telemetry.Registry.count);
                ("sum", num p.Telemetry.Registry.sum);
                ("p50", num p.Telemetry.Registry.p50);
                ("p90", num p.Telemetry.Registry.p90);
                ("p99", num p.Telemetry.Registry.p99);
                ("max", num p.Telemetry.Registry.max);
              ]
        in
        (name, v) :: acc)
  in
  Obj (List.rev fields)

(* The "stats" object, from the counter declaration: a group's rows are
   adjacent there, so each group nests as one object in declaration
   order. *)
let stats_json (s : Executor.Interp.stats) =
  let field (c : Executor.Interp.counter) fields =
    let v =
      match c.get s with
      | Executor.Interp.Int i -> Int i
      | Executor.Interp.Float f -> num f
    in
    match c.json, fields with
    | [ group; key ], (g, Obj inner) :: rest when g = group ->
      (group, Obj ((key, v) :: inner)) :: rest
    | [ group; key ], _ -> (group, Obj [ (key, v) ]) :: fields
    | path, _ -> (String.concat "." path, v) :: fields
  in
  Obj (List.fold_right field Executor.Interp.counters [])

(* The sqlgraph_metrics system table (DESIGN.md §14): one row per
   counter/gauge value and per histogram percentile, so registry state
   is SQL-queryable.  [registry_table] concatenates several registries
   (the server renders its shared server registry after the writer Db's
   session registry). *)
let registry_schema =
  Storage.Schema.of_pairs
    [
      ("name", Storage.Dtype.TStr);
      ("kind", Storage.Dtype.TStr);
      ("field", Storage.Dtype.TStr);
      ("value", Storage.Dtype.TFloat);
      ("help", Storage.Dtype.TStr);
    ]

let registry_rows reg =
  let module V = Storage.Value in
  let cell f = if Float.is_finite f then V.Float f else V.Null in
  Telemetry.Registry.fold reg ~init:[] ~f:(fun acc name ~help m ->
      let row kind field v = [ V.Str name; V.Str kind; V.Str field; v; V.Str help ] in
      match m with
      | Telemetry.Registry.Counter c ->
        row "counter" "value" (V.Float (float_of_int c)) :: acc
      | Telemetry.Registry.Gauge g -> row "gauge" "value" (cell g) :: acc
      | Telemetry.Registry.Histogram p ->
        let open Telemetry.Registry in
        row "histogram" "max" (cell p.max)
        :: row "histogram" "p99" (cell p.p99)
        :: row "histogram" "p90" (cell p.p90)
        :: row "histogram" "p50" (cell p.p50)
        :: row "histogram" "sum" (cell p.sum)
        :: row "histogram" "count" (V.Float (float_of_int p.count))
        :: acc)
  |> List.rev

let registry_table regs =
  Storage.Table.of_rows registry_schema (List.concat_map registry_rows regs)

let host () =
  [
    ("host_cores", Int (Domain.recommended_domain_count ()));
    ("ocaml_version", String Sys.ocaml_version);
  ]

let write_file ~path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string j);
      output_char oc '\n')
