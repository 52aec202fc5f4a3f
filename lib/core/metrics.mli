(** Minimal JSON emission for observability artifacts: the CLI's
    [--json-metrics] dump (schema ["sqlgraph-metrics-v1"]), NDJSON sinks
    ([--json-metrics-append], the slow-query log) and the bench
    harness's [BENCH_*.json] files (schema ["sqlgraph-bench-v1"]).

    Emission only — nothing in the system reads JSON back, so there is
    no parser and no external dependency (the test suite carries its own
    reader to round-trip this module's output). *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

(** [num f] — [Float f], or [Null] when [f] is NaN or infinite (JSON has
    no spelling for either). *)
val num : float -> json

(** [to_string j] — pretty-printed (2-space indent), no trailing
    newline.  A non-finite [Float] that bypassed {!num} still emits
    [null], never an invalid token. *)
val to_string : json -> string

(** [to_compact_string j] — same document on a single line (NDJSON
    record shape), no trailing newline. *)
val to_compact_string : json -> string

(** [registry_json reg] — a {!Telemetry.Registry.t} as the [session]
    object of sqlgraph-metrics-v1: counters as ints, gauges as numbers,
    histograms as [{count, sum, p50, p90, p99, max}]. *)
val registry_json : Telemetry.Registry.t -> json

(** [stats_json stats] — an {!Executor.Interp.stats} record as a JSON
    object: top-level build/traverse timings plus [build_phases],
    [graph_index], [traversal], [evaluation] and [governor] sub-objects. *)
val stats_json : Executor.Interp.stats -> json

(** [write_file ~path j] — write [j] and a trailing newline to [path]
    (truncating). *)
val write_file : path:string -> json -> unit

(** {1 The [sqlgraph_metrics] system table (DESIGN.md §14)} *)

(** [registry_table regs] — the rows of every registry in [regs], in
    order, as one table. Columns: [name, kind, field, value, help].
    Counters and gauges emit one row ([field = "value"]); histograms emit
    one row per rendered field ([count], [sum], [p50], [p90], [p99],
    [max]). *)
val registry_table : Telemetry.Registry.t list -> Storage.Table.t
