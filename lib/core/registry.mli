(** Cumulative session metrics: named counters, gauges and log-scale
    histograms.

    One registry lives on each [Db] session. After every statement the
    session adds that statement's counters to it — the
    [sqlgraph_*_total] counters and histograms named in
    [Executor.Interp.counters] — so "what was p99 statement latency
    over this workload?" has an answer at any point in the session.
    The server keeps one more, for its own metrics.

    Histograms are log-scale: observations land in geometric buckets
    (4 per decade from 1e-7 to 1e3, plus +Inf), so quantile readbacks
    ({!percentiles}) are estimates with at most one bucket (~78%) of
    relative error; the maximum is tracked exactly.  Metrics are
    created on first use and keyed by name; registration order is
    preserved in every rendering.

    Renderings: {!to_prometheus} (text exposition format v0.0.4, for
    [--metrics-out]), {!to_table} (aligned human table, for [\metrics])
    and {!fold} (for the [session] section of the sqlgraph-metrics-v1
    JSON).  A registry is not synchronized: a session's statements
    execute sequentially on its thread, the only writer; the server
    guards its shared one with a mutex of its own. *)

type t

val create : unit -> t

val inc : t -> ?help:string -> string -> int -> unit
(** Add to a (monotonic) counter, creating it at 0 first if needed. *)

val set_gauge : t -> ?help:string -> string -> float -> unit

val observe : t -> ?help:string -> string -> float -> unit
(** Record one observation into a histogram. *)

type percentiles = {
  count : int;
  sum : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

val percentiles : t -> string -> percentiles option
(** Quantile readback for a histogram ([None] if the name is unknown,
    not a histogram, or empty).  p50/p90/p99 are upper-bound estimates
    from the log buckets, clamped to the exact observed max. *)

type metric =
  | Counter of int
  | Gauge of float
  | Histogram of percentiles

val fold : t -> init:'a -> f:('a -> string -> help:string -> metric -> 'a) -> 'a
(** Iterate metrics in registration order. *)

val to_prometheus : t -> string
(** Prometheus text exposition format v0.0.4: [# HELP]/[# TYPE] comment
    pairs, counters/gauges as single samples, histograms as cumulative
    [_bucket{le="..."}] series plus [_sum] and [_count]. *)

val to_table : t -> string
(** Aligned human-readable table (the [\metrics] meta-command). *)
