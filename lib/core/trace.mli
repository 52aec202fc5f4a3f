(** Session-wide structured-span recorder.

    A process-global, bounded ring buffer of begin/end/instant events.
    Each event carries the statement ("query") id, a span id, the parent
    span id, the recording domain's id (one timeline track per domain)
    and an optional key/value attribute list.  The recorder is designed
    for an always-compiled-in, normally-off hot path:

    - when disabled, {!begin_span}/{!end_span}/{!instant} reduce to one
      atomic load and return immediately — no allocation, no closure;
    - when enabled, recording an event writes into preallocated
      struct-of-array ring slots (only an attribute list, when supplied,
      allocates);
    - the ring never grows: once [capacity] events have been written the
      oldest are overwritten ({!dropped} counts how many).

    Span nesting is tracked per domain with a domain-local stack, so
    concurrently-recording domains produce independently well-formed
    timelines.  {!span} closes its span on any exception (including the
    governor's cooperative-cancellation unwind).

    The clock is injectable ({!set_clock}) so tests can fix timestamps;
    the default is [Unix.gettimeofday].

    This module lives in the bottom-layer [telemetry] library and must
    not depend on any other sqlgraph library. *)

type clock = unit -> float

val set_clock : clock -> unit
(** Replace the time source (seconds, as a float).  Affects subsequent
    events only. *)

val now : unit -> float
(** Read the current (possibly injected) clock. *)

val set_enabled : bool -> unit

val enabled : unit -> bool
(** One atomic load; the guard used by every instrumentation site. *)

val configure : capacity:int -> unit
(** Re-allocate the ring with room for [capacity] events (clamped to at
    least 16) and {!clear} it.  Default capacity: 65536. *)

val clear : unit -> unit
(** Drop all recorded events and reset the dropped-event counter.  Span
    and query id counters are {e not} reset; ids stay unique across the
    session. *)

(** {1 Query ids} *)

val next_query : unit -> int
(** Allocate a fresh statement id and, while recording is enabled, make
    it current on the calling track (the registered thread's, else the
    domain's); every event that track records until its next call is
    stamped with it.  Called by [Db] at statement start.  Another
    track's statements never change it, so concurrent sessions keep
    their own ids. *)

val current_query : unit -> int
(** The calling track's statement id from its last {!next_query} while
    recording was enabled ([0] before the first). *)

val set_query : int -> unit
(** Make [q] the calling track's current statement id: a worker domain
    adopts the id of the statement its coordinator is running. *)

(** {1 Recording} *)

val begin_span : ?parent:int -> ?attrs:(string * string) list -> string -> int
(** Open a span named [name] on the calling domain's track and return
    its id (or [-1] when disabled).  The parent defaults to the
    innermost span still open on this domain ([-1] for a root).  Pass
    [?parent] explicitly to link a spawned domain's root span to the
    coordinator span that forked it. *)

val end_span : ?attrs:(string * string) list -> int -> unit
(** Close span [id].  Any child spans of [id] still open on this domain
    are closed first (innermost out), so an exceptional unwind that
    skips intermediate [end_span] calls cannot leave the track's stack
    corrupt.  [end_span (-1)] is a no-op. *)

val instant : ?attrs:(string * string) list -> string -> unit
(** Record a zero-duration marker on the calling domain's track. *)

val span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] = begin, run [f], end — the end is under
    [Fun.protect], so the span closes on any exception (cancellation
    included).  When disabled this is just [f ()]. *)

val current_span : unit -> int
(** Innermost open span id on the calling domain, [-1] if none.
    Capture this before [Domain.spawn] to parent the child's root. *)

(** {1 Per-thread tracks}

    Span nesting defaults to one stack per {e domain}, but the server
    runs one {e systhread} per client session, all inside one domain —
    their interleaved statements would corrupt a shared stack.  A
    session thread therefore registers its own track: a private timeline
    id plus a private span stack, keyed by [Thread.id].  Unregistered
    threads keep the domain-local behaviour; the registration table is
    only consulted while at least one thread is registered. *)

val register_thread_track : int -> unit
(** [register_thread_track id] — give the calling thread its own span
    stack and stamp its events with track [id] (the server uses the
    session id, so exported traces show one timeline per session). *)

val unregister_thread_track : unit -> unit
(** Drop the calling thread's registration (idempotent). *)

(** {1 Inspection and export} *)

type kind = Begin | End | Instant

type event = {
  ev_kind : kind;
  ev_ts : float;  (** seconds, from the injected clock *)
  ev_name : string;
  ev_track : int;  (** recording domain's id *)
  ev_span : int;
  ev_parent : int;  (** parent span id, [-1] for roots *)
  ev_query : int;  (** statement id, see {!next_query} *)
  ev_attrs : (string * string) list;
}

val events : unit -> event list
(** Snapshot of the ring, oldest first.  Intended for between-statement
    readers (tests, exporters); a concurrent writer may race the
    snapshot, never crash it. *)

val dropped : unit -> int
(** Events overwritten since the last {!clear}. *)

val self_ms_by_name : query:int -> (string * float) list
(** Aggregate completed spans of statement [query] by name and return
    [(name, self-time ms)] sorted descending — self time is the span's
    duration minus its direct children's.  Feeds the slow-query log's
    "top spans" field. *)

val to_catapult : unit -> string
(** Render the ring as Chrome trace-event ("catapult") JSON — an object
    with a [traceEvents] array of ["B"]/["E"]/["i"] events (timestamps
    in microseconds, one [tid] per domain) — loadable in
    chrome://tracing and Perfetto. *)

val write_catapult : path:string -> unit
(** [to_catapult] to a file (truncates). *)
