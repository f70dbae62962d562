(** The telemetry hub: named monotonic counters, gauges, instants and
    spans, fanned out to attached {!Sink}s.

    Overhead contract (DESIGN.md §5d): instrumented hot paths keep their
    raw tallies in plain mutable ints/records and only talk to a hub at
    coarse intervals (heartbeats, phase boundaries). A disabled hub
    ({!null}, or [create ~sinks:[]]) makes every emission a single
    [enabled] branch, so the instrumentation costs nothing measurable
    when no sink is attached — the explorer's ns/node budget is guarded
    by BENCH_PR4.json. *)

type t

val null : t
(** The disabled hub: no sinks, clock pinned to 0. *)

val create : ?clock:(unit -> int) -> ?pid:int -> sinks:Sink.t list -> unit -> t
(** [clock] returns the event timestamp in integer microseconds; the
    default is wall-clock microseconds since hub creation. [pid] tags
    every event (default 0) — use distinct pids to separate runs in one
    stream. *)

val manual_clock : unit -> (unit -> int) * (int -> unit)
(** A deterministic clock for replay exports and tests:
    [(clock, advance)] where [advance d] moves virtual time forward by
    [d] microseconds. *)

val enabled : t -> bool
(** True iff at least one sink is attached. Instrumented code uses this
    to skip whole blocks of emission work. *)

val now_us : t -> int

(** {1 Counters}

    Counters are registered by name (idempotent: same name, same
    counter) and carry their value locally; {!emit_counter} or
    {!flush_counters} pushes snapshots to the sinks. Bumping a counter
    never allocates or touches a sink. *)

type counter

val counter : t -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val set : counter -> int -> unit
val value : counter -> int

val emit_counter : ?tid:int -> t -> counter -> unit
val flush_counters : ?tid:int -> t -> unit
(** Snapshot every registered counter, in registration order. *)

(** {1 Events} *)

val gauge : ?tid:int -> t -> string -> float -> unit
val instant : ?tid:int -> ?args:(string * Json.t) list -> t -> string -> unit

val span : ?tid:int -> ?args:(string * Json.t) list -> t -> string
  -> (unit -> 'a) -> 'a
(** [span t name f] brackets [f ()] in begin/end events (ends on
    exceptions too). When the hub is disabled this is exactly [f ()]. *)

val span_at : ?tid:int -> ?args:(string * Json.t) list -> t
  -> ts0:int -> ts1:int -> string -> unit
(** Emit a complete span with explicit timestamps — used to report work
    measured elsewhere (e.g. a search domain's wall-clock window,
    recorded by the worker and emitted by the coordinator after join). *)

val flush : t -> unit
val close : t -> unit
(** Flush counters, then flush and close every sink. Idempotent. *)
