(** Pluggable telemetry sinks.

    A sink is three closures; the {!Telemetry} hub fans every event out
    to all attached sinks. Sinks are single-consumer and not thread-safe:
    in the parallel explorer only the coordinating domain emits (workers
    hand their measurements back to it), so no locking is needed. *)

type t = {
  emit : Event.t -> unit;
  flush : unit -> unit;
  close : unit -> unit;
      (** Write any buffered epilogue. Does not close the underlying
          channel — the opener owns it. *)
}

val null : t

val memory : unit -> t * (unit -> Event.t list)
(** In-process collector (tests): the second component returns the
    events received so far, oldest first. *)

val ndjson : out_channel -> t
(** Streams one JSON object per event, newline-delimited, as encoded by
    {!Event.to_ndjson_line}. *)

val console : ?oc:out_channel -> unit -> t
(** Pretty reporter: accumulates final counter values and span
    durations (by name: count / total / max), and prints a table on
    [close]. Default channel: [stderr], so it composes with
    commands that print results on stdout. *)

val progress : ?oc:out_channel -> ?tty:bool -> unit -> t
(** Live one-line search progress, [search: N nodes | R nodes/s]: two
    counts the explorer keeps, the [explore.nodes] counter and the
    [explore.nodes_per_sec] gauge (the rate is left out until the first
    gauge arrives). Repaints on each [explore.heartbeat] instant; the
    explorer's last one follows its final counter flush, so the last
    line's [N] is the result's node count. With [tty] (default) the
    line is rewritten in place with ['\r'] and the final [close] emits
    the newline; without, each heartbeat appends a plain line
    (log-friendly). Default channel: [stdout]. *)

val chrome_event :
  name:string ->
  cat:string ->
  ph:string ->
  ts:int ->
  pid:int ->
  tid:int ->
  (string * Json.t) list ->
  Json.t
(** One trace event in the Chrome trace-event JSON shape, fields in a
    fixed order (name, cat, ph, ts, pid, tid, extras) so exports are
    byte-stable. Shared with {!Execution.Chrome}. *)

val chrome_trace : out_channel -> t
(** Chrome trace-event exporter ([chrome://tracing] / Perfetto "JSON
    array" format). Spans become ["B"]/["E"] duration events, counters
    and gauges ["C"] counter tracks, instants ["i"]. The file is
    written incrementally — one trace event per line inside the array —
    and terminated on [close] (unbalanced span begins are closed at the
    last seen timestamp). *)
